from reluflow.cli import main


def write_config(path, text):
    path.write_text(text)
    return str(path)


def test_thread_count_leaves_outputs_byte_identical(tmp_path):
    config = write_config(
        tmp_path / "exp.cfg",
        "rhs = sin\ndim = 1\nn_list = 2,4,8\ntime_samples = 5\nspace_samples = 5\n",
    )
    names = ("convergence.csv", "convergence_summary.json")
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        argv = ["convergence", "--config", config, "--out", str(out), "--threads", threads]
        assert main(argv) == 0
        outputs.append([(out / name).read_bytes() for name in names])
    assert outputs[0] == outputs[1]


def test_complexity_of_zero_rhs_fails_verification_cleanly(tmp_path, capsys):
    config = write_config(tmp_path / "exp.cfg", "rhs = zero\ndim = 1\n")
    assert main(["complexity", "--config", config, "--out", str(tmp_path / "out")]) == 4
    captured = capsys.readouterr()
    assert captured.out.startswith("complexity: rhs=zero d=1 rule=fixed const-ratio=8.000 ")
    assert captured.err.splitlines() == [
        "error: neurons / (r_n^d n^d) varies by factor 8.000 > 4 across n_list"
    ]
