import math
from pathlib import Path

import numpy as np
import pytest

from reluflow import OracleConvergenceError, RhsSpec, build_resnet, cli, eval_resnet
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


@pytest.mark.parametrize(
    "command,text,message",
    [
        ("convergence", "rhs = sin\nsteps = 4\n", "unknown config key 'steps'"),
        ("convergence", "rhs = sin\neps = 0.1\n", "config key 'eps' does not apply"),
        ("shared", "rhs = sin\nk_list = 1,2\n", "shared experiments need `pieces"),
    ],
)
def test_bad_config_exits_2_without_traceback(tmp_path, capsys, command, text, message):
    config = write_config(tmp_path / "exp.cfg", text)
    assert main([command, "--config", config, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_reference_solver_failure_exits_3(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise OracleConvergenceError("still moving")

    monkeypatch.setattr(cli, "reference_solve", fail)
    config = write_config(tmp_path / "exp.cfg", "rhs = sin\nn_list = 2,4\n")
    assert main(["convergence", "--config", config, "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == "error: still moving\n"


def test_shared_thread_count_leaves_output_byte_identical(tmp_path):
    config = write_config(
        tmp_path / "exp.cfg",
        "rhs = cos\npieces = 2\nk_list = 1,2,4\ntime_samples = 5\nspace_samples = 5\n",
    )
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        argv = ["shared", "--config", config, "--out", str(out), "--threads", threads]
        assert main(argv) == 0
        outputs.append((out / "shared.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_readme_documents_every_config_key():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    missing = [key for key in cli._KEY_PARSERS if f"`{key}`" not in readme]
    assert missing == []


def test_sup_error_is_the_worst_gap_over_every_sample_time():
    rhs = RhsSpec(lambda t, x: np.sin(x), 2, math.sqrt(2.0), 1.0, piecewise_constant_pieces=1)
    net, _ = build_resnet(rhs, 5, 3.0, block_accuracy=0.5)
    times = [i / 6 for i in range(7)]
    points = np.random.default_rng(0).uniform(-1.0, 1.0, size=(11, 2))
    exact = np.stack([eval_resnet(net, t, points) for t in times])
    table = exact + np.random.default_rng(1).uniform(-1e-3, 1e-3, size=exact.shape)
    table[3, 4, 0] += 0.5
    worst = max(
        float(np.linalg.norm(eval_resnet(net, t, points) - table[i], axis=1).max())
        for i, t in enumerate(times)
    )
    assert worst > 0.49
    assert cli._sup_error(net, times, points, table) == worst
