import json
import math
from pathlib import Path

import numpy as np
import pytest

from reluflow import (
    OracleConvergenceError,
    RhsSpec,
    build_resnet,
    cli,
    compile_pwl,
    eval_network,
    eval_resnet,
    interpolate,
    load_network,
    ode,
    pwl_to_dict,
)
from reluflow.cli import main


def write_config(path, text):
    path.write_text(text)
    return str(path)


def test_thread_count_leaves_outputs_byte_identical(tmp_path):
    names = ("convergence.csv", "convergence_summary.json")
    for i, text in enumerate((
        "rhs = sin\ndim = 1\nn_list = 2,4,8\ntime_samples = 5\nspace_samples = 5\n",
        # d = 2: the batched oracle integrates all 16 points on one mesh
        "rhs = tanh\ndim = 2\nn_list = 2,4\ntime_samples = 5\nspace_samples = 4\n",
        # d = 3: the n = 4 block has V = 185,193 vertices (80.8M neurons if compiled)
        "rhs = sin\ndim = 3\nn_list = 2,4\ntime_samples = 5\nspace_samples = 5\n",
    )):
        config = write_config(tmp_path / f"exp{i}.cfg", text)
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"config{i}-threads{threads}"
            argv = ["convergence", "--config", config, "--out", str(out), "--threads", threads]
            assert main(argv) == 0
            outputs.append([(out / name).read_bytes() for name in names])
        assert outputs[0] == outputs[1]
        rows = outputs[0][0].decode().splitlines()[1:]
        assert rows and all(float(r.split(",")[1]) <= float(r.split(",")[2]) for r in rows)


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
        # only compile draws random points, so only compile reads `seed`
        ("convergence", "rhs = sin\nseed = 3\n", "config key 'seed' does not apply"),
        ("complexity", "rhs = sin\nseed = 3\n", "config key 'seed' does not apply"),
        ("shared", "rhs = sin\nseed = 3\n", "config key 'seed' does not apply"),
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


def test_oracle_memory_budget_exits_3_before_allocating(tmp_path, capsys, monkeypatch):
    # a small budget, so that the guard trips after a few halvings; a
    # tolerance below the rounding of the states never converges
    monkeypatch.setattr(ode, "ORACLE_STATE_BYTES", 2**20)
    config = write_config(tmp_path / "exp.cfg", "rhs = sin\nn_list = 2,4\noracle_tol = 1e-17\n")
    assert main(["convergence", "--config", config, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    # 41 points x 8 bytes per time row; 32 .. 2048 steps fit in 1 MiB
    assert err.startswith(
        "error: reference solver would need 1343816 bytes of states for 4096 steps "
        "(budget 1048576); still moving by "
    )
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_pwl_file_with_a_non_integral_dimension_exits_2(tmp_path, capsys):
    doc = pwl_to_dict(interpolate(np.sin, 1.0, 0.5, 1))
    doc["dim"] = 1.6
    (tmp_path / "f.json").write_text(json.dumps(doc))
    config = write_config(tmp_path / "exp.cfg", f"pwl_file = {tmp_path / 'f.json'}\n")
    assert main(["compile", "--config", config, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [
        f"error: cannot load PWL file {tmp_path / 'f.json'}: field 'dim' is 1.6, not an integer"
    ]


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


def test_compile_in_three_dimensions_saves_and_reloads_exactly(tmp_path, monkeypatch):
    config = write_config(
        tmp_path / "exp.cfg",
        "function = cos\ndim = 3\nradius = 1\neps = 1.0\nsamples = 200\n",
    )
    compiled = []
    save = cli.save_network

    def keep_and_save(net, path):
        compiled.append(net)
        save(net, path)

    monkeypatch.setattr(cli, "save_network", keep_and_save)
    names = ("network.json", "compile_summary.json")
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        argv = ["compile", "--config", config, "--out", str(out), "--threads", threads]
        assert main(argv) == 0
        outputs.append([(out / name).read_bytes() for name in names])
    assert outputs[0] == outputs[1]
    loaded = load_network(tmp_path / "threads1" / "network.json")
    points = np.random.default_rng(5).uniform(-2.0, 2.0, size=(500, 3))
    assert np.array_equal(eval_network(loaded, points), eval_network(compiled[0], points))


def test_compile_over_its_memory_budget_exits_2_before_compiling(tmp_path, capsys, monkeypatch):
    # the budget is monkeypatched to 1 MiB, so that a small network trips it
    monkeypatch.setattr(cli, "COMPILE_BYTES", 2**20)

    def never(*args, **kwargs):
        raise AssertionError("compile_pwl ran past the preflight")

    monkeypatch.setattr(cli, "compile_pwl", never)
    text = "function = cos\ndim = 3\nradius = 1\neps = 1.0\nsamples = 200\n"
    config = write_config(tmp_path / "exp.cfg", text)
    assert main(["compile", "--config", config, "--out", str(tmp_path / "out")]) == 2
    # the estimate, from the network it would have built
    net = compile_pwl(interpolate(np.cos, 1.0, 1.0, 3))
    nonzeros = sum(int(l.weights.count_nonzero() + np.count_nonzero(l.bias)) for l in net.layers)
    widths = net.layer_widths[1:]
    need = 12 * (sum(widths) + nonzeros) + 8 * 256 * max(widths)
    assert capsys.readouterr().err.splitlines() == [
        f"error: the compiled network would need about {need} bytes (CSR layers and one "
        f"256-row activation chunk), over the budget of {2**20}"
    ]
    assert not (tmp_path / "out").exists()


def test_compile_that_would_exhaust_memory_exits_2(tmp_path, capsys):
    # sin at d = 3, radius 4, eps 0.5 was killed for lack of memory: the
    # check's first 256-row chunk alone is 256 x 4.7M neurons x 8 bytes
    text = "function = sin\ndim = 3\nradius = 4\neps = 0.5\nsamples = 10\n"
    config = write_config(tmp_path / "exp.cfg", text)
    assert main(["compile", "--config", config, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    need = int(err.split("about ")[1].split(" bytes")[0])
    assert need > 256 * 4_000_000 * 8 > cli.COMPILE_BYTES
    assert not (tmp_path / "out").exists()
