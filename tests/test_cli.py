import csv
import itertools
import json
import math
import tracemalloc
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from reluflow import (
    OracleConvergenceError,
    RhsSpec,
    approximate_lipschitz,
    build_resnet,
    cli,
    compile_pwl,
    eval_network,
    eval_network_batched,
    eval_pwl,
    eval_resnet,
    interpolate,
    load_network,
    networks,
    ode,
    pwl,
    pwl_to_dict,
)
from reluflow.cli import main


def write_config(path, text):
    path.write_bytes(text) if isinstance(text, bytes) else path.write_text(text)
    return str(path)


def spy_spot_checks(monkeypatch) -> list:
    """The radii of the RhsSpec.spot_check calls made from now on, in order."""
    radii = []
    check = RhsSpec.spot_check

    def spy(rhs, radius=5.0, **kwargs):
        radii.append(radius)
        return check(rhs, radius, **kwargs)

    monkeypatch.setattr(RhsSpec, "spot_check", spy)
    return radii


def test_thread_count_leaves_outputs_byte_identical(tmp_path):
    names = {
        "convergence": ("convergence.csv", "convergence_summary.json"),
        "complexity": ("complexity.csv",),
    }
    for i, (command, text) in enumerate((
        ("convergence", "rhs = sin\ndim = 1\nn_list = 2,4,8\ntime_samples = 5\nspace_samples = 5\n"),
        # d = 2: the batched oracle integrates all 16 points on one mesh
        ("convergence", "rhs = tanh\ndim = 2\nn_list = 2,4\ntime_samples = 5\nspace_samples = 4\n"),
        # d = 3: the n = 4 block has V = 185,193 vertices (80.8M neurons if compiled)
        ("convergence", "rhs = sin\ndim = 3\nn_list = 2,4\ntime_samples = 5\nspace_samples = 5\n"),
        # the blocks of r_n = 4 + log n, one a thread
        ("complexity", "rhs = cos\ndim = 2\nn_list = 2,4,8\nrn_rule = log\n"),
    )):
        config = write_config(tmp_path / f"exp{i}.cfg", text)
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"config{i}-threads{threads}"
            argv = [command, "--config", config, "--out", str(out), "--threads", threads]
            assert main(argv) == 0
            outputs.append([(out / name).read_bytes() for name in names[command]])
        assert outputs[0] == outputs[1]
        rows = outputs[0][0].decode().splitlines()[1:]
        assert rows
        if command == "convergence":
            assert all(float(r.split(",")[1]) <= float(r.split(",")[2]) for r in rows)


@pytest.mark.parametrize(
    "command,text,radius",
    [
        # every n builds on the default cube max(4, cube_radius + c + 1) = 4
        ("convergence", "n_list = 2,4,8\ntime_samples = 5\nspace_samples = 5\n", 4.0),
        # r_n = 4 sqrt(n): the largest cube is the one of n = 4
        ("convergence", "n_list = 2,4\nrn_rule = sqrt\ntime_samples = 5\nspace_samples = 5\n",
         8.0),
        ("complexity", "n_list = 2,4,8\n", 4.0),
        ("shared", "rhs = cos\npieces = 2\nradius = 3\nk_list = 1,2\ntime_samples = 5\n"
         "space_samples = 5\n", 3.0),
    ],
    ids=["convergence", "convergence-sqrt", "complexity", "shared"],
)
def test_each_command_spot_checks_its_rhs_once_on_the_largest_cube(
    tmp_path, monkeypatch, command, text, radius
):
    radii = spy_spot_checks(monkeypatch)
    config = write_config(tmp_path / "exp.cfg", text)
    assert main([command, "--config", config, "--out", str(tmp_path / "out")]) == 0
    assert radii == [radius]


def test_seed_flag_leaves_convergence_outputs_byte_identical(tmp_path):
    # only compile draws random points; the other commands accept the flag and ignore it
    text = "rhs = sin\nn_list = 2,4\ntime_samples = 5\nspace_samples = 5\n"
    config = write_config(tmp_path / "exp.cfg", text)
    names = ("convergence.csv", "convergence_summary.json")
    outputs = []
    for seed in ("1", "2"):
        out = tmp_path / f"seed{seed}"
        assert main(["convergence", "--config", config, "--out", str(out), "--seed", seed]) == 0
        outputs.append([(out / name).read_bytes() for name in names])
    assert outputs[0] == outputs[1]
    keys = {f.name for f in fields(cli.ExperimentConfig) if "convergence" in f.metadata["commands"]}
    assert set(json.loads(outputs[0][1])["config"]) == keys


def test_complexity_of_zero_rhs_reports_no_ratio(tmp_path, capsys):
    # zero's blocks have no live values, so they do not grow with n: 2d neurons at every n
    for dim in (1, 2):
        config = write_config(tmp_path / "exp.cfg", f"rhs = zero\ndim = {dim}\n")
        out = tmp_path / f"out{dim}"
        assert main(["complexity", "--config", config, "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(f"complexity: rhs=zero d={dim} rule=fixed const-ratio=n/a ")
        assert captured.err == ""
        rows = (out / "complexity.csv").read_text().splitlines()[1:]
        assert [row.split(",")[2:5:2] for row in rows] == [[str(2 * dim), "0"]] * 4


def test_complexity_checks_the_ratio_of_growing_blocks(tmp_path, capsys):
    # the default cube of sin at d = 1 is max(4, 1 + 1 + 1) = 4, grown by each rule
    for rule, radius, ratio in (
        ("fixed", lambda n: 4.0, "1.005"),
        ("log", lambda n: 4.0 + math.log(n), "1.010"),
        ("sqrt", lambda n: 4.0 * math.sqrt(n), "1.007"),
    ):
        config = write_config(tmp_path / "exp.cfg", f"rhs = sin\ndim = 1\nrn_rule = {rule}\n")
        out = tmp_path / rule
        assert main(["complexity", "--config", config, "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert printed.startswith(f"complexity: rhs=sin d=1 rule={rule} const-ratio={ratio} ")
        rows = [line.split(",") for line in (out / "complexity.csv").read_text().splitlines()[1:]]
        assert [(int(row[0]), float(row[1])) for row in rows] == [
            (n, radius(n)) for n in (8, 16, 32, 64)
        ]
        constants = [float(row[5]) for row in rows]
        assert f"{max(constants) / min(constants):.3f}" == ratio


@pytest.mark.parametrize(
    "rhs,dim,pieces,n_list",
    [("sin", 1, 1, (4, 8, 16)), ("cos", 1, 1, (4, 8, 16)), ("tanh", 1, 1, (4, 8, 16)),
     ("sin", 2, 1, (4, 8)), ("sin", 1, 3, (4, 8))],
    ids=["sin", "cos", "tanh", "sin-d2", "three-pieces"],
)
def test_apriori_bound_is_at_least_the_measured_error(tmp_path, rhs, dim, pieces, n_list):
    text = (f"rhs = {rhs}\ndim = {dim}\npieces = {pieces}\nn_list = {','.join(map(str, n_list))}\n"
            "time_samples = 5\nspace_samples = 5\n")
    config = write_config(tmp_path / "exp.cfg", text)
    out = tmp_path / "out"
    assert main(["convergence", "--config", config, "--out", str(out)]) == 0
    summary = json.loads((out / "convergence_summary.json").read_text())
    assert summary["n"] == list(n_list)
    assert all(e <= b for e, b in zip(summary["sup_error"], summary["apriori_bound"], strict=True))
    # the bound's perturbation is the block target 1/n plus the drift L/n, which only a
    # step across a piece boundary (pieces = 3, n = 4, 8) pays
    spec = pwl.resolve_function(rhs)
    c, lipschitz = spec.bound(dim, math.inf), spec.lipschitz(dim, math.inf)
    assert summary["apriori_bound"] == [
        ode.perturbed_euler_bound(1 / n + (0.0 if n % pieces == 0 else lipschitz / n),
                                  c, n, lipschitz)
        for n in n_list
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
        # values the program used to reach and fail on with a traceback or exit 3
        ("convergence", "rhs = poly:1\n", "rhs must be one of: zero, sin, cos, tanh"),
        ("complexity", "rhs = poly:1\n", "rhs must be one of: zero, sin, cos, tanh"),
        ("convergence", "rn_value = -1\n", "rn_value must be positive and finite, not -1.0"),
        ("complexity", "rn_value = 0\n", "rn_value must be positive and finite, not 0.0"),
        ("convergence", "rn_value = inf\n", "rn_value must be positive and finite, not inf"),
        ("shared", "pieces = 1\nradius = -1\n", "radius must be positive and finite, not -1.0"),
        ("shared", "pieces = 1\nradius = 0\n", "radius must be positive and finite, not 0.0"),
        ("compile", "function = sin\nradius = inf\n", "radius must be positive and finite, not inf"),
        ("convergence", "block_accuracy_scale = nan\n", "block_accuracy_scale must be positive"),
        ("convergence", "cube_radius = inf\n", "cube_radius must be positive and finite, not inf"),
        ("convergence", "cube_radius = nan\n", "cube_radius must be positive and finite, not nan"),
        # a dim past the float range, whose rhs constants take sqrt(dim)
        ("convergence", f"dim = 1{'0' * 400}\n", "dim must be a positive integer up to 1.79769e+308"),
        ("complexity", f"dim = 1{'0' * 400}\n", "dim must be a positive integer up to 1.79769e+308"),
        ("shared", f"pieces = 1\ndim = 1{'0' * 400}\n", "dim must be a positive integer up to"),
        # lattices over the byte budget, refused before interpolate allocates them
        ("complexity", "rhs = sin\ndim = 1\nn_list = 8\nrn_value = 1e15\n",
         "lattice of radius 1e+15 and fineness 0.125 would need about 3.84e+17 bytes"),
        ("compile", "function = sin\ndim = 3\nradius = 1000\neps = 0.01\n",
         "lattice of radius 1000 and fineness 0.01 would need about 2.33e+18 bytes"),
        # k = 16 asks for fineness c (c + L) / (k p) = 0.125
        ("shared", "rhs = sin\npieces = 1\nradius = 1e7\n",
         "lattice of radius 1e+07 and fineness 0.125 would need about 3.84e+09 bytes"),
        # sample grids and check points over the byte budget, refused before they are drawn
        ("convergence", "space_samples = 1000000000000\n",
         "1000000000000^1 sample points at 65 times would need about 5.2e+14 bytes"),
        ("shared", "pieces = 1\nspace_samples = 1000000000000\n",
         "1000000000000^1 sample points at 33 times would need about 2.64e+14 bytes"),
        ("compile", "function = sin\nradius = 1\nsamples = 1000000000000\n",
         "1000000000000 check points would need about 1.44e+14 bytes"),
        ("convergence", "time_samples = 1000000000000\n",
         "41^1 sample points at 1000000000000 times would need about 3.28e+14 bytes"),
        # an 801-vertex lattice, but 10^8 + 1 node states for each of the 41 points
        ("convergence", "n_list = 100000000\nblock_accuracy_scale = 1000000\n",
         "41^1 sample points at 100000001 times would need about 3.28e+10 bytes"),
        # values that used to end in a traceback (exit 1)
        ("compile", "function = sin\nradius = 1\nseed = -1\n",
         "seed must be a non-negative integer, not -1"),
        ("compile", "function = poly:nan\nradius = 1\n",
         "polynomial coefficients in 'poly:nan' must be finite"),
        ("compile", "function = poly:1,inf\nradius = 1\n",
         "polynomial coefficients in 'poly:1,inf' must be finite"),
        ("compile", "function = poly:1,2\nradius = 1e308\n",
         "cannot interpolate poly:1,2: vertex values must be finite"),
        # compile_pwl builds G and one min tree for every N: 8 GiB of them at d = 7
        ("compile", "function = zero\ndim = 7\nradius = 1\n",
         "the compiled network needs about 133906883924 bytes"),
        # a config that is not UTF-8 is refused like one that cannot be read
        ("convergence", b"rhs = sin\n\xff\xfe = 1\n", "'utf-8' codec can't decode byte 0xff"),
    ],
)
def test_bad_config_exits_2_without_traceback(
    tmp_path, capsys, monkeypatch, command, text, message
):
    # every check runs before the spot check of the rhs and the reference solve
    radii = spy_spot_checks(monkeypatch)

    def never(*args, **kwargs):
        raise AssertionError("the reference solver ran past the budget checks")

    monkeypatch.setattr(cli, "reference_solve", never)
    config = write_config(tmp_path / "exp.cfg", text)
    assert main([command, "--config", config, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()
    assert radii == []


@pytest.mark.parametrize(
    "command,text",
    [
        ("convergence", "n_list = 2,4\nrn_rule = sqrt\ntime_samples = 5\nspace_samples = 5\n"),
        ("complexity", "rhs = cos\ndim = 2\nn_list = 2,4,8\nrn_rule = log\n"),
        ("shared", "rhs = cos\npieces = 2\nradius = 3\nk_list = 1,2,4\ntime_samples = 5\n"
         "space_samples = 5\n"),
    ],
    ids=["convergence", "complexity", "shared"],
)
def test_each_command_builds_its_plan_through_build_resnet(tmp_path, monkeypatch, command, text):
    config = write_config(tmp_path / "exp.cfg", text)
    _, builds = cli._plan(cli.load_config(config, command), command)
    calls = []

    def spy(rhs, n, r_n, block_accuracy):
        calls.append((n, r_n, block_accuracy))
        return build_resnet(rhs, n, r_n, block_accuracy)

    monkeypatch.setattr(cli, "build_resnet", spy)
    assert main([command, "--config", config, "--out", str(tmp_path / "out")]) == 0
    assert calls == [(steps, radius, accuracy) for _, steps, radius, accuracy in builds]


@pytest.mark.parametrize("rhs,dim", [("sin", 1), ("sin", 2), ("zero", 2)])
def test_complexity_counts_the_blocks_convergence_builds(tmp_path, rhs, dim):
    text = f"rhs = {rhs}\ndim = {dim}\nn_list = 2,4,8\n"
    tables = {}
    for command, extra in (("convergence", "time_samples = 5\nspace_samples = 5\n"),
                           ("complexity", "")):
        config = write_config(tmp_path / f"{command}.cfg", text + extra)
        out = tmp_path / command
        assert main([command, "--config", config, "--out", str(out)]) == 0
        with open(out / f"{command}.csv", newline="") as handle:
            tables[command] = list(csv.DictReader(handle))
    assert [
        (row["n"], row["neurons"], row["depth"], row["free_weights"])
        for row in tables["complexity"]
    ] == [
        (row["n"], row["block_neurons"], row["block_depth"], row["free_weights"])
        for row in tables["convergence"]
    ]


@pytest.mark.parametrize(
    "command,text",
    [
        ("convergence", "n_list = 2\ntime_samples = 2\nspace_samples = 2\n"),
        ("complexity", "n_list = 2\n"),
        ("compile", "function = sin\nradius = 1\neps = 0.5\nsamples = 10\n"),
        ("shared", "pieces = 1\nk_list = 1\ntime_samples = 2\nspace_samples = 2\n"),
    ],
    ids=["convergence", "complexity", "compile", "shared"],
)
def test_outputs_that_cannot_be_written_exit_2(tmp_path, capsys, command, text):
    # the output directory would go under a regular file: NotADirectoryError
    config = write_config(tmp_path / "exp.cfg", text)
    (tmp_path / "afile").write_text("")
    out = tmp_path / "afile" / "sub"
    assert main([command, "--config", config, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write the outputs to {out}: ")
    assert len(err.splitlines()) == 1


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("dim,delta", [(1, 1 / 20000), (2, 1 / 100), (3, 1 / 12)])
def test_lattice_and_check_point_budgets_hold_their_traced_peaks(
    tmp_path, capsys, monkeypatch, dim, delta
):
    # each estimate is at least its traced peak: a budget of one byte less refuses it.
    # A block: interpolate a lattice of 40,001, 81,225 or 79,507 vertices and size it
    peak = traced_peak(lambda: approximate_lipschitz(np.sin, 1.0, dim**0.5, 1.0, delta, dim))
    monkeypatch.setattr(cli, "COMPILE_BYTES", peak - 1)
    with pytest.raises(cli.ConfigError):
        cli._check_lattice(1.0, delta, dim)
    # compile's check on 100,000 points, as cmd_compile runs it; the zero function's
    # network has no neurons, so its 128-row chunk (budgeted with the network) adds nothing
    zero = interpolate(np.zeros_like, 1.0, math.inf, dim)
    net = compile_pwl(zero)

    def check():
        points = np.random.default_rng(0).uniform(-2.0, 2.0, size=(100_000, dim))
        gaps = eval_network_batched(net, points) - eval_pwl(zero, points)
        return np.sqrt((gaps[:, None, :] @ gaps[:, :, None]).max())

    monkeypatch.setattr(cli, "COMPILE_BYTES", traced_peak(check) - 1)
    text = f"function = zero\ndim = {dim}\nradius = 1\nsamples = 100000\n"
    config = write_config(tmp_path / "exp.cfg", text)
    assert main(["compile", "--config", config, "--out", str(tmp_path / "out")]) == 2
    assert "100000 check points would need about" in capsys.readouterr().err


def test_a_negative_seed_flag_exits_2(tmp_path, capsys):
    config = write_config(tmp_path / "exp.cfg", "function = sin\nradius = 1\n")
    argv = ["compile", "--config", config, "--out", str(tmp_path / "out"), "--seed", "-1"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: seed must be a non-negative integer, not -1\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command,text",
    [("compile", "function = sin\nradius = 1e-300\n"),
     ("shared", "rhs = sin\npieces = 1\nradius = 1e-300\nk_list = 1,2\n")],
)
def test_points_far_off_in_cells_are_evaluated(tmp_path, capsys, command, text):
    # h = 1e-300, so the points are about 1e300 cells away: past an int64 cell index
    config = write_config(tmp_path / "exp.cfg", text)
    assert main([command, "--config", config, "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""


def test_sizing_a_ten_dimensional_network_builds_no_gradient_table(
    tmp_path, capsys, monkeypatch
):
    # G has 11! = 39,916,800 rows; compile's preflight and complexity count without it
    def never(dim):
        raise AssertionError("the gradient table was built")

    monkeypatch.setattr(pwl, "_origin_nodal_coefficients", never)
    text = "function = sin\ndim = 10\nradius = 1\neps = 1e300\n"
    config = write_config(tmp_path / "compile.cfg", text)
    assert main(["compile", "--config", config, "--out", str(tmp_path / "out")]) == 2
    assert "the compiled network needs about" in capsys.readouterr().err
    text = "rhs = sin\ndim = 10\nn_list = 1\nrn_value = 1\nblock_accuracy_scale = 1e300\n"
    config = write_config(tmp_path / "complexity.cfg", text)
    assert main(["complexity", "--config", config, "--out", str(tmp_path / "out")]) == 0
    row = (tmp_path / "out" / "complexity.csv").read_text().splitlines()[1].split(",")
    # 3^10 vertices, none of them a zero of sin in every component: 11! pieces each
    assert int(row[2]) > 3**10 * math.factorial(11)


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
    lines = (Path(__file__).resolve().parent.parent / "README.md").read_text().splitlines()
    start = lines.index("| key | commands | default | meaning |") + 2
    table = {}
    for line in itertools.takewhile(lambda line: line.startswith("|"), lines[start:]):
        key, commands = (cell.strip() for cell in line.split("|")[1:3])
        # `all` names the four commands
        table[key.strip("`")] = set(cli._DISPATCH if commands == "all" else commands.split(", "))
    declared = {f.name: set(f.metadata["commands"]) for f in fields(cli.ExperimentConfig)}
    assert table == declared


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
    # the dense blocks, at most: the whole first and last layers and one T_l of each
    # tree layer kron(I_N, T_l), N = 375 values with 24 pieces each
    ins = net.layer_widths[:-1]
    count = widths[0] // 24
    blocks = ins[0] * widths[0] + ins[-1] * widths[-1] + sum(
        a * b for a, b in zip(ins[1:-1], widths[1:-1])
    ) // count**2
    assert count == 375 and blocks >= sum(l.weights.block.size for l in net.layers)
    # a chunk holds a layer's input and output at once; the last layer's stored-order
    # sums its input, one term per entry and its output
    last = net.layers[-1]
    held = max(
        max(a + b for a, b in zip(net.layer_widths, widths)),
        last.in_dim + last.weights.count_nonzero() + last.out_dim,
    )
    rows = networks.EVAL_CHUNK_ROWS
    need = 12 * (sum(widths) + nonzeros) + 8 * blocks + 8 * (rows * held + np.getbufsize())
    assert capsys.readouterr().err.splitlines() == [
        f"error: the compiled network needs about {need} bytes, over the budget of {2**20}"
        f" (CSR layers, their dense blocks and one {rows}-row chunk of a layer)"
    ]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "function,dim,eps", [("sin", 2, 0.5), ("cos", 3, 1.0), ("sin", 1, 0.1)]
)
def test_compile_chunk_term_bounds_the_traced_pass(function, dim, eps):
    # compile-d2's network, cos at d = 3 and sin at d = 1: the preflight's chunk term,
    # numpy's ufunc buffer included, bounds the traced peak of one 128-row chunk through
    # the built blocks, with the (128, m) result (the check points' words count it) and
    # 4 KiB for the pass's own lists and array views
    spec = pwl.resolve_function(function)
    delta = pwl.fineness(eps, spec.lipschitz(dim, 1.0))
    net = compile_pwl(interpolate(spec.factory(dim), 1.0, delta, dim))
    rows = networks.EVAL_CHUNK_ROWS
    points = np.random.default_rng(0).uniform(-2.0, 2.0, size=(rows, dim))
    eval_network(net, points)  # builds the blocks
    last, widths = net.layers[-1], net.layer_widths
    held = max(
        max(a + b for a, b in zip(widths, widths[1:])),
        last.in_dim + last.weights.count_nonzero() + last.out_dim,
    )
    peak = traced_peak(lambda: eval_network(net, points))
    assert peak <= 8 * (rows * (held + net.output_dim) + np.getbufsize()) + 2**12


def test_compile_that_would_exhaust_memory_exits_2(tmp_path, capsys):
    # sin at d = 3, radius 4, eps 0.5 was killed for lack of memory: the
    # check's first chunk alone holds the 1.7M and 4.5M neurons of layers
    # 1 and 2 for every row, 8 bytes each
    text = "function = sin\ndim = 3\nradius = 4\neps = 0.5\nsamples = 10\n"
    config = write_config(tmp_path / "exp.cfg", text)
    assert main(["compile", "--config", config, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    need = int(err.split("about ")[1].split(" bytes")[0])
    assert need > networks.EVAL_CHUNK_ROWS * 6_000_000 * 8 > cli.COMPILE_BYTES
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "h,value,message",
    [
        # sqrt(v @ v) overflows, so the threshold 1e-9 (1 + norm) would be inf
        (1.0, 1e200, "the norm of the target's values overflows the float range"),
        # |c| / h = 1e350, past what a first-layer weight can hold
        (1e-200, 1e150, "the target's first-layer weights |c|/h overflow the float range"),
    ],
    ids=["value-norm", "first-layer-weight"],
)
def test_compile_of_a_target_past_the_float_range_exits_2(tmp_path, capsys, h, value, message):
    doc = {"dim": 1, "h": h, "r": h, "values": [{"vertex": [0], "value": [value]}]}
    (tmp_path / "f.json").write_text(json.dumps(doc))
    config = write_config(tmp_path / "exp.cfg", f"pwl_file = {tmp_path / 'f.json'}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["compile", "--config", config, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_compile_with_a_nan_deviation_exits_4(tmp_path, capsys, monkeypatch):
    # a NaN compares false both ways, so the gate has to fail on `not deviation <= threshold`
    monkeypatch.setattr(cli, "eval_pwl", lambda f, x: np.full((len(x), f.output_dim), np.nan))
    config = write_config(tmp_path / "exp.cfg", "function = sin\nradius = 1\neps = 0.5\n")
    assert main(["compile", "--config", config, "--out", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: compiled network deviates from the interpolation oracle by nan")
    assert len(err.splitlines()) == 1


def test_compile_of_the_zero_function_has_full_depth_and_no_neurons(tmp_path):
    config = write_config(tmp_path / "exp.cfg", "function = zero\ndim = 2\nradius = 1\n")
    assert main(["compile", "--config", config, "--out", str(tmp_path / "out")]) == 0
    summary = json.loads((tmp_path / "out" / "compile_summary.json").read_text())
    # depth ceil(log2 3!) + 2; the neurons are the 2 inputs and the 2 outputs
    assert summary["depth"] == 5 and summary["neurons"] == 4
    assert summary["free_weights"] == 0 and summary["oracle_deviation"] == 0.0
