import csv
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import fields
from functools import partial
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


def pwl_file_config(change, directory):
    """A compile config naming a PWL file, written to ``directory``: a 1-D hat with ``change``."""
    doc = {"dim": 1, "h": 1.0, "r": 1.0, "values": [{"vertex": [0], "value": [1.0]}], **change}
    (directory / "f.json").write_text(json.dumps(doc))
    return f"pwl_file = {directory / 'f.json'}\n"


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
    "command,text",
    [
        ("convergence", "n_list = 2,4,8\ntime_samples = 5\nspace_samples = 5\n"),
        ("convergence", "n_list = 2,4\nrn_rule = sqrt\ntime_samples = 5\nspace_samples = 5\n"),
        ("complexity", "n_list = 2,4,8\n"),
        ("compile", "function = sin\nradius = 1\neps = 0.5\nsamples = 200\n"),
        ("shared", "rhs = cos\npieces = 2\nradius = 3\nk_list = 1,2\ntime_samples = 5\n"
         "space_samples = 5\n"),
    ],
    ids=["convergence", "convergence-sqrt", "complexity", "compile", "shared"],
)
def test_no_command_spot_checks_its_rhs(tmp_path, monkeypatch, command, text):
    # a command's rhs is a REGISTRY entry, whose constants the registry test below pins
    calls = []
    monkeypatch.setattr(RhsSpec, "spot_check", lambda *args, **kwargs: calls.append(args))
    config = write_config(tmp_path / "exp.cfg", text)
    assert main([command, "--config", config, "--out", str(tmp_path / "out")]) == 0
    assert calls == []


@pytest.mark.parametrize("name", sorted(pwl.REGISTRY))
def test_each_registry_rhs_meets_its_declared_constants(name):
    # the rhs the commands build from a REGISTRY entry, on cubes from 1 to far past any default
    for dim in (1, 2, 3, 4):
        rhs = cli._rhs_from_config(cli.ExperimentConfig(rhs=name, dim=dim))
        for radius in (1.0, 4.0, 8.0, 1e3):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert rhs.spot_check(radius=radius) == []


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
        # sample grids over the byte budget, refused before they are drawn
        ("convergence", "space_samples = 1000000000000\n",
         "1000000000000^1 sample points at 33 times after 64 steps"
         " would need about 1.46e+15 bytes"),
        ("shared", "pieces = 1\nspace_samples = 1000000000000\n",
         "1000000000000^1 sample points at 33 times after 16 steps"
         " would need about 1.07e+15 bytes"),
        ("convergence", "time_samples = 1000000000000\n",
         "41^1 sample points at 1000000000000 times after 64 steps"
         " would need about 9.84e+14 bytes"),
        # an 801-vertex lattice, but 10^8 + 1 node states for each of the 41 points
        ("convergence", "n_list = 100000000\nblock_accuracy_scale = 1000000\n",
         "41^1 sample points at 33 times after 100000000 steps"
         " would need about 3.28e+10 bytes"),
        # values that used to end in a traceback (exit 1)
        ("compile", "function = sin\nradius = 1\nseed = -1\n",
         "seed must be a non-negative integer, not -1"),
        ("compile", "function = poly:nan\nradius = 1\n",
         "polynomial coefficients in 'poly:nan' must be finite"),
        ("compile", "function = poly:1,inf\nradius = 1\n",
         "polynomial coefficients in 'poly:1,inf' must be finite"),
        ("compile", "function = poly:1,2\nradius = 1e308\n",
         "cannot interpolate poly:1,2: vertex values must be finite"),
        # a fineness of 0, from an eps / L that underflows or an L that overflows: the
        # lattice is unbounded (these used to end in a ZeroDivisionError, exit 1)
        ("compile", "function = poly:0,4\nradius = 1\neps = 5e-324\n",
         "lattice of radius 1 and fineness 0 would need about inf bytes"),
        ("compile", "function = poly:0,0,0,0,0,0,0,0,0,0,1\nradius = 1e40\n",
         "lattice of radius 1e+40 and fineness 0 would need about inf bytes"),
        ("convergence", "n_list = 8\nblock_accuracy_scale = 5e-324\n",
         "lattice of radius 4 and fineness 0 would need about inf bytes"),
        ("complexity", "n_list = 8\nblock_accuracy_scale = 5e-324\n",
         "lattice of radius 4 and fineness 0 would need about inf bytes"),
        # a config that is not UTF-8 is refused like one that cannot be read
        ("convergence", b"rhs = sin\n\xff\xfe = 1\n", "'utf-8' codec can't decode byte 0xff"),
        # a PWL file with a JSON integer past the float range (these used to end in an
        # OverflowError, exit 1); the text is that of a config naming the file it writes
        pytest.param("compile", partial(pwl_file_config, {"h": 10**400}),
                     "field 'h' is an integer past the float range", id="compile-h-past-float"),
        pytest.param("compile", partial(pwl_file_config, {"r": 10**400}),
                     "field 'r' is an integer past the float range", id="compile-r-past-float"),
        pytest.param("compile", partial(pwl_file_config,
                                        {"values": [{"vertex": [0], "value": [10**400]}]}),
                     "field 'values': int too large to convert to float",
                     id="compile-value-past-float"),
    ],
)
def test_bad_config_exits_2_without_traceback(
    tmp_path, capsys, monkeypatch, command, text, message
):
    # every check runs before the reference solve
    def never(*args, **kwargs):
        raise AssertionError("the reference solver ran past the budget checks")

    monkeypatch.setattr(cli, "reference_solve", never)
    config = write_config(tmp_path / "exp.cfg", text(tmp_path) if callable(text) else text)
    assert main([command, "--config", config, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize(
    "command,text",
    [
        # two declared pieces: two pool entries a build
        ("convergence", "n_list = 2,4\npieces = 2\ntime_samples = 5\nspace_samples = 5\n"),
        ("complexity", "rhs = cos\ndim = 2\nn_list = 2,4,8\nrn_rule = log\n"),
        ("shared", "rhs = cos\npieces = 2\nradius = 3\nk_list = 1,2,4\ntime_samples = 5\n"
         "space_samples = 5\n"),
    ],
    ids=["convergence", "complexity", "shared"],
)
def test_each_command_sizes_only_the_blocks_it_reports(tmp_path, monkeypatch, command, text):
    # convergence and complexity size each pool entry they build once; shared reports no size
    built, sized = [], []

    def build(*args):
        net, bound = build_resnet(*args)
        built.extend(net.pool)
        return net, bound

    def size(block):
        sized.append(block)
        return pwl.compiled_complexity(block)

    monkeypatch.setattr(cli, "build_resnet", build)
    monkeypatch.setattr(cli, "compiled_complexity", size)
    config = write_config(tmp_path / "exp.cfg", text)
    assert main([command, "--config", config, "--out", str(tmp_path / "out")]) == 0
    expected = [] if command == "shared" else built
    assert len(sized) == len(expected) and all(a is b for a, b in zip(sized, expected))
    assert len(built) == {"convergence": 4, "complexity": 3, "shared": 6}[command]


@pytest.mark.parametrize(
    "command,text,columns,counts",
    [
        ("convergence", "rhs = sin\ndim = 1\nn_list = 8,16,32\n",
         ("block_neurons", "block_depth", "free_weights"),
         [(386, 3, 256), (770, 3, 512), (1538, 3, 1024)]),
        ("convergence", "dim = 2\n", ("block_neurons", "block_depth", "free_weights"),
         [(581812, 5, 308016), (2264812, 5, 1199016), (9034484, 5, 4782960),
          (35890540, 5, 19000872)]),
        ("complexity", "rhs = sin\ndim = 2\n", ("neurons", "depth", "free_weights"),
         [(581812, 5, 308016), (2264812, 5, 1199016), (9034484, 5, 4782960),
          (35890540, 5, 19000872)]),
        ("complexity", "rhs = zero\ndim = 2\n", ("neurons", "depth", "free_weights"),
         [(4, 5, 0)] * 4),
    ],
    ids=["convergence-sin-d1", "convergence-d2-defaults", "complexity-sin-d2",
         "complexity-zero-d2"],
)
def test_size_columns_hold_their_pinned_counts(tmp_path, command, text, columns, counts):
    config = write_config(tmp_path / "exp.cfg", text)
    assert main([command, "--config", config, "--out", str(tmp_path / "out")]) == 0
    with open(tmp_path / "out" / f"{command}.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [tuple(int(row[column]) for column in columns) for row in rows] == counts


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


# convergence runs of sin at n = 16 on 20,000 and 141^2 points at 33 sample times, and at
# 2 sample times after 2 steps, where an Euler step's eval_pwl outweighs the table
SAMPLE_GRIDS = {
    1: "space_samples = 20000\nn_list = 16\n",
    2: "space_samples = 141\nn_list = 16\n",
    3: "space_samples = 27\nn_list = 2\ntime_samples = 2\n",
}


@pytest.mark.parametrize("dim,delta", [(1, 1 / 20000), (2, 1 / 100), (3, 1 / 12)])
def test_lattice_and_check_point_budgets_hold_their_traced_peaks(
    tmp_path, monkeypatch, dim, delta
):
    # each estimate is at least its traced peak.  A block: build_resnet of one step
    # interpolates a lattice of 40,001, 81,225 or 79,507 vertices, and the CLI sizes it
    sin = RhsSpec(lambda t, x: np.sin(x), dim, dim**0.5, 1.0)
    peak = traced_peak(
        lambda: pwl.compiled_complexity(build_resnet(sin, 1, 1.0, delta)[0].pool[0])
    )
    assert pwl.lattice_bytes(1.0, delta, dim) >= peak
    # a sample grid: a budget one byte less than its reference table and the traced peak
    # of _sup_error on it refuses the grid
    config = write_config(tmp_path / "grid.cfg", f"rhs = sin\ndim = {dim}\n{SAMPLE_GRIDS[dim]}")
    cfg = cli.load_config(config, "convergence")
    rhs, builds = cli._plan(cfg, "convergence")
    times, points, table = cli._oracle(cfg, rhs)
    net = build_resnet(rhs, *builds[-1][1:])[0]
    held = table.nbytes + traced_peak(lambda: cli._sup_error(net, times, points, table))
    monkeypatch.setattr(cli, "COMPILE_BYTES", held - 1)
    with pytest.raises(cli.ConfigError, match=f"{cfg.space_samples}\\^{dim} sample points at"):
        cli._plan(cfg, "convergence")
    # compile's check points, drawn and compared 4,096 at a time: 8 slices of the zero
    # function's check peak within one slice's arrays (the points, both outputs, their gaps
    # and squared norms) of 1 slice
    monkeypatch.setattr(cli, "COMPILE_BYTES", networks.BUDGET_BYTES)
    monkeypatch.setattr(cli, "CHECK_SLICE", 4096)
    peaks = []
    for samples in (1, 4096, 8 * 4096):  # the first run warms up what the others reuse
        text = f"function = zero\ndim = {dim}\nradius = 1\nsamples = {samples}\n"
        config = write_config(tmp_path / f"check{samples}.cfg", text)
        argv = ["compile", "--config", config, "--out", str(tmp_path / f"check{samples}")]
        pwl._origin_nodal_coefficients.cache_clear()
        peaks.append(traced_peak(lambda: main(argv)))
    m = json.loads((tmp_path / "check1" / "compile_summary.json").read_text())["output_dim"]
    assert peaks[2] <= peaks[1] + 8 * 4096 * (dim + 3 * m + 1)


def test_the_sample_grid_budget_counts_each_build_running_at_once(tmp_path, monkeypatch):
    # sin, d = 1, 20,000 points, n = 8..64: four threads traced 34.2 MiB, table included,
    # against the one-build estimate of 27.8 MiB
    config = write_config(tmp_path / "grid.cfg", "rhs = sin\nspace_samples = 20000\n")
    cfg = cli.load_config(config, "convergence")
    rhs, _ = cli._plan(cfg, "convergence")
    oracle = cli._oracle(cfg, rhs)
    monkeypatch.setattr(cli, "_oracle", lambda cfg, rhs: oracle)
    peak = traced_peak(lambda: cli.cmd_convergence(cfg, tmp_path / "out", threads=4))
    held = oracle[1].nbytes + oracle[2].nbytes + peak
    monkeypatch.setattr(cli, "COMPILE_BYTES", held - 1)
    cli._plan(cfg, "convergence")  # one build at a time holds less
    what = "20000\\^1 sample points at 33 times after 64 steps, 4 builds at once would need"
    with pytest.raises(cli.ConfigError, match=what):
        cli._plan(cfg, "convergence", threads=4)


@pytest.mark.parametrize(
    "argv,message",
    [
        ([], "the following arguments are required: command, --config"),
        (["frob", "--config", "exp.cfg"], "argument command: invalid choice: 'frob'"),
        (["compile"], "the following arguments are required: --config"),
        (["compile", "--config", "exp.cfg", "--threads", "x"],
         "argument --threads: invalid int value: 'x'"),
    ],
    ids=["no-command", "unknown-command", "no-config", "threads-not-a-number"],
)
def test_a_malformed_command_line_exits_2_with_usage(capsys, argv, message):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: reluflow ") and f"reluflow: error: {message}" in err


def test_help_of_a_command_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["compile", "-h"])
    assert exit_.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: reluflow ") and "--config CONFIG" in out


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
    assert "of a tile) would need about" in capsys.readouterr().err
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


def test_compile_seed_moves_only_the_check_points(tmp_path):
    config = write_config(
        tmp_path / "exp.cfg", "function = sin\ndim = 2\nradius = 1\neps = 0.5\nsamples = 500\n"
    )
    saved, summaries = [], []
    for seed in ("1", "2"):
        out = tmp_path / f"seed{seed}"
        assert main(["compile", "--config", config, "--out", str(out), "--seed", seed]) == 0
        saved.append((out / "network.json").read_bytes())
        summaries.append(json.loads((out / "compile_summary.json").read_text()))
    assert saved[0] == saved[1]
    assert summaries[0]["oracle_deviation"] != summaries[1]["oracle_deviation"]
    for summary in summaries:
        assert summary["oracle_deviation"] <= summary["deviation_threshold"]


def test_compile_writes_the_pinned_network_file(tmp_path):
    # the bytes the command writes, repeated blocks encoded once, are those of the pinned
    # csr-1 document (test_pwl pins json.dumps of it)
    config = write_config(
        tmp_path / "exp.cfg", "function = sin\ndim = 2\nradius = 1\neps = 0.5\nsamples = 5000\n"
    )
    assert main(["compile", "--config", config, "--out", str(tmp_path / "out")]) == 0
    digest = hashlib.sha256((tmp_path / "out" / "network.json").read_bytes()).hexdigest()
    assert digest == "f3275537097bc0f431fba4fc407577d7126ae4650317cb212d09a57869c31c04"


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
    rows = networks.EVAL_CHUNK_ROWS
    held = tile_term(net)
    need = 12 * (sum(widths) + nonzeros) + 8 * blocks + 8 * (rows * held + np.getbufsize())
    assert capsys.readouterr().err.splitlines() == [
        f"error: the compiled network (CSR layers, their dense blocks and one {rows}-row chunk"
        f" of a tile) would need about {need} bytes, over the budget of {2**20}"
    ]
    assert not (tmp_path / "out").exists()


def tile_term(net) -> int:
    """The floats a 128-row chunk of ``net``'s pass holds a row at once: one tile's widest
    pair of layers (the whole input, ceil(G/T) of the G copies of each hidden layer), beside
    the assembled last hidden layer when T > 1; or the last layer's stored-order sums: its
    input, one term per entry and its output."""
    (tiles, common), last = networks._tiles(net), net.layers[-1]
    tile = [net.input_dim] + [w // common * -(-common // tiles) for w in net.layer_widths[1:-1]]
    pair = max(a + b for a, b in zip(tile, tile[1:])) + (last.in_dim if tiles > 1 else 0)
    return max(pair, last.in_dim + last.weights.count_nonzero() + last.out_dim)


@pytest.mark.parametrize(
    "function,dim,eps", [("sin", 2, 0.5), ("cos", 3, 1.0), ("sin", 1, 0.1), ("sin", 3, 0.5)]
)
def test_compile_chunk_term_bounds_the_traced_pass(function, dim, eps):
    # compile-d2's network and sin at d = 1 on one tile, cos and sin at d = 3 on 3 and 12
    # vertex tiles: the preflight's chunk term, numpy's ufunc buffer included, bounds the
    # traced peak of one 128-row chunk through the built blocks, with the (128, m) result
    # (one check slice's arrays hold it) and 4 KiB for the pass's own lists and array views
    spec = pwl.resolve_function(function)
    delta = pwl.fineness(eps, spec.lipschitz(dim, 1.0))
    net = compile_pwl(interpolate(spec.factory(dim), 1.0, delta, dim))
    assert networks._tiles(net)[0] == {1: 1, 2: 1, 3: 3 if function == "cos" else 12}[dim]
    rows = networks.EVAL_CHUNK_ROWS
    points = np.random.default_rng(0).uniform(-2.0, 2.0, size=(rows, dim))
    eval_network(net, points)  # builds the blocks
    peak = traced_peak(lambda: eval_network(net, points))
    assert peak <= 8 * (rows * (tile_term(net) + net.output_dim) + np.getbufsize()) + 2**12


@pytest.mark.parametrize(
    "function,dim,eps",
    [("sin", 2, 0.5), ("cos", 3, 1.0), ("sin", 1, 0.1), ("sin", 3, 0.5), ("zero", 5, 1.0),
     ("zero", 7, 1.0)],
)
def test_compile_estimate_bounds_the_traced_compile_and_chunk(function, dim, eps):
    # the four networks above and the zero function, whose 0-wide layers build no dense
    # block, at d = 5 and 7 (720 and 40,320 pieces).  compile_bytes is at least the traced
    # peak of compile_pwl, G built afresh, and of one 128-row chunk through the network it
    # returns, with the (128, m) result (one check slice's arrays hold it) and 4 KiB a layer
    # for the Python objects of the layer, its blocks and the pass, which the estimate,
    # counting array bytes, leaves out
    spec = pwl.resolve_function(function)
    target = interpolate(spec.factory(dim), 1.0, pwl.fineness(eps, spec.lipschitz(dim, 1.0)), dim)
    points = np.random.default_rng(0).uniform(-2.0, 2.0, size=(networks.EVAL_CHUNK_ROWS, dim))
    pwl._origin_nodal_coefficients.cache_clear()
    peak = traced_peak(lambda: eval_network(compile_pwl(target), points))
    objects = 2**12 * pwl.compiled_depth(dim)
    assert peak <= pwl.compile_bytes(target) + 8 * points.shape[0] * target.output_dim + objects


def test_the_zero_function_compiles_at_d7(tmp_path):
    # no value is live, so the layers are 0 wide and build no dense block: only G and
    # one min tree of 40,320 inputs count, about 27 MB
    text = "function = zero\ndim = 7\nradius = 1\neps = 1\n"
    config = write_config(tmp_path / "exp.cfg", text)
    assert main(["compile", "--config", config, "--out", str(tmp_path / "out")]) == 0
    summary = json.loads((tmp_path / "out" / "compile_summary.json").read_text())
    assert (summary["depth"], summary["neurons"], summary["oracle_deviation"]) == (18, 14, 0.0)


def test_compile_that_would_exhaust_memory_exits_2(tmp_path, capsys, monkeypatch):
    # sin at d = 3, radius 8, eps 0.5: its CSR layers alone, 12 bytes a row and an
    # entry, would take more than the budget, so it stops before compile_pwl
    def never(*args, **kwargs):
        raise AssertionError("compile_pwl ran past the preflight")

    monkeypatch.setattr(cli, "compile_pwl", never)
    text = "function = sin\ndim = 3\nradius = 8\neps = 0.5\nsamples = 10\n"
    config = write_config(tmp_path / "exp.cfg", text)
    assert main(["compile", "--config", config, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    need = int(err.split("about ")[1].split(" bytes")[0])
    spec = pwl.resolve_function("sin")
    target = interpolate(spec.factory(3), 8.0, pwl.fineness(0.5, spec.lipschitz(3, 8.0)), 3)
    widths, nonzeros = pwl.compiled_layers(target)
    assert need > 12 * (sum(widths) + sum(nonzeros)) > cli.COMPILE_BYTES
    assert not (tmp_path / "out").exists()


# Runs ``python ARGS`` in a grandchild and prints its exit code and ru_maxrss.  A child's
# ru_maxrss starts from the RSS of the process it was forked or vforked from (Linux keeps
# the old mm's high-water mark across exec), so the test process's own pages would count;
# this launcher is small, so the grandchild's figure is its own run.
LAUNCH = """
import os, sys
pid = os.fork()
if pid == 0:
    os.execv(sys.executable, [sys.executable, *sys.argv[1:]])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def test_compile_at_d3_stays_in_bounded_memory(tmp_path):
    # sin at d = 3, radius 1, eps 0.5: 288k neurons on 12 vertex tiles.  Its whole run,
    # interpreter and numpy included, peaked at 276.6 MiB with full-width chunks and the
    # document held as Python lists; in tiles and slices it takes about 75 MiB
    text = "function = sin\ndim = 3\nradius = 1\neps = 0.5\nsamples = 3000\n"
    config = write_config(tmp_path / "exp.cfg", text)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    argv = [sys.executable, "-c", LAUNCH, "-m", "reluflow", "compile", "--config", config,
            "--out", str(tmp_path / "out")]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    code, peak = (int(word) for word in done.stdout.split()[-2:])
    assert code == 0
    assert peak < 128 * 1024  # KiB on Linux


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


def test_compile_checks_in_slices_of_one_stream_of_points(tmp_path, monkeypatch):
    # compile-d2's 5,000 check points are one slice; in 715 slices of 7 they are the same
    # points, so the summary and the network keep every byte
    text = "function = sin\ndim = 2\nradius = 1\neps = 0.5\nsamples = 5000\n"
    config = write_config(tmp_path / "exp.cfg", text)
    outputs = []
    for rows in (cli.CHECK_SLICE, 7):
        monkeypatch.setattr(cli, "CHECK_SLICE", rows)
        out = tmp_path / f"slice{rows}"
        assert main(["compile", "--config", config, "--out", str(out)]) == 0
        names = ("compile_summary.json", "network.json")
        outputs.append([(out / name).read_bytes() for name in names])
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[1][0])["oracle_deviation"] > 0.0


def test_a_nan_in_a_later_slice_exits_4(tmp_path, capsys, monkeypatch):
    # the largest squared gap is kept with np.max, which a NaN of any slice wins
    monkeypatch.setattr(cli, "CHECK_SLICE", 7)
    calls = []

    def nan_in_the_third_slice(f, x):
        calls.append(len(x))
        values = eval_pwl(f, x)
        return np.full_like(values, np.nan) if len(calls) == 3 else values

    monkeypatch.setattr(cli, "eval_pwl", nan_in_the_third_slice)
    text = "function = sin\nradius = 1\neps = 0.5\nsamples = 30\n"
    config = write_config(tmp_path / "exp.cfg", text)
    assert main(["compile", "--config", config, "--out", str(tmp_path / "out")]) == 4
    assert calls == [7, 7, 7, 7, 2]
    err = capsys.readouterr().err
    assert err.startswith("error: compiled network deviates from the interpolation oracle by nan")


@pytest.mark.parametrize(
    "doc,message",
    [({"dim": 1, "h": 1.0, "r": 1.0}, "field 'values' is missing"),
     ({"dim": 1, "h": 1.0, "r": 1.0, "values": 3}, "field 'values' is 3, not a list"),
     ([1, 2], "a PWL document is a JSON object, not list"),
     ({"dim": 1, "h": 10**400, "r": 1.0, "values": [{"vertex": [0], "value": [1.0]}]},
      "field 'h' is an integer past the float range, not a number"),
     ({"dim": 1, "h": 1.0, "r": 1.0, "values": [{"vertex": [0], "value": [10**400]}]},
      "field 'values': int too large to convert to float")],
    ids=["no-values", "values-3", "list", "h-past-float", "value-past-float"],
)
def test_a_malformed_pwl_file_exits_2(tmp_path, capsys, doc, message):
    (tmp_path / "f.json").write_text(json.dumps(doc))
    config = write_config(tmp_path / "exp.cfg", f"pwl_file = {tmp_path / 'f.json'}\n")
    assert main(["compile", "--config", config, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot load PWL file {tmp_path / 'f.json'}: {message}")
    assert len(err.splitlines()) == 1


def test_compile_of_the_zero_function_has_full_depth_and_no_neurons(tmp_path):
    config = write_config(tmp_path / "exp.cfg", "function = zero\ndim = 2\nradius = 1\n")
    assert main(["compile", "--config", config, "--out", str(tmp_path / "out")]) == 0
    summary = json.loads((tmp_path / "out" / "compile_summary.json").read_text())
    # depth ceil(log2 3!) + 2; the neurons are the 2 inputs and the 2 outputs
    assert summary["depth"] == 5 and summary["neurons"] == 4
    assert summary["free_weights"] == 0 and summary["oracle_deviation"] == 0.0
