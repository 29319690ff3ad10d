"""One experiment in a fresh process: set up, run, check, report.

    python3 -m bench.worker --command convergence --config exp.cfg \
        --out out/ --seed 1 --result result.json [--trace spans.json]

Set-up is importing ``reluflow`` and loading the config; its end goes
into the result as ``ready`` (monotonic clock) with ``setup_cpu_s``, the
process's CPU time up to then.  The experiment is
``reluflow <command> --threads 1`` called in-process through
``cli.main``; for ``compile`` it also reloads the written network.  Its
monotonic ``start`` and ``end``, its wall time and its CPU time
(``cpu_s``, user plus system) go into the result, so the parent can
rescale the CPU times by the host speed measured over the same span.  Output checks run after the timed region and produce one entry
per operation (one n, one k, or the compile plus round trip): ``None``
when it passed, else the reason.  With ``--trace`` the layer functions
are wrapped during the timed region and the spans are written to the
given file.
"""

from __future__ import annotations

import argparse
import csv
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

from .tracing import COMMAND_SPAN, Tracer

SRC = Path(__file__).resolve().parents[1] / "src"


def _read_csv(path) -> list:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def check_convergence(cfg, out: Path) -> tuple[list, float | None]:
    """sup_error <= apriori_bound on every row; fitted slope within 0.1 of -1."""
    rows = {int(r["n"]): r for r in _read_csv(out / "convergence.csv")}
    slope = json.loads((out / "convergence_summary.json").read_text())["slope"]
    failures = []
    for n in cfg.n_list:
        if n not in rows:
            failures.append(f"n={n}: no row in convergence.csv")
            continue
        sup, bound = float(rows[n]["sup_error"]), float(rows[n]["apriori_bound"])
        failures.append(None if sup <= bound else f"n={n}: sup_error {sup!r} > apriori_bound {bound!r}")
    if slope is None or abs(slope + 1.0) > 0.1:
        failures = [f or f"fitted slope {slope} is not within 0.1 of -1" for f in failures]
    last = rows.get(cfg.n_list[-1])
    return failures, None if last is None else float(last["sup_error"])


def check_shared(cfg, out: Path) -> tuple[list, float | None]:
    """distinct_params equals the declared pieces; sup_error strictly decreasing in k."""
    rows = {int(r["k"]): r for r in _read_csv(out / "shared.csv")}
    failures = []
    previous = None
    for k in cfg.k_list:
        if k not in rows:
            failures.append(f"k={k}: no row in shared.csv")
            previous = None
            continue
        problems = []
        distinct, sup = int(rows[k]["distinct_params"]), float(rows[k]["sup_error"])
        if distinct != cfg.pieces:
            problems.append(f"distinct_params {distinct} != {cfg.pieces}")
        if previous is not None and not sup < previous:
            problems.append(f"sup_error {sup!r} does not drop below {previous!r}")
        failures.append(f"k={k}: " + "; ".join(problems) if problems else None)
        previous = sup
    last = rows.get(cfg.k_list[-1])
    return failures, None if last is None else float(last["sup_error"])


def check_compile(cfg, out: Path, seed: int, compiled, loaded) -> tuple[list, float]:
    """Oracle deviation within its threshold; the reloaded network's forward
    pass equals the compiled one bit for bit on the command's sample points.

    The returned sup error is that of the network against the target
    function at the sample points inside the interpolation cube.
    """
    from reluflow.networks import eval_network_batched
    from reluflow.pwl import resolve_function

    summary = json.loads((out / "compile_summary.json").read_text())
    problems = []
    if not summary["oracle_deviation"] <= summary["deviation_threshold"]:
        problems.append(
            f"oracle_deviation {summary['oracle_deviation']!r} > "
            f"deviation_threshold {summary['deviation_threshold']!r}"
        )
    # the same points cmd_compile draws: uniform on the cube grown by 1
    span = cfg.radius + 1.0
    points = np.random.default_rng(seed).uniform(-span, span, size=(cfg.samples, cfg.dim))
    expected = eval_network_batched(compiled, points)
    got = eval_network_batched(loaded, points)
    if not np.array_equal(expected, got):
        gap = float(np.abs(expected - got).max()) if expected.shape == got.shape else "shape"
        problems.append(f"save/load round trip changes the forward pass (max gap {gap})")
    inside = np.all(np.abs(points) <= cfg.radius, axis=1)
    target = resolve_function(cfg.function).factory(cfg.dim)
    sup = float(np.linalg.norm(got[inside] - target(points[inside]), axis=1).max())
    return ["; ".join(problems) if problems else None], sup


def run_experiment(command: str, config: str, cfg, out: Path, seed: int, spans_path=None) -> dict:
    """Time one experiment, then check its outputs; see the module docstring."""
    from reluflow import cli, networks

    tracer = Tracer(f"{command}-{seed}") if spans_path else None
    if tracer:
        tracer.install()
    kept = []  # the networks cmd_compile saves, for the round-trip check
    save = cli.save_network

    def keep_and_save(net, path):
        kept.append(net)
        save(net, path)

    cli.save_network = keep_and_save
    argv = [command, "--config", config, "--out", str(out), "--seed", str(seed), "--threads", "1"]
    loaded = None
    try:
        start, cpu = time.monotonic(), time.process_time()
        if tracer:
            with tracer.span(COMMAND_SPAN):
                code = cli.main(argv)
        else:
            code = cli.main(argv)
        if code == 0 and command == "compile":
            loaded = networks.load_network(out / "network.json")
        cpu, end = time.process_time() - cpu, time.monotonic()
    finally:
        cli.save_network = save
        if tracer:
            tracer.uninstall()
    result = {
        "start": start,
        "end": end,
        "wall_s": end - start,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "exit": code,
    }
    if tracer:
        result["layers"] = tracer.layer_metrics()
        tracer.write(spans_path)
    if code != 0:
        result["failures"] = None
        return result
    if command == "convergence":
        failures, sup = check_convergence(cfg, out)
    elif command == "shared":
        failures, sup = check_shared(cfg, out)
    else:
        failures, sup = check_compile(cfg, out, seed, kept[-1], loaded)
    result["failures"] = failures
    result["sup_error"] = sup
    result["output_bytes"] = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench.worker")
    parser.add_argument("--command", required=True, choices=("convergence", "shared", "compile"))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", default=None, help="write spans to this file")
    args = parser.parse_args(argv)

    from reluflow import cli

    cfg = cli.load_config(args.config, args.command)
    result = {"setup_cpu_s": time.process_time(), "ready": time.monotonic()}
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: reluflow imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    result.update(run_experiment(args.command, args.config, cfg, Path(args.out), args.seed, args.trace))
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
