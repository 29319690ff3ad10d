"""Benchmark of the reluflow experiment harness.

    python3 -m bench.run --workload convergence-d1 --seed 1 --seconds 40 --trace 0

Run from the repository root.  The program is the package under
``src/``; without it the benchmark exits with code 2 and prints no
result.  One client runs one experiment at a time (a closed loop), each
in a fresh child process with ``--threads 1`` and one BLAS thread, a
fixed number of times per workload unless the next one would end after
``--seconds``; at least one always runs.
A child that outlives its time cap is killed and counted as a timeout.
The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

Workloads (the shares are self-time shares from the traced run).  Each
experiment takes 2-4 s of CPU on a 2-core Xeon VM, so a run holds
several (Workload.repeats, fewer if they would not fit) and reports
their median.

* ``convergence-d1`` - ``convergence``, rhs=sin, d=1, n = 8, 16, 32,
  33 times x 41 points.  Compile-bound: pwl.compile_pwl 78%,
  networks.eval_network 11%, ode.reference_solve 4%.  Every CLI rhs is
  autonomous, so all 56 blocks are the same time slice: 100% of the
  slices repeat, and a compile dedupe shows here.
* ``shared-d2`` - ``shared``, rhs=sin, d=2, one piece, k = 2, 4, 8,
  9 x 9 points, 17 times.  Evaluation-bound: networks.eval_network 69%,
  pwl.compile_pwl 20%, ode.reference_solve 8%.  It compiles once per k
  already, so a compile dedupe should leave it flat; active-set
  evaluation, node-state reuse and a batched RK4 show here.
* ``compile-d2`` - ``compile``, sin, d=2, radius 1, eps 0.5, 5000
  samples, then ``load_network`` on the written 9 MB network.json.
  File-format-bound: networks.save_network 65%, networks.load_network
  13%, networks.eval_network 6%, grid and eval_pwl 13%.  A format change
  that saves faster but evaluates slower gains here and regresses on
  shared-d2.

Left out until they finish at all: ``convergence`` at the d=2 defaults
(killed at 3.6 GB), ``compile`` at d=3 (the save asks for 4 TiB) and
``complexity`` with rhs=zero (ValueError).

An operation is one n, one k, or the compile plus round trip.  It fails
on a nonzero exit, a timeout or a failed output check (see
``bench.worker``); fail_frac = failed / attempted is printed with the
human-readable lines and carried by ``attempted``/``failed``.

End-to-end metrics (``--trace 0``, tracing off), each the median over
the run's experiments whose operations all passed:

* work_s - the experiment call, plus the reload for compile-d2: its CPU
  time (user plus system; one thread, so on a quiet host it equals the
  wall time) rescaled to a quiet host.  Each child runs pinned to one
  CPU beside ``bench.yardstick``, a fixed CPU loop, and the factor is
  REFERENCE_CHUNK_S over the loop's mean chunk CPU time during the same
  span.  The host's speed drifts by 10-60% within tens of seconds, and
  raw wall or CPU times drift with it (they track each other, so it is
  not steal time); over 17-18 experiments per workload the per-experiment
  spread (coefficient of variation) was 0.08-0.13 raw and 0.02-0.035
  rescaled.  The yardstick takes half of that CPU, so an experiment's
  wall time is about twice its CPU time; the other CPU is left free.
* setup_s - child start until reluflow is imported and the config
  loaded: the child's CPU time up to then, rescaled the same way.
* peak_rss_mb, sup_error (at the largest n or k; for compile-d2 the
  network against sin at the sample points inside the cube) and
  output_bytes (the data files the experiment writes).

Per-layer metrics (``--trace 1``) are medians over traced children, each
following an untraced one; their times are the spans' CPU times,
rescaled like work_s.  ``trace.overhead_s`` is the traced minus the
untraced work_s, and ``host.slowdown`` the yardstick's mean chunk time
over REFERENCE_CHUNK_S (1 on a quiet host).  Which end-to-end metric
each should move:

* pwl.compile_pwl.*, pwl.interpolate.*: work_s on convergence-d1; a
  little on shared-d2; none on compile-d2.
* resnet.build.* (reuse = 1 - compiles / blocks): work_s on
  convergence-d1 only.
* networks.eval_network.* (flops = 2 nnz rows; act_bytes and
  peak_act_mb = rows x layer width x 8, computed): work_s and peak_rss_mb
  on shared-d2; less on convergence-d1 and compile-d2.
* resnet.eval_resnet.* (block_evals: eval_network calls directly inside
  it): work_s on shared-d2.
* ode.reference_solve.* (steps and halvings from the returned mesh):
  work_s on shared-d2, about 1% of convergence-d1.
* networks.save_network.*, networks.load_network.*: work_s, peak_rss_mb
  and output_bytes on compile-d2 only.
* pwl.eval_pwl.*, grid.locate.*, grid.barycentric.*: work_s on
  compile-d2.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from .tracing import LAYER_UNITS

ROOT = Path(__file__).resolve().parents[1]

END_TO_END_UNITS = {
    "work_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "sup_error": "1",
    "output_bytes": "B",
}
PER_LAYER_UNITS = {**LAYER_UNITS, "trace.overhead_s": "s", "host.slowdown": "ratio"}

CHILD_CAP_S = 120.0  # a child running longer is killed and counted as a timeout
RUN_CAP_S = 170.0  # no child may run past this point of the whole run
# CPU time of one yardstick chunk on a quiet 2.1 GHz Xeon VM; a fixed
# constant, so that work_s reads in seconds and compares across runs
REFERENCE_CHUNK_S = 0.00125


@dataclass(frozen=True)
class Workload:
    command: str
    config: dict
    operations: int  # one per n, per k, or the compile plus round trip
    repeats: int  # experiments per run (pairs of them with --trace 1)


WORKLOADS = {
    "convergence-d1": Workload("convergence", {"rhs": "sin", "dim": 1, "n_list": "8,16,32"}, 3, 4),
    "shared-d2": Workload(
        "shared",
        {"rhs": "sin", "dim": 2, "pieces": 1, "k_list": "2,4,8", "space_samples": 9, "time_samples": 17},
        3,
        4,
    ),
    "compile-d2": Workload(
        "compile",
        {"function": "sin", "dim": 2, "radius": 1, "eps": 0.5, "samples": 5000},
        1,
        6,
    ),
}


def host_factor(records: list, begin: float, end: float) -> float | None:
    """REFERENCE_CHUNK_S over the mean CPU time of the yardstick chunks
    centred in [begin, end] (monotonic clock); None without any."""
    chunks = [cpu for start, stop, cpu in records if begin <= (start + stop) / 2 <= end]
    return REFERENCE_CHUNK_S / statistics.fmean(chunks) if chunks else None


def run_child(workload: Workload, work: Path, seed: int, cap: float, *, trace=False) -> dict:
    """Run bench.worker once beside the yardstick; return its result with
    the rescaled times (work_s, setup_s) and one failure entry per operation."""
    out, result_path = work / "out", work / "result.json"
    shutil.rmtree(out, ignore_errors=True)
    result_path.unlink(missing_ok=True)
    argv = [
        sys.executable, "-m", "bench.worker",
        "--command", workload.command,
        "--config", str(work / "experiment.cfg"),
        "--out", str(out),
        "--seed", str(seed),
        "--result", str(result_path),
    ]
    if trace:
        argv += ["--trace", str(work / f"spans-seed{seed}.json")]
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    pin = functools.partial(os.sched_setaffinity, 0, {max(os.sched_getaffinity(0))})
    with open(work / "worker.log", "ab") as log:
        stick = subprocess.Popen(
            [sys.executable, "-m", "bench.yardstick"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=log, preexec_fn=pin,
        )
        try:
            stick.stdout.readline()
            started = time.monotonic()
            proc = subprocess.Popen(
                argv, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT, preexec_fn=pin
            )
            try:
                code = proc.wait(timeout=cap)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                code = None
        finally:
            stick.terminate()
            try:
                records = json.loads(stick.communicate(timeout=10)[0] or b"[]")
            except (subprocess.TimeoutExpired, ValueError):
                stick.kill()
                stick.wait()
                records = []
    result = json.loads(result_path.read_text()) if code == 0 and result_path.exists() else {}
    shutil.rmtree(out, ignore_errors=True)
    if "ready" in result:
        factor = host_factor(records, started, result["ready"])
        result["setup_s"] = factor and result["setup_cpu_s"] * factor
    if "cpu_s" in result:
        factor = host_factor(records, result["start"], result["end"])
        if factor:
            result["work_s"] = result["cpu_s"] * factor
            result["slowdown"] = 1 / factor
            layers = result.get("layers", {})
            result["layers"] = {k: v * factor if k.endswith("_s") else v for k, v in layers.items()}
    if code is None:
        reason = f"timeout after {cap:.0f} s"
    elif code != 0 or result.get("exit", 0) != 0:
        reason = f"exit code {code or result['exit']}"
    else:
        reason = None
    if not result.get("failures"):
        result["failures"] = [reason or "no result"] * workload.operations
    result["trace"] = trace
    return result


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def summarize(children: list, trace: bool) -> dict:
    """The result object: operation counts and the metric values, taken
    only from the children whose operations all passed."""
    failures = [f for child in children for f in child["failures"]]
    failed = sum(f is not None for f in failures)
    clean = [c for c in children if all(f is None for f in c["failures"])]
    plain = [c for c in clean if not c["trace"]]
    if trace:
        traced = [c for c in clean if c["trace"] and "layers" in c]
        values = {name: _median(c["layers"][name] for c in traced) for name in LAYER_UNITS}
        traced_work = _median(c.get("work_s") for c in traced)
        plain_work = _median(c.get("work_s") for c in plain)
        values["trace.overhead_s"] = (
            None if traced_work is None or plain_work is None else traced_work - plain_work
        )
        values["host.slowdown"] = _median(c.get("slowdown") for c in clean)
        units = PER_LAYER_UNITS
    else:
        values = {name: _median(c.get(name) for c in plain) for name in END_TO_END_UNITS}
        units = END_TO_END_UNITS
    return {
        "correct": failed == 0 and None not in values.values(),
        "attempted": len(failures),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def main(argv=None, workloads=WORKLOADS, workdir: Path | None = None) -> int:
    parser = argparse.ArgumentParser(prog="bench.run", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "reluflow" / "__init__.py").is_file():
        print(f"error: no reluflow package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = workloads[args.workload]
    trace = bool(args.trace)
    work = workdir or ROOT / ".bench_run" / args.workload
    work.mkdir(parents=True, exist_ok=True)
    (work / "experiment.cfg").write_text(
        "".join(f"{key} = {value}\n" for key, value in workload.config.items())
    )

    begin = time.monotonic()

    def cap() -> float:
        return min(CHILD_CAP_S, RUN_CAP_S - (time.monotonic() - begin))

    children: list = []
    longest = 0.0
    for _ in range(workload.repeats):
        unit_start = time.monotonic()
        unit = [run_child(workload, work, args.seed, cap())]
        if trace:
            unit.append(run_child(workload, work, args.seed, cap(), trace=True))
        children += unit
        longest = max(longest, time.monotonic() - unit_start)
        if any("cpu_s" not in c for c in unit):
            break  # a crash or timeout: do not spend the remaining time on more
        if time.monotonic() - begin + longest > args.seconds:
            break

    for i, child in enumerate(children, start=1):
        bad = [f for f in child["failures"] if f is not None]
        kind = "traced" if child["trace"] else "plain"
        print(
            f"{args.workload} experiment {i} ({kind}): work_s={child.get('work_s')} "
            f"wall_s={child.get('wall_s')} cpu_s={child.get('cpu_s')} "
            f"setup_s={child.get('setup_s')} failed {len(bad)}/{len(child['failures'])}"
        )
        for reason in bad:
            print(f"  failed: {reason}")
    summary = summarize(children, trace)
    for name, metric in summary["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']} {metric['unit']}")
    print(
        f"{args.workload} fail_frac = {summary['failed']}/{summary['attempted']} "
        f"= {summary['failed'] / summary['attempted']:.3f}"
    )
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
