"""Command-line experiment harness.

Four commands, named by the first argument, all with the same options and all
driven by a flat key=value config file:

* ``convergence`` - build residual networks for a list of block counts,
  measure the sup error against the reference solver on a (t, y) grid,
  fit the log-log rate and write ``convergence.csv`` plus a summary JSON.
* ``complexity`` - per-block size accounting against the growth of the
  approximation cube; writes ``complexity.csv``.
* ``compile`` - compile a PWL file or a named function to a network,
  verify it against the interpolation oracle at ``samples`` check points
  drawn CHECK_SLICE at a time from ``random.Random(seed)``, write ``network.json``.
* ``shared`` - weight-sharing builds for piecewise-constant-in-time
  right-hand sides; writes ``shared.csv``.

Exit codes: 0 ok, 2 bad config, a lattice, sample grid or network over its
memory budget, or outputs that cannot be written, 3
reference-solver failure (no convergence, or over its memory budget), 4 failed
verification.  One human-readable line goes to stdout; data goes to files.
Identical configs reproduce byte-identical outputs; only ``compile`` reads the
seed.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .networks import BUDGET_BYTES, complexity, eval_network_batched, save_network
from .ode import OracleConvergenceError, RhsSpec, reference_solve, uniforms
from .pwl import REGISTRY, compile_bytes, compile_pwl, compiled_complexity, eval_pwl
from .pwl import eval_pwl_bytes, fineness, interpolate, lattice_bytes, load_pwl, resolve_function
# build_shared_resnet stays importable here: the benchmark's tracer rebinds cli.build_shared_resnet
from .resnet import build_resnet, build_shared_resnet, eval_resnet, shared_accuracy  # noqa: F401

__all__ = [
    "ConfigError",
    "VerificationError",
    "ExperimentConfig",
    "load_config",
    "cmd_convergence",
    "cmd_complexity",
    "cmd_compile",
    "cmd_shared",
    "main",
]


COMPILE_BYTES = BUDGET_BYTES  # per lattice, sample grid and compiled network
CHECK_SLICE = 16_384  # compile's check points drawn and compared at once


class ConfigError(Exception):
    """Invalid or unparsable experiment configuration (exit code 2)."""


class VerificationError(Exception):
    """A posteriori verification failed (exit code 4)."""


# ---------------------------------------------------------------------------
# configuration


def _int_list(text: str) -> tuple:
    return tuple(int(tok) for tok in text.split(","))


def _key(default, parse, *commands):
    """A config key: its default, the parser of its value and the commands that read it."""
    return field(default=default, metadata={"parse": parse, "commands": commands})


# growth of the cube radius r_n from its base with the block count n
_RN_RULES = {
    "fixed": lambda base, n: base,
    "log": lambda base, n: base + math.log(n),
    "sqrt": lambda base, n: base * math.sqrt(n),
}


@dataclass
class ExperimentConfig:
    """Parsed experiment parameters; see the README for the key reference."""

    rhs: str = _key("sin", str, "convergence", "complexity", "shared")
    dim: int = _key(1, int, "convergence", "complexity", "compile", "shared")
    cube_radius: float = _key(1.0, float, "convergence", "shared")
    time_samples: int = _key(33, int, "convergence", "shared")
    space_samples: int = _key(41, int, "convergence", "shared")
    n_list: tuple = _key((8, 16, 32, 64), _int_list, "convergence", "complexity")
    k_list: tuple = _key((2, 4, 8, 16), _int_list, "shared")
    pieces: int | None = _key(None, int, "convergence", "shared")
    rn_rule: str = _key("fixed", str, "convergence", "complexity")
    rn_value: float | None = _key(None, float, "convergence", "complexity")
    block_accuracy_scale: float = _key(1.0, float, "convergence", "complexity")
    oracle_tol: float = _key(1e-8, float, "convergence", "shared")
    seed: int = _key(0, int, "compile")
    pwl_file: str | None = _key(None, str, "compile")
    function: str | None = _key(None, str, "compile")
    radius: float | None = _key(None, float, "compile", "shared")
    eps: float = _key(0.1, float, "compile")
    samples: int = _key(10000, int, "compile")

    def validate(self, command: str) -> None:
        if not 1 <= self.dim <= sys.float_info.max:  # the rhs constants take sqrt(dim)
            raise ConfigError(f"dim must be a positive integer up to {sys.float_info.max:g}")
        if self.time_samples < 2 or self.space_samples < 2:
            raise ConfigError("sample counts must be at least 2")
        if not self.n_list or any(b <= a for a, b in zip(self.n_list, self.n_list[1:])):
            raise ConfigError("n_list must be nonempty and strictly ascending")
        if not self.k_list or any(b <= a for a, b in zip(self.k_list, self.k_list[1:])):
            raise ConfigError("k_list must be nonempty and strictly ascending")
        if any(n < 1 for n in self.n_list) or any(k < 1 for k in self.k_list):
            raise ConfigError("n_list and k_list entries must be positive")
        if self.rhs not in REGISTRY:
            raise ConfigError(f"rhs must be one of: {', '.join(REGISTRY)}")
        if self.rn_rule not in _RN_RULES:
            raise ConfigError(f"rn_rule must be one of: {', '.join(_RN_RULES)}")
        if not self.oracle_tol > 0.0:
            raise ConfigError("oracle_tol must be positive")
        for name in ("cube_radius", "rn_value", "radius", "block_accuracy_scale"):
            value = getattr(self, name)
            if value is not None and not 0.0 < value < math.inf:
                raise ConfigError(f"{name} must be positive and finite, not {value!r}")
        if self.pieces is not None and self.pieces < 1:
            raise ConfigError("pieces must be a positive integer")
        if self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, not {self.seed}")
        if command == "compile":
            if (self.pwl_file is None) == (self.function is None):
                raise ConfigError("compile needs exactly one of pwl_file or function")
            if self.function is not None and self.radius is None:
                raise ConfigError("compile from a function needs a radius")
            if not self.eps > 0.0:
                raise ConfigError("eps must be positive")
            if self.samples < 1:
                raise ConfigError("samples must be positive")
        if command == "shared" and self.pieces is None:
            raise ConfigError(
                "shared experiments need `pieces = <int>` declaring the "
                "piecewise-constant time structure of the rhs"
            )


def parse_config_text(text: str) -> dict:
    """Parse flat `key = value` lines; # starts a comment line."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected `key = value`, got {raw!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def load_config(path, command: str) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    raw = parse_config_text(text)
    keys = {f.name: f.metadata for f in fields(ExperimentConfig)}
    cfg = ExperimentConfig()
    for key, value in raw.items():
        if key not in keys:
            raise ConfigError(f"unknown config key {key!r}")
        if command not in keys[key]["commands"]:
            raise ConfigError(f"config key {key!r} does not apply to `{command}`")
        try:
            setattr(cfg, key, keys[key]["parse"](value))
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}") from exc
    cfg.validate(command)
    return cfg


# ---------------------------------------------------------------------------
# shared helpers


def _rhs_from_config(cfg: ExperimentConfig) -> RhsSpec:
    spec = REGISTRY[cfg.rhs]
    g = spec.factory(cfg.dim)
    # g ignores t, so the rhs is constant on one piece unless the config says
    # otherwise: build_resnet then compiles a single block per n, with no time drift
    return RhsSpec(
        lambda t, x: g(x),
        cfg.dim,
        spec.bound(cfg.dim, math.inf),
        spec.lipschitz(cfg.dim, math.inf),
        piecewise_constant_pieces=cfg.pieces if cfg.pieces is not None else 1,
    )


def _check_lattice(r: float, delta: float, dim: int) -> None:
    """ConfigError if the lattice of fineness delta on [-r, r]^d outgrows COMPILE_BYTES."""
    what = f"the interpolation lattice of radius {r:g} and fineness {delta:g}"
    _check_budget(what, lattice_bytes(r, delta, dim))


def _check_budget(what: str, need) -> None:
    """ConfigError naming the bytes (an integer in full) if ``need`` outgrows COMPILE_BYTES."""
    if need > COMPILE_BYTES:
        shown = need if isinstance(need, int) else f"{need:.3g}"
        raise ConfigError(
            f"{what} would need about {shown} bytes, over the budget of {COMPILE_BYTES}"
        )


def _grid_bytes(side, dim: int, item_bytes: int) -> float:
    """side^dim items of item_bytes each, counted in floats: past their range, infinite."""
    try:
        return float(side) ** dim * item_bytes
    except OverflowError:
        return math.inf


def _plan(cfg: ExperimentConfig, command: str, threads: int = 1) -> tuple:
    """The rhs of a ResNet command and its builds, each (n or k, steps, cube radius,
    block accuracy), once they pass every budget check.  The rhs is a REGISTRY entry,
    whose declared constants the tests pin, so it is not sampled here.

    The checks run before anything is drawn: the lattice of every block, then for
    ``convergence`` and ``shared`` the sample grid.  A sample point holds, at most at
    once, d floats for itself and at each sample time for its reference table, which
    every build reads.  Each of the min(threads, builds) builds with the most steps,
    which may run at once, holds in ``_sup_error`` d floats at each of its node times, d
    at each sample time for eval_resnet's result and one for the sum of its squared gaps,
    and an Euler step: its state, step and sum (3d) and eval_pwl's arrays."""
    rhs = _rhs_from_config(cfg)
    # shared reads `radius` and the others `rn_value`, so the other one is None.  The
    # default keeps every trajectory started in the test cube strictly inside the
    # approximation cube: states stay within |y| + c
    given = cfg.rn_value if cfg.rn_value is not None else cfg.radius
    base = given if given is not None else max(4.0, cfg.cube_radius + rhs.bound_c + 1.0)
    if command == "shared":
        builds = [(k, k * cfg.pieces, base, shared_accuracy(rhs, k)) for k in cfg.k_list]
    else:
        rule = _RN_RULES[cfg.rn_rule]
        builds = [(n, n, rule(base, n), cfg.block_accuracy_scale / n) for n in cfg.n_list]
    for _, _, r, accuracy in builds:
        _check_lattice(r, fineness(accuracy, rhs.lipschitz_L), cfg.dim)
    if command != "complexity":
        d, times = cfg.dim, cfg.time_samples
        running = sorted(b[1] for b in builds)[-threads:]  # the step counts of the longest
        item = 8 * d * (times + 1) + sum(
            8 * (d * (times + steps + 4) + times) + eval_pwl_bytes(d, d) for steps in running
        )
        what = f"{cfg.space_samples}^{d} sample points at {times} times after {running[-1]} steps"
        if len(running) > 1:
            what += f", {len(running)} builds at once"
        _check_budget(what, _grid_bytes(cfg.space_samples, d, item))
    return rhs, builds


def _oracle(cfg: ExperimentConfig, rhs: RhsSpec) -> tuple:
    """The sample times and points, and the reference states at them: (times, points, table)."""
    times = [i / (cfg.time_samples - 1) for i in range(cfg.time_samples)]
    axis = np.linspace(-cfg.cube_radius, cfg.cube_radius, cfg.space_samples)
    mesh = np.meshgrid(*([axis] * cfg.dim), indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=1)
    # reference_solve aligns the mesh to the time pieces itself
    table = reference_solve(rhs, points, cfg.oracle_tol, initial_steps=len(times) - 1).at(times)
    return times, points, table


def _sup_error(net, times, points: np.ndarray, table: np.ndarray) -> float:
    # in place: np.linalg.norm would copy the gaps twice.  The sqrt of the most is the most
    # of the sqrts, as the norms are sqrt(sum(g * g)) row by row
    gaps = eval_resnet(net, times, points)
    gaps -= table
    gaps *= gaps
    return float(np.sqrt(gaps.sum(axis=-1).max()))


def _fit_slope(ns, errors) -> float | None:
    pairs = [(n, e) for n, e in zip(ns, errors) if e > 0.0]
    if len(pairs) < 2:
        return None
    logs_n, logs_e = np.log(pairs).T
    return float(np.polyfit(logs_n, logs_e, 1)[0])


def _map_ordered(fn, items, threads: int) -> list:
    if threads > 1:
        # imported here: concurrent.futures loads logging, queue and more for this path only
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def _format_cell(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(_format_cell(v) for v in row) + "\n")


def _write_json(path, payload) -> None:
    with open(path, "w", newline="\n") as handle:
        json.dump(payload, handle, sort_keys=True, indent=2)
        handle.write("\n")


def _config_echo(cfg: ExperimentConfig, command: str) -> dict:
    # json writes the tuples of n_list and k_list as lists
    return {f.name: getattr(cfg, f.name) for f in fields(cfg) if command in f.metadata["commands"]}


# ---------------------------------------------------------------------------
# commands


def cmd_convergence(cfg: ExperimentConfig, out_dir: Path, threads: int = 1) -> list:
    rhs, builds = _plan(cfg, "convergence", threads)
    times, points, table = _oracle(cfg, rhs)

    def run_one(build) -> list:
        n, steps, r_n, accuracy = build
        net, bound = build_resnet(rhs, steps, r_n, accuracy)
        blocks = [compiled_complexity(block) for block in net.pool]
        sup = _sup_error(net, times, points, table)
        return [
            n,
            sup,
            bound,
            max(r.neurons for r in blocks),
            max(r.depth for r in blocks),
            max(r.free_weights for r in blocks),
        ]

    rows = _map_ordered(run_one, builds, threads)
    ns, errors, bounds = ([row[i] for row in rows] for i in range(3))
    slope = _fit_slope(ns, errors)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out_dir / "convergence.csv",
        ["n", "sup_error", "apriori_bound", "block_neurons", "block_depth", "free_weights"],
        rows,
    )
    _write_json(
        out_dir / "convergence_summary.json",
        {
            "slope": slope,
            "n": ns,
            "sup_error": errors,
            "apriori_bound": bounds,
            "config": _config_echo(cfg, "convergence"),
        },
    )
    slope_text = "n/a" if slope is None else f"{slope:.3f}"
    print(
        f"convergence: rhs={cfg.rhs} d={cfg.dim} n={cfg.n_list[0]}..{cfg.n_list[-1]} "
        f"slope={slope_text} -> {out_dir / 'convergence.csv'}"
    )
    return rows


def cmd_complexity(cfg: ExperimentConfig, out_dir: Path, threads: int = 1) -> list:
    rhs, builds = _plan(cfg, "complexity")

    def run_one(build) -> list:
        n, steps, rn, accuracy = build
        # the rhs has one time piece, so every step shares the one pool entry
        block = compiled_complexity(build_resnet(rhs, steps, rn, accuracy)[0].pool[0])
        bound_const = block.neurons / (rn**cfg.dim * n**cfg.dim)
        return [n, rn, block.neurons, block.depth, block.free_weights, bound_const]

    rows = _map_ordered(run_one, builds, threads)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out_dir / "complexity.csv",
        ["n", "r_n", "neurons", "depth", "free_weights", "bound_const"],
        rows,
    )
    constants = [row[5] for row in rows]
    # blocks with no live values (rhs zero) have 2d neurons at every n: no growth to check
    ratio = max(constants) / min(constants) if any(row[4] for row in rows) else None
    ratio_text = "n/a" if ratio is None else f"{ratio:.3f}"
    print(
        f"complexity: rhs={cfg.rhs} d={cfg.dim} rule={cfg.rn_rule} "
        f"const-ratio={ratio_text} -> {out_dir / 'complexity.csv'}"
    )
    if ratio is not None and ratio > 4.0:
        raise VerificationError(
            f"neurons / (r_n^d n^d) varies by factor {ratio:.3f} > 4 across n_list"
        )
    return rows


def cmd_compile(cfg: ExperimentConfig, out_dir: Path, threads: int = 1) -> dict:
    if cfg.pwl_file is not None:
        try:
            target = load_pwl(cfg.pwl_file)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load PWL file {cfg.pwl_file}: {exc}") from exc
    else:
        try:
            spec = resolve_function(cfg.function)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        # a polynomial may overflow on a wide cube: its non-finite samples are refused
        with np.errstate(over="ignore", invalid="ignore"):
            delta = fineness(cfg.eps, spec.lipschitz(cfg.dim, cfg.radius))
            _check_lattice(cfg.radius, delta, cfg.dim)
            try:
                target = interpolate(spec.factory(cfg.dim), cfg.radius, delta, cfg.dim)
            except ValueError as exc:
                raise ConfigError(f"cannot interpolate {cfg.function}: {exc}") from exc
    # the value norm sets the threshold and compile_pwl weighs the first layer |c| * (1 / h)
    with np.errstate(over="ignore"):
        norm = target.max_value_norm
        weight = np.abs(target.values).max() * (1.0 / target.grid.cell_size)
    if not math.isfinite(norm):
        raise ConfigError("the norm of the target's values overflows the float range")
    if not math.isfinite(weight):
        raise ConfigError("the target's first-layer weights |c|/h overflow the float range")
    what = "the compiled network (CSR layers, their dense blocks and one 128-row chunk of a tile)"
    _check_budget(what, compile_bytes(target))
    net = compile_pwl(target)
    report = complexity(net)
    rng, span, d = random.Random(cfg.seed), target.cube_radius + 1.0, target.grid.dim
    worst = 0.0
    for start in range(0, cfg.samples, CHECK_SLICE):
        rows = min(CHECK_SLICE, cfg.samples - start)
        points = span * (2.0 * uniforms(rng, rows * d).reshape(rows, d) - 1.0)
        gaps = eval_network_batched(net, points) - eval_pwl(target, points)
        # g @ g per row is the dot product np.linalg.norm takes of one vector; np.max keeps a NaN
        worst = np.max([worst, (gaps[:, None, :] @ gaps[:, :, None]).max()])
    deviation = float(np.sqrt(worst))
    threshold = 1e-9 * (1.0 + norm)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_network(net, out_dir / "network.json")
    summary = {
        "dim": target.grid.dim,
        "output_dim": target.output_dim,
        "degrees_of_freedom": target.degrees_of_freedom,
        "depth": report.depth,
        "neurons": report.neurons,
        "nonzero_weights": report.nonzero_weights,
        "free_weights": report.free_weights,
        "oracle_deviation": deviation,
        "deviation_threshold": threshold,
        "samples": cfg.samples,
    }
    _write_json(out_dir / "compile_summary.json", summary)
    print(
        f"compile: d={target.grid.dim} depth={report.depth} neurons={report.neurons} "
        f"deviation={deviation:.3e} (limit {threshold:.3e}) -> {out_dir / 'network.json'}"
    )
    if not deviation <= threshold:
        raise VerificationError(
            f"compiled network deviates from the interpolation oracle by "
            f"{deviation:.3e} > {threshold:.3e}"
        )
    return summary


def cmd_shared(cfg: ExperimentConfig, out_dir: Path, threads: int = 1) -> list:
    rhs, builds = _plan(cfg, "shared", threads)
    times, points, table = _oracle(cfg, rhs)

    def run_one(build) -> list:
        k, steps, radius, accuracy = build
        net, _ = build_resnet(rhs, steps, radius, accuracy)
        if net.distinct_parameter_count != cfg.pieces:
            raise VerificationError(
                f"expected {cfg.pieces} distinct parameter sets, "
                f"found {net.distinct_parameter_count}"
            )
        sup = _sup_error(net, times, points, table)
        return [k, net.n, net.distinct_parameter_count, sup]

    rows = _map_ordered(run_one, builds, threads)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "shared.csv", ["k", "blocks", "distinct_params", "sup_error"], rows)
    print(
        f"shared: rhs={cfg.rhs} pieces={cfg.pieces} k={cfg.k_list[0]}..{cfg.k_list[-1]} "
        f"sup_error(last)={rows[-1][3]:.3e} -> {out_dir / 'shared.csv'}"
    )
    return rows


# ---------------------------------------------------------------------------
# entry point


_DISPATCH = {
    "convergence": cmd_convergence,
    "complexity": cmd_complexity,
    "compile": cmd_compile,
    "shared": cmd_shared,
}


_COMMANDS = """commands:
  convergence  sup-error decay of residual networks vs block count
  complexity   per-block size vs block count and cube radius
  compile      compile a PWL file or named function and verify it
  shared       weight-sharing builds for piecewise-constant rhs"""


def main(argv=None) -> int:
    # one parser: the four commands take the same options
    parser = argparse.ArgumentParser(
        prog="reluflow",
        description="Experiments for exact PWL network compilation and ODE-flow ResNets.",
        epilog=_COMMANDS,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=_DISPATCH, metavar="command",
                        help="convergence, complexity, compile or shared (see below)")
    parser.add_argument("--config", required=True, help="path to a key=value config file")
    parser.add_argument("--out", default="out", help="output directory (default: out)")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--threads", type=int, default=1, help="worker threads (default: 1)")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.command)
        if args.seed is not None:
            cfg.seed = args.seed
            cfg.validate(args.command)
        _DISPATCH[args.command](cfg, Path(args.out), threads=max(1, args.threads))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OracleConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:  # only writing the outputs: every read is checked where it runs
        print(f"error: cannot write the outputs to {args.out}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
