"""Command-line experiment harness.

Four subcommands, all driven by a flat key=value config file:

* ``convergence`` - build residual networks for a list of block counts,
  measure the sup error against the reference solver on a (t, y) grid,
  fit the log-log rate and write ``convergence.csv`` plus a summary JSON.
* ``complexity`` - per-block size accounting against the growth of the
  approximation cube; writes ``complexity.csv``.
* ``compile`` - compile a PWL file or a named function to a network,
  verify it against the interpolation oracle, write ``network.json``.
* ``shared`` - weight-sharing builds for piecewise-constant-in-time
  right-hand sides; writes ``shared.csv``.

Exit codes: 0 ok, 2 bad config or a ``compile`` over its memory budget, 3
reference-solver failure (no convergence, or over its memory budget), 4 failed
verification.  One human-readable line goes to stdout; data goes to files.  Identical config and seed reproduce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .networks import complexity, eval_network_batched, first_layer_free, save_network
from .ode import OracleConvergenceError, RhsSpec, reference_solve
from .pwl import (
    approximate_lipschitz,
    compile_pwl,
    compiled_layers,
    eval_pwl,
    interpolate,
    load_pwl,
    resolve_function,
)
from .resnet import build_resnet, build_shared_resnet, eval_resnet

__all__ = [
    "ConfigError",
    "VerificationError",
    "ExperimentConfig",
    "ConvergenceRow",
    "ErrorReport",
    "load_config",
    "cmd_convergence",
    "cmd_complexity",
    "cmd_compile",
    "cmd_shared",
    "main",
]


COMPILE_BYTES = 2**31  # budget of `compile`: CSR layers plus a 256-row chunk of the widest


class ConfigError(Exception):
    """Invalid or unparsable experiment configuration (exit code 2)."""


class VerificationError(Exception):
    """A posteriori verification failed (exit code 4)."""


# ---------------------------------------------------------------------------
# configuration


def _int_list(text: str) -> tuple:
    return tuple(int(tok) for tok in text.split(","))


_KEY_PARSERS = {
    "rhs": str,
    "dim": int,
    "cube_radius": float,
    "time_samples": int,
    "space_samples": int,
    "n_list": _int_list,
    "k_list": _int_list,
    "pieces": int,
    "rn_rule": str,
    "rn_value": float,
    "block_accuracy_scale": float,
    "oracle_tol": float,
    "seed": int,
    "pwl_file": str,
    "function": str,
    "radius": float,
    "eps": float,
    "samples": int,
}

_COMMAND_KEYS = {
    "convergence": {
        "rhs", "dim", "cube_radius", "time_samples", "space_samples",
        "n_list", "pieces", "rn_rule", "rn_value", "block_accuracy_scale",
        "oracle_tol",
    },
    "complexity": {"rhs", "dim", "n_list", "rn_rule", "rn_value", "block_accuracy_scale"},
    "compile": {"pwl_file", "function", "dim", "radius", "eps", "samples", "seed"},
    "shared": {
        "rhs", "dim", "cube_radius", "time_samples", "space_samples",
        "pieces", "k_list", "radius", "oracle_tol",
    },
}


@dataclass
class ExperimentConfig:
    """Parsed experiment parameters; see the README for the key reference."""

    rhs: str = "sin"
    dim: int = 1
    cube_radius: float = 1.0
    time_samples: int = 33
    space_samples: int = 41
    n_list: tuple = (8, 16, 32, 64)
    k_list: tuple = (2, 4, 8, 16)
    pieces: int | None = None
    rn_rule: str = "fixed"
    rn_value: float | None = None
    block_accuracy_scale: float = 1.0
    oracle_tol: float = 1e-8
    seed: int = 0
    pwl_file: str | None = None
    function: str | None = None
    radius: float | None = None
    eps: float = 0.1
    samples: int = 10000

    def validate(self, command: str) -> None:
        if self.dim < 1:
            raise ConfigError("dim must be a positive integer")
        if self.time_samples < 2 or self.space_samples < 2:
            raise ConfigError("sample counts must be at least 2")
        if not self.n_list or any(b <= a for a, b in zip(self.n_list, self.n_list[1:])):
            raise ConfigError("n_list must be nonempty and strictly ascending")
        if not self.k_list or any(b <= a for a, b in zip(self.k_list, self.k_list[1:])):
            raise ConfigError("k_list must be nonempty and strictly ascending")
        if any(n < 1 for n in self.n_list) or any(k < 1 for k in self.k_list):
            raise ConfigError("n_list and k_list entries must be positive")
        if self.rn_rule not in ("fixed", "log", "sqrt"):
            raise ConfigError("rn_rule must be one of: fixed, log, sqrt")
        if not self.oracle_tol > 0.0:
            raise ConfigError("oracle_tol must be positive")
        if self.cube_radius <= 0.0:
            raise ConfigError("cube_radius must be positive")
        if self.block_accuracy_scale <= 0.0:
            raise ConfigError("block_accuracy_scale must be positive")
        if self.pieces is not None and self.pieces < 1:
            raise ConfigError("pieces must be a positive integer")
        if command == "compile":
            if (self.pwl_file is None) == (self.function is None):
                raise ConfigError("compile needs exactly one of pwl_file or function")
            if self.function is not None and not (self.radius or 0.0) > 0.0:
                raise ConfigError("compile from a function needs radius > 0")
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
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def load_config(path, command: str) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    raw = parse_config_text(text)
    allowed = _COMMAND_KEYS[command]
    cfg = ExperimentConfig()
    for key, value in raw.items():
        if key not in _KEY_PARSERS:
            raise ConfigError(f"unknown config key {key!r}")
        if key not in allowed:
            raise ConfigError(f"config key {key!r} does not apply to `{command}`")
        try:
            setattr(cfg, key, _KEY_PARSERS[key](value))
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}") from exc
    cfg.validate(command)
    return cfg


# ---------------------------------------------------------------------------
# shared helpers


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    sup_error: float
    apriori_bound: float
    block_neurons: int
    block_depth: int
    free_weights: int


@dataclass(frozen=True)
class ErrorReport:
    rows: tuple
    slope: float | None


def _rhs_from_config(cfg: ExperimentConfig) -> RhsSpec:
    try:
        spec = resolve_function(cfg.rhs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if not spec.globally_bounded:
        raise ConfigError(
            f"rhs {cfg.rhs!r} is not globally bounded; use zero, sin, cos or tanh"
        )
    g = spec.factory(cfg.dim)
    # g ignores t, so the rhs is constant on one piece unless the config
    # says otherwise: build_resnet then compiles a single block per n
    return RhsSpec(
        lambda t, x: g(x),
        cfg.dim,
        spec.bound(cfg.dim, math.inf),
        spec.lipschitz(cfg.dim, math.inf),
        piecewise_constant_pieces=cfg.pieces if cfg.pieces is not None else 1,
    )


def _default_cube(cfg: ExperimentConfig, rhs: RhsSpec) -> float:
    # keeps every trajectory started in the test cube strictly inside the
    # approximation cube: states stay within |y| + c
    return max(4.0, cfg.cube_radius + rhs.bound_c + 1.0)


def _rn_for(cfg: ExperimentConfig, rhs: RhsSpec, n: int) -> float:
    base = cfg.rn_value if cfg.rn_value is not None else _default_cube(cfg, rhs)
    if cfg.rn_rule == "log":
        return base + math.log(n)
    if cfg.rn_rule == "sqrt":
        return base * math.sqrt(n)
    return base


def _sample_times(cfg: ExperimentConfig) -> list:
    return [i / (cfg.time_samples - 1) for i in range(cfg.time_samples)]


def _sample_points(cfg: ExperimentConfig) -> np.ndarray:
    axis = np.linspace(-cfg.cube_radius, cfg.cube_radius, cfg.space_samples)
    mesh = np.meshgrid(*([axis] * cfg.dim), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _reference_table(rhs: RhsSpec, times, points: np.ndarray, tol: float) -> np.ndarray:
    init = math.lcm(len(times) - 1, rhs.piecewise_constant_pieces or 1)
    return reference_solve(rhs, points, tol, initial_steps=init).at(times)


def _sup_error(net, times, points: np.ndarray, table: np.ndarray) -> float:
    pred = eval_resnet(net, times, points)
    return float(np.linalg.norm(pred - table, axis=-1).max())


def _fit_slope(ns, errors) -> float | None:
    pairs = [(n, e) for n, e in zip(ns, errors) if e > 0.0]
    if len(pairs) < 2:
        return None
    logs_n = np.log([p[0] for p in pairs])
    logs_e = np.log([p[1] for p in pairs])
    return float(np.polyfit(logs_n, logs_e, 1)[0])


def _map_ordered(fn, items, threads: int) -> list:
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        raise TypeError("boolean cells are not part of any CSV schema")
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


def _config_echo(cfg: ExperimentConfig) -> dict:
    out = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        out[f.name] = list(value) if isinstance(value, tuple) else value
    return out


# ---------------------------------------------------------------------------
# subcommands


def cmd_convergence(cfg: ExperimentConfig, out_dir: Path, threads: int = 1) -> ErrorReport:
    rhs = _rhs_from_config(cfg)
    times = _sample_times(cfg)
    points = _sample_points(cfg)
    table = _reference_table(rhs, times, points, cfg.oracle_tol)

    def run_one(n: int) -> ConvergenceRow:
        net, report = build_resnet(
            rhs, n, _rn_for(cfg, rhs, n), block_accuracy=cfg.block_accuracy_scale / n
        )
        sup = _sup_error(net, times, points, table)
        return ConvergenceRow(
            n,
            sup,
            report.apriori_bound,
            max(r.neurons for r in report.block_reports),
            max(r.depth for r in report.block_reports),
            max(r.free_weights for r in report.block_reports),
        )

    rows = _map_ordered(run_one, cfg.n_list, threads)
    slope = _fit_slope([r.n for r in rows], [r.sup_error for r in rows])
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out_dir / "convergence.csv",
        ["n", "sup_error", "apriori_bound", "block_neurons", "block_depth", "free_weights"],
        [
            [r.n, r.sup_error, r.apriori_bound, r.block_neurons, r.block_depth, r.free_weights]
            for r in rows
        ],
    )
    _write_json(
        out_dir / "convergence_summary.json",
        {
            "slope": slope,
            "n": [r.n for r in rows],
            "sup_error": [r.sup_error for r in rows],
            "apriori_bound": [r.apriori_bound for r in rows],
            "config": _config_echo(cfg),
        },
    )
    slope_text = "n/a" if slope is None else f"{slope:.3f}"
    print(
        f"convergence: rhs={cfg.rhs} d={cfg.dim} n={cfg.n_list[0]}..{cfg.n_list[-1]} "
        f"slope={slope_text} -> {out_dir / 'convergence.csv'}"
    )
    return ErrorReport(tuple(rows), slope)


def cmd_complexity(cfg: ExperimentConfig, out_dir: Path, threads: int = 1) -> list:
    rhs = _rhs_from_config(cfg)
    spec = resolve_function(cfg.rhs)
    slice_zero = spec.factory(cfg.dim)

    def run_one(n: int) -> list:
        rn = _rn_for(cfg, rhs, n)
        _, report = approximate_lipschitz(
            slice_zero,
            rhs.lipschitz_L,
            rhs.bound_c,
            rn,
            cfg.block_accuracy_scale / n,
            cfg.dim,
        )
        bound_const = report.neurons / (rn**cfg.dim * n**cfg.dim)
        return [n, rn, report.neurons, report.depth, report.free_weights, bound_const]

    rows = _map_ordered(run_one, cfg.n_list, threads)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out_dir / "complexity.csv",
        ["n", "r_n", "neurons", "depth", "free_weights", "bound_const"],
        rows,
    )
    constants = [row[5] for row in rows]
    ratio = max(constants) / min(constants)
    print(
        f"complexity: rhs={cfg.rhs} d={cfg.dim} rule={cfg.rn_rule} "
        f"const-ratio={ratio:.3f} -> {out_dir / 'complexity.csv'}"
    )
    if ratio > 4.0:
        raise VerificationError(
            f"neurons / (r_n^d n^d) varies by factor {ratio:.3f} > 4 across n_list"
        )
    return rows


def cmd_compile(cfg: ExperimentConfig, out_dir: Path, threads: int = 1) -> dict:
    if cfg.pwl_file is not None:
        try:
            target = load_pwl(cfg.pwl_file)
        except (OSError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"cannot load PWL file {cfg.pwl_file}: {exc}") from exc
    else:
        try:
            spec = resolve_function(cfg.function)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        radius = cfg.radius if cfg.radius is not None else 1.0
        lip = spec.lipschitz(cfg.dim, radius)
        delta = cfg.eps / lip if lip > 0.0 else math.inf
        target = interpolate(spec.factory(cfg.dim), radius, delta, cfg.dim)
    widths, nonzeros = compiled_layers(target)  # 8 + 4 bytes per row and per entry
    need = 12 * (sum(widths) + sum(nonzeros)) + 8 * 256 * max(widths)
    if need > COMPILE_BYTES:
        raise ConfigError(
            f"the compiled network would need about {need} bytes (CSR layers and one "
            f"256-row activation chunk), over the budget of {COMPILE_BYTES}"
        )
    net = compile_pwl(target)
    report = complexity(net, first_layer_free(net))
    rng = np.random.default_rng(cfg.seed)
    span = target.cube_radius + 1.0
    points = rng.uniform(-span, span, size=(cfg.samples, target.grid.dim))
    gaps = eval_network_batched(net, points) - eval_pwl(target, points)
    # g @ g per row is the dot product np.linalg.norm takes of one vector
    deviation = float(np.sqrt((gaps[:, None, :] @ gaps[:, :, None]).max()))
    scale = 1.0 + target.max_value_norm
    threshold = 1e-9 * scale
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
    if deviation > threshold:
        raise VerificationError(
            f"compiled network deviates from the interpolation oracle by "
            f"{deviation:.3e} > {threshold:.3e}"
        )
    return summary


def cmd_shared(cfg: ExperimentConfig, out_dir: Path, threads: int = 1) -> list:
    rhs = _rhs_from_config(cfg)
    times = _sample_times(cfg)
    points = _sample_points(cfg)
    table = _reference_table(rhs, times, points, cfg.oracle_tol)
    radius = cfg.radius if cfg.radius is not None else _default_cube(cfg, rhs)

    def run_one(k: int) -> list:
        net, _ = build_shared_resnet(rhs, k, radius)
        if net.distinct_parameter_count != cfg.pieces:
            raise VerificationError(
                f"expected {cfg.pieces} distinct parameter sets, "
                f"found {net.distinct_parameter_count}"
            )
        sup = _sup_error(net, times, points, table)
        return [k, net.n, net.distinct_parameter_count, sup]

    rows = _map_ordered(run_one, cfg.k_list, threads)
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="reluflow",
        description="Experiments for exact PWL network compilation and ODE-flow ResNets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("convergence", "sup-error decay of residual networks vs block count"),
        ("complexity", "per-block size vs block count and cube radius"),
        ("compile", "compile a PWL file or named function and verify it"),
        ("shared", "weight-sharing builds for piecewise-constant rhs"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to a key=value config file")
        cmd.add_argument("--out", default="out", help="output directory (default: out)")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
        cmd.add_argument("--threads", type=int, default=1, help="worker threads (default: 1)")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.command)
        if args.seed is not None:
            cfg.seed = args.seed
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
