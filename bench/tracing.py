"""Spans around the reluflow layers, recorded from outside the package.

``Tracer.install`` rebinds each public layer function, at every module
attribute through which reluflow code looks it up, to a wrapper that
records a span (name, start, end, parent) plus the counters of that
call.  Nothing under ``src/`` changes; ``uninstall`` puts the original
functions back.  Spans stay in memory until ``write``.  Their clock is
the process's CPU time, so time the CPU spends on other processes does
not count towards any span.

A span's self time is its duration minus the durations of its direct
children.  Calls are strictly nested (one thread), so the children of a
span never overlap each other.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

# span name -> "module.attribute" bindings through which callers reach it
SITES = {
    "resnet.build": ("cli.build_resnet", "cli.build_shared_resnet"),
    "resnet.eval_resnet": ("cli.eval_resnet",),
    "pwl.interpolate": ("cli.interpolate", "pwl.interpolate"),
    "pwl.compile_pwl": ("cli.compile_pwl", "pwl.compile_pwl"),
    "pwl.eval_pwl": ("cli.eval_pwl",),
    "grid.locate": ("pwl.locate",),
    "grid.barycentric": ("pwl.barycentric",),
    "networks.eval_network": ("resnet.eval_network", "networks.eval_network"),
    "networks.save_network": ("cli.save_network",),
    "networks.load_network": ("networks.load_network",),
    "ode.reference_solve": ("cli.reference_solve",),
}

# the CLI command's own span, opened by the caller around the experiment
COMMAND_SPAN = "cli.cmd"

# counters beyond calls and self_s; "computed" units are derived from the
# network shape, not measured
COUNTER_UNITS = {
    "pwl.compile_pwl.neurons": "count",
    "pwl.compile_pwl.nnz": "count",
    "pwl.interpolate.vertices": "count",
    "resnet.build.blocks": "count",
    "resnet.build.compiles": "count",
    "resnet.build.reuse": "ratio",
    "networks.eval_network.rows": "count",
    "networks.eval_network.flops": "flop-computed",
    "networks.eval_network.act_bytes": "B-computed",
    "networks.eval_network.peak_act_mb": "MiB-computed",
    "resnet.eval_resnet.block_evals": "count",
    "ode.reference_solve.steps": "count",
    "ode.reference_solve.halvings": "count",
    "networks.save_network.bytes": "B",
}

LAYER_UNITS = {
    **{f"{name}.{key}": unit for name in SITES for key, unit in (("calls", "count"), ("self_s", "s"))},
    f"{COMMAND_SPAN}.self_s": "s",
    **COUNTER_UNITS,
}


def _nnz(net) -> int:
    return sum(layer.weights.nnz for layer in net.layers)


def _eval_counters(args, kwargs, result) -> dict:
    net, x = args[0], np.atleast_1d(np.asarray(args[1]))
    rows = x.shape[0] if x.ndim == 2 else 1
    widths = net.layer_widths
    return {
        "rows": rows,
        "flops": 2 * _nnz(net) * rows,
        "act_bytes": rows * sum(widths) * 8,
        "peak_act_mb": rows * max(widths) * 8 / 2**20,
    }


def _solve_counters(args, kwargs, result) -> dict:
    rhs = args[0]
    initial = kwargs.get("initial_steps", args[3] if len(args) > 3 else None)
    # the first mesh reference_solve integrates on, before any halving
    first = int(initial) if initial else 8
    if rhs.piecewise_constant_pieces:
        first = math.lcm(first, rhs.piecewise_constant_pieces)
    steps = len(result.times) - 1
    return {"steps": steps, "halvings": round(math.log2(steps / first))}


COUNTERS = {
    "resnet.build": lambda args, kwargs, result: {"blocks": result[0].n},
    "pwl.interpolate": lambda args, kwargs, result: {"vertices": len(result.values)},
    "pwl.compile_pwl": lambda args, kwargs, result: {
        "neurons": result.neuron_count,
        "nnz": _nnz(result),
    },
    "networks.eval_network": _eval_counters,
    "networks.save_network": lambda args, kwargs, result: {"bytes": os.path.getsize(args[1])},
    "ode.reference_solve": _solve_counters,
}


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = math.nan
    counters: dict = field(default_factory=dict)


class Tracer:
    """In-memory span recorder for one experiment (one trace id)."""

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._restore: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append(Span(name, time.process_time(), self._open[-1] if self._open else None))
        self._open.append(index)
        try:
            yield self.spans[index]
        finally:
            self.spans[index].end = time.process_time()
            self._open.pop()

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if count is not None:
                span.counters = count(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for name, sites in SITES.items():
            for site in sites:
                module_name, attr = site.split(".")
                module = importlib.import_module(f"reluflow.{module_name}")
                original = getattr(module, attr)
                self._restore.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def _has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index].parent
        while parent is not None:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False

    def layer_metrics(self) -> dict:
        """Every LAYER_UNITS metric, summed over spans (peaks: maximum)."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.end - span.start
        out = {name: 0 for name in LAYER_UNITS}
        for index, span in enumerate(self.spans):
            out[f"{span.name}.calls"] = out.get(f"{span.name}.calls", 0) + 1
            out[f"{span.name}.self_s"] += span.end - span.start - covered[index]
            for key, value in span.counters.items():
                metric = f"{span.name}.{key}"
                out[metric] = max(out[metric], value) if key.startswith("peak") else out[metric] + value
            if span.name == "pwl.compile_pwl" and self._has_ancestor(index, "resnet.build"):
                out["resnet.build.compiles"] += 1
            if (
                span.name == "networks.eval_network"
                and span.parent is not None
                and self.spans[span.parent].name == "resnet.eval_resnet"
            ):
                out["resnet.eval_resnet.block_evals"] += 1
        blocks = out["resnet.build.blocks"]
        out["resnet.build.reuse"] = 1.0 - out["resnet.build.compiles"] / blocks if blocks else 0.0
        return {name: out[name] for name in LAYER_UNITS}

    def write(self, path) -> None:
        spans = [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, **s.counters}
            for s in self.spans
        ]
        with open(path, "w", newline="\n") as handle:
            json.dump({"trace_id": self.trace_id, "spans": spans}, handle)
