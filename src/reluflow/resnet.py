"""Residual networks as space-time maps, built from compiled blocks.

A ResNet here is the Euler-style recursion
``x(t_{k+1}, y) = x(t_k, y) + (1/n) * R_{k+1}(x(t_k, y))`` on the uniform
time grid, interpolated linearly in between: it is ``ode.euler_solve`` of
``resnet_as_rhs(net)``, which is how it is evaluated.  Blocks live in a
parameter pool referenced by index, so repeating a block costs no extra
parameters; the builders produce blocks by compiling the right-hand side
at the left endpoint of each time step.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .networks import (
    ComplexityReport,
    NetworkParams,
    eval_network,
    integer_field,
    network_from_dict,
    network_to_dict,
)
from .ode import RhsSpec, euler_solve, perturbed_euler_bound, uniform_partition
from .pwl import approximate_lipschitz

__all__ = [
    "ResNetParams",
    "BuildReport",
    "eval_resnet",
    "resnet_node_states",
    "build_resnet",
    "build_shared_resnet",
    "resnet_as_rhs",
    "resnet_to_dict",
    "resnet_from_dict",
    "save_resnet",
    "load_resnet",
]


@dataclass(frozen=True)
class ResNetParams:
    """Residual blocks as references into a parameter pool.

    ``block_refs[k]`` names the pool entry acting on step k; sharing is
    expressed by repeating an index.  ``bound_c`` and ``lipschitz_L`` are
    optional declared constants carried over from the builder.
    """

    pool: tuple[NetworkParams, ...]
    block_refs: tuple[int, ...]
    dim: int
    bound_c: float | None = None
    lipschitz_L: float | None = None

    def __post_init__(self) -> None:
        if not self.pool:
            raise ValueError("parameter pool must not be empty")
        if not self.block_refs:
            raise ValueError("a residual network needs at least one block")
        for i, net in enumerate(self.pool):
            if net.input_dim != self.dim or net.output_dim != self.dim:
                raise ValueError(
                    f"pool entry {i} maps {net.input_dim} -> {net.output_dim}, "
                    f"blocks must map {self.dim} -> {self.dim}"
                )
        for ref in self.block_refs:
            if isinstance(ref, bool) or not isinstance(ref, (int, np.integer)):
                raise ValueError(f"block reference {ref!r} is not an integer")
            if not 0 <= ref < len(self.pool):
                raise ValueError(f"block reference {ref} outside the pool")
        object.__setattr__(self, "pool", tuple(self.pool))
        object.__setattr__(self, "block_refs", tuple(int(r) for r in self.block_refs))

    @property
    def n(self) -> int:
        return len(self.block_refs)

    @property
    def distinct_parameter_count(self) -> int:
        return len(set(self.block_refs))

    def block(self, k: int) -> NetworkParams:
        return self.pool[self.block_refs[k]]


def resnet_node_states(net: ResNetParams, y) -> np.ndarray:
    """All recursion states x(t_0), ..., x(t_n); leading axis is time.

    ``y`` may be one point (dim,) or a batch (k, dim).
    """
    return euler_solve(resnet_as_rhs(net), y, uniform_partition(net.n)).states


def eval_resnet(net: ResNetParams, t, y) -> np.ndarray:
    """Space-time evaluation: the node states, linear in t in between.

    ``t`` is one time or an array of times; an array adds its shape as
    leading axes of the result.  Node times return the node states
    exactly; a time outside [0, 1] (NaN included) is rejected.
    """
    return euler_solve(resnet_as_rhs(net), y, uniform_partition(net.n)).at(t)


# ---------------------------------------------------------------------------
# builders


@dataclass(frozen=True)
class BuildReport:
    """Construction metadata: sizes per block and the a-priori error bound."""

    block_reports: tuple[ComplexityReport, ...]
    cube_radius: float
    target_accuracy: float
    apriori_bound: float


def build_resnet(
    rhs: RhsSpec, n: int, r_n: float, block_accuracy: float | None = None
) -> tuple[ResNetParams, BuildReport]:
    """Residual network whose blocks track the right-hand side in time.

    Block k+1 approximates f(k/n, .) on [-r_n, r_n]^d up to the target
    accuracy (default 1/n).  Since blocks are interpolants of f, they
    inherit its uniform bound, so trajectories started in a region that
    stays inside the cube obey the perturbed-Euler error estimate; the
    report carries that a-priori bound with perturbation
    target + L/n (approximation plus within-step time drift).

    Identical time slices (declared via piecewise_constant_pieces) share
    one pool entry instead of being compiled repeatedly.
    """
    if int(n) != n or n < 1:
        raise ValueError("block count must be a positive integer")
    if not r_n > 0.0:
        raise ValueError("approximation cube radius must be positive")
    rhs.spot_check(radius=r_n)
    target = float(block_accuracy) if block_accuracy is not None else 1.0 / n
    pieces = rhs.piecewise_constant_pieces
    pool: list[NetworkParams] = []
    pool_reports: list[ComplexityReport] = []
    refs: list[int] = []
    seen: dict[int, int] = {}
    for k in range(n):
        key = (k * pieces) // n if pieces else k
        if key not in seen:
            block, report = approximate_lipschitz(
                partial(rhs, k / n),
                rhs.lipschitz_L,
                rhs.bound_c,
                r_n,
                target,
                rhs.dim,
            )
            seen[key] = len(pool)
            pool.append(block)
            pool_reports.append(report)
        refs.append(seen[key])
    apriori = perturbed_euler_bound(
        target + rhs.lipschitz_L / n, rhs.bound_c, n, rhs.lipschitz_L
    )
    params = ResNetParams(tuple(pool), tuple(refs), rhs.dim, bound_c=rhs.bound_c)
    report = BuildReport(
        tuple(pool_reports[i] for i in refs), float(r_n), target, apriori
    )
    return params, report


def build_shared_resnet(
    rhs: RhsSpec, k: int, r: float, block_accuracy: float | None = None
) -> tuple[ResNetParams, BuildReport]:
    """Weight-sharing build for right-hand sides constant on p time pieces.

    The ``build_resnet`` of k*p steps: its pooling compiles one block per
    piece and repeats it k times, so there are only p distinct parameter
    sets.  The default per-block accuracy c*(c+L)/(k*p) balances the
    spatial term against the Euler term c*L/(k*p), so the total error
    improves with k while the parameter count stays fixed.  No step
    crosses a piece boundary, so the a-priori bound has no time-drift
    term.
    """
    pieces = rhs.piecewise_constant_pieces
    if pieces is None:
        raise ValueError("right-hand side is not declared piecewise constant in time")
    if int(k) != k or k < 1:
        raise ValueError("replication factor must be a positive integer")
    if block_accuracy is not None:
        target = float(block_accuracy)
    else:
        if not math.isfinite(rhs.bound_c):
            raise ValueError("shared build needs a finite declared bound")
        target = rhs.bound_c * (rhs.bound_c + rhs.lipschitz_L) / (k * pieces)
        if target <= 0.0:
            target = 1.0  # identically zero right-hand side compiles exactly
    params, report = build_resnet(rhs, k * pieces, r, target)
    apriori = perturbed_euler_bound(target, rhs.bound_c, k * pieces, rhs.lipschitz_L)
    return params, replace(report, apriori_bound=apriori)


# ---------------------------------------------------------------------------
# the induced right-hand side


def _operator_norm_bound(weights) -> float:
    if weights.nnz == 0:
        return 0.0
    abs_w = abs(weights)
    col = float(abs_w.sum(axis=0).max())
    row = float(abs_w.sum(axis=1).max())
    return math.sqrt(col * row)


def _lipschitz_bound(net: NetworkParams) -> float:
    # ReLU is 1-Lipschitz, so the product of layer operator norms bounds
    # the network; sqrt(norm_1 * norm_inf) bounds each spectral norm.
    out = 1.0
    for layer in net.layers:
        out *= _operator_norm_bound(layer.weights)
    return out


def resnet_as_rhs(net: ResNetParams) -> RhsSpec:
    """The piecewise-constant-in-time right-hand side a ResNet Euler-steps.

    f(t, x) = R_{i+1}(x) for t in [i/n, (i+1)/n) (last block at t = 1),
    so an Euler solve on the uniform n-partition reproduces the ResNet at
    all time nodes.  Declared constants fall back to conservative values
    when the builder metadata is absent.
    """

    def f(t: float, x) -> np.ndarray:
        return eval_network(net.block(spec.piece_of(t)), x)

    if net.lipschitz_L is not None:
        lip = net.lipschitz_L
    else:
        lip = max(_lipschitz_bound(block) for block in net.pool)
    bound = net.bound_c if net.bound_c is not None else math.inf
    spec = RhsSpec(f, net.dim, bound, lip, piecewise_constant_pieces=net.n)
    return spec


# ---------------------------------------------------------------------------
# serialization


def resnet_to_dict(net: ResNetParams) -> dict:
    return {
        "n": net.n,
        "dim": net.dim,
        "pool": [network_to_dict(block) for block in net.pool],
        "block_refs": list(net.block_refs),
        "bound_c": net.bound_c,
        "lipschitz_L": net.lipschitz_L,
    }


def resnet_from_dict(doc: dict) -> ResNetParams:
    n, dim = integer_field(doc, "n"), integer_field(doc, "dim")
    pool = tuple(network_from_dict(item) for item in doc["pool"])
    constants = {key: doc.get(key) for key in ("bound_c", "lipschitz_L")}
    net = ResNetParams(pool, tuple(doc["block_refs"]), dim, **constants)
    if net.n != n:
        raise ValueError(f"declared n {doc['n']} does not match {net.n} block references")
    return net


def save_resnet(net: ResNetParams, path) -> None:
    with open(path, "w", newline="\n") as handle:
        handle.write(json.dumps(resnet_to_dict(net)))


def load_resnet(path) -> ResNetParams:
    with open(path) as handle:
        return resnet_from_dict(json.load(handle))
