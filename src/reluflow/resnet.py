"""Residual networks as space-time maps, built from compiled blocks.

A ResNet here is the Euler-style recursion
``x(t_{k+1}, y) = x(t_k, y) + (1/n) * R_{k+1}(x(t_k, y))`` on the uniform
time grid, interpolated linearly in between: it is ``ode.euler_solve`` of
the step function ``resnet_as_rhs(net)``, from the blocks alone.  Blocks
live in a parameter pool referenced by index, so repeating a block costs
no extra parameters; the builders produce blocks by interpolating the
right-hand side at the left endpoint of each time step.
A block is a ``PWLFunction``, the arrays of its exact ReLU network.  Its
hats at x are x's barycentric weights, so a step evaluates it with
``pwl.eval_pwl``: a ResNet never builds the min tree or a CSR stack.  A
block's size is that of its interpolant's network, which a caller counts
with ``pwl.compiled_complexity`` of the pool entries it reports.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from . import pwl
# eval_network stays importable here: the benchmark's tracer rebinds resnet.eval_network
from .networks import document_field, eval_network  # noqa: F401
from .ode import RhsSpec, Trajectory, euler_solve, perturbed_euler_bound, uniform_partition
from .ode import _initial_states, _piece_of
from .pwl import PWLFunction, eval_pwl, fineness, pwl_from_dict, pwl_to_dict

__all__ = [
    "ResNetParams",
    "eval_resnet",
    "resnet_node_states",
    "build_resnet",
    "build_shared_resnet",
    "shared_accuracy",
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
    expressed by repeating an index; each entry is a PWL block R^dim -> R^dim.
    """

    pool: tuple[PWLFunction, ...]
    block_refs: tuple[int, ...]
    dim: int

    def __post_init__(self) -> None:
        if not self.pool:
            raise ValueError("parameter pool must not be empty")
        if not self.block_refs:
            raise ValueError("a residual network needs at least one block")
        for i, block in enumerate(self.pool):
            if block.grid.dim != self.dim or block.output_dim != self.dim:
                raise ValueError(
                    f"pool entry {i} maps {block.grid.dim} -> {block.output_dim}, "
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

    def block(self, k: int) -> PWLFunction:
        return self.pool[self.block_refs[k]]


def _trajectory(net: ResNetParams, y) -> Trajectory:
    return euler_solve(resnet_as_rhs(net), _initial_states(y, net.dim), uniform_partition(net.n))


def resnet_node_states(net: ResNetParams, y) -> np.ndarray:
    """All recursion states x(t_0), ..., x(t_n); leading axis is time.

    ``y`` may be one point (dim,) or a batch (k, dim).
    """
    return _trajectory(net, y).states


def eval_resnet(net: ResNetParams, t, y) -> np.ndarray:
    """Space-time evaluation: the node states, linear in t in between.

    ``t`` is one time or an array of times; an array adds its shape as
    leading axes of the result.  Node times return the node states
    exactly; a time outside [0, 1] (NaN included) is rejected.
    """
    return _trajectory(net, y).at(t)


# ---------------------------------------------------------------------------
# builders


def build_resnet(
    rhs: RhsSpec, n: int, r_n: float, block_accuracy: float
) -> tuple[ResNetParams, float]:
    """Residual network whose blocks track the right-hand side in time, and its
    a-priori error bound.

    Block k+1 interpolates f(k/n, .) on [-r_n, r_n]^d at fineness
    ``block_accuracy`` / L, so it is within that target accuracy of f there.
    Since blocks are interpolants of f, they inherit its uniform bound (a
    sampled value above the declared bound warns), so trajectories started in
    a region that stays inside the cube obey the perturbed-Euler error
    estimate; the bound returned is that estimate with perturbation target +
    drift.  The bound rests on the declared constants of ``rhs``, the caller's
    contract, which the builder does not sample (a caller may, with
    ``RhsSpec.spot_check``); it calls f only to interpolate.

    The steps of one piece declared by ``rhs.piecewise_constant_pieces`` share
    one pool entry.  The time drift is 0 when that piece count divides n (each
    step then lies in one piece, where f(t, .) is constant) and L/n otherwise.
    """
    if int(n) != n or n < 1:
        raise ValueError("block count must be a positive integer")
    if not r_n > 0.0:
        raise ValueError("approximation cube radius must be positive")
    target = float(block_accuracy)
    if not target > 0.0:
        raise ValueError("target accuracy must be positive")
    delta, pieces = fineness(target, rhs.lipschitz_L), rhs.piecewise_constant_pieces
    pool: list[PWLFunction] = []
    refs: list[int] = []
    seen: dict[int, int] = {}
    for k in range(n):
        key = (k * pieces) // n if pieces else k
        if key not in seen:
            # looked up at call time: the benchmark's tracer rebinds pwl.interpolate
            block = pwl.interpolate(partial(rhs, k / n), r_n, delta, rhs.dim)
            if block.max_value_norm > rhs.bound_c * (1.0 + 1e-12) + 1e-12:
                warnings.warn(
                    f"sampled values reach norm {block.max_value_norm:.6g}, above the "
                    f"declared bound {rhs.bound_c:.6g}",
                    stacklevel=2,
                )
            seen[key] = len(pool)
            pool.append(block)
        refs.append(seen[key])
    drift = 0.0 if pieces and n % pieces == 0 else rhs.lipschitz_L / n
    apriori = perturbed_euler_bound(target + drift, rhs.bound_c, n, rhs.lipschitz_L)
    return ResNetParams(tuple(pool), tuple(refs), rhs.dim), apriori


def build_shared_resnet(rhs: RhsSpec, k: int, r: float) -> tuple[ResNetParams, float]:
    """Weight-sharing build for right-hand sides constant on p time pieces.

    The ``build_resnet`` of k*p steps at per-block accuracy
    ``shared_accuracy(rhs, k)``, with its a-priori bound: its pooling
    interpolates one block per piece and repeats it k times, so there are
    only p distinct parameter sets, and p divides k*p, so the bound has no
    time drift.
    """
    pieces = rhs.piecewise_constant_pieces
    if pieces is None:
        raise ValueError("right-hand side is not declared piecewise constant in time")
    if int(k) != k or k < 1:
        raise ValueError("replication factor must be a positive integer")
    return build_resnet(rhs, k * pieces, r, shared_accuracy(rhs, k))


def shared_accuracy(rhs: RhsSpec, k: int) -> float:
    """The per-block accuracy of ``build_shared_resnet(rhs, k, r)``.

    c*(c+L)/(k*p) balances the spatial term against the Euler term
    c*L/(k*p), so the total error improves with k while the parameter count
    stays fixed; it is 1 for c = 0, whose zero right-hand side compiles
    exactly.
    """
    if not math.isfinite(rhs.bound_c):
        raise ValueError("shared build needs a finite declared bound")
    target = rhs.bound_c * (rhs.bound_c + rhs.lipschitz_L) / (k * rhs.piecewise_constant_pieces)
    return 1.0 if target <= 0.0 else target


# ---------------------------------------------------------------------------
# the induced step function


def resnet_as_rhs(net: ResNetParams) -> Callable[[float, np.ndarray], np.ndarray]:
    """The piecewise-constant-in-time step function a ResNet Euler-steps.

    f(t, x) = R_{i+1}(x) for t in [i/n, (i+1)/n) (last block at t = 1),
    so an Euler solve on the uniform n-partition reproduces the ResNet at
    all time nodes.
    """
    return lambda t, x: eval_pwl(net.block(_piece_of(t, net.n)), x)


# ---------------------------------------------------------------------------
# serialization


def resnet_to_dict(net: ResNetParams) -> dict:
    return {
        "n": net.n,
        "dim": net.dim,
        "pool": [pwl_to_dict(block) for block in net.pool],
        "block_refs": list(net.block_refs),
    }


def resnet_from_dict(doc: dict) -> ResNetParams:
    """The network of a ``resnet_to_dict`` document; a malformed one raises ValueError."""
    if not isinstance(doc, dict):
        raise ValueError(f"a ResNet document is a JSON object, not {type(doc).__name__}")
    n, dim = (int(document_field(doc, key, (int, np.integer), "an integer"))
              for key in ("n", "dim"))
    items, refs = (document_field(doc, key, list, "a list") for key in ("pool", "block_refs"))
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            raise ValueError(f"pool entry {i} is {item!r}, not a PWL block")
        if "format" in item:  # a compiled network, as files stored blocks before
            raise ValueError(f"pool entry {i} is a {item['format']!r} network, not a PWL "
                             "block; the ResNet must be rebuilt")
    pool = tuple(pwl_from_dict(item) for item in items)
    # older files also hold "bound_c" and "lipschitz_L"; no evaluation read them
    net = ResNetParams(pool, tuple(refs), dim)
    if net.n != n:
        raise ValueError(f"declared n {n} does not match {net.n} block references")
    return net


def save_resnet(net: ResNetParams, path) -> None:
    with open(path, "w", newline="\n") as handle:
        handle.write(json.dumps(resnet_to_dict(net)))


def load_resnet(path) -> ResNetParams:
    with open(path) as handle:
        return resnet_from_dict(json.load(handle))
