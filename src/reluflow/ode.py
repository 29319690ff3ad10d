"""ODE machinery: Euler schemes, a reference solver, and error constants.

The reference solver is a fixed-step classical 4th-order integrator with
step halving; it stands in for the exact solution wherever one is needed
as an oracle.  The error constants implement the computable bounds used
throughout: the explicit Gronwall factor, the continuity estimate for
the solution map, and the error estimate for Euler schemes whose step
directions are mildly wrong.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "RhsSpec",
    "Trajectory",
    "OracleConvergenceError",
    "euler_solve",
    "uniform_partition",
    "reference_solve",
    "gronwall_constant",
    "solution_map_bound",
    "perturbed_euler_bound",
]


class OracleConvergenceError(RuntimeError):
    """The reference solver did not converge within its halving budget."""


@dataclass(frozen=True)
class RhsSpec:
    """A right-hand side f(t, x) on [0, 1] x R^d with declared constants.

    Parameters
    ----------
    f : callable
        Maps (t, x) with x of shape (dim,) to an array of shape (dim,).
    dim : int
        State dimension d.
    bound_c : float
        Declared uniform bound on the Euclidean norm of f (may be inf if
        unknown).
    lipschitz_L : float
        Declared spatial Lipschitz constant.
    piecewise_constant_pieces : int, optional
        When set to p, asserts f(t, .) is constant on every interval
        [i/p, (i+1)/p).

    The constants are a caller contract; ``spot_check`` samples them and
    warns (never raises) on violations.
    """

    f: Callable
    dim: int
    bound_c: float
    lipschitz_L: float
    piecewise_constant_pieces: int | None = None

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("state dimension must be positive")
        if not self.bound_c >= 0.0:
            raise ValueError("declared bound must be nonnegative")
        if not (self.lipschitz_L >= 0.0 and math.isfinite(self.lipschitz_L)):
            raise ValueError("declared Lipschitz constant must be finite and nonnegative")
        p = self.piecewise_constant_pieces
        if p is not None and (int(p) != p or p < 1):
            raise ValueError("piecewise-constant piece count must be a positive integer")

    def __call__(self, t: float, x) -> np.ndarray:
        out = np.asarray(self.f(t, np.asarray(x, dtype=np.float64)), dtype=np.float64)
        if out.shape != (self.dim,) and out.shape[-1:] != (self.dim,):
            raise ValueError(
                f"right-hand side returned shape {out.shape}, expected (..., {self.dim})"
            )
        return out

    def piece_of(self, t: float) -> int:
        """Index of the declared constant-in-time piece containing t."""
        p = self.piecewise_constant_pieces
        if p is None:
            raise ValueError("right-hand side is not declared piecewise constant")
        i = min(int(t * p), p - 1)
        if i + 1 < p and t >= (i + 1) / p:
            i += 1
        elif i > 0 and t < i / p:
            i -= 1
        return i

    def spot_check(self, radius: float = 5.0, samples: int = 1000, seed: int = 0) -> list:
        """Sample the declared constants; warn on violations, never raise.

        Draws (t, x, y) triples with x, y uniform in [-radius, radius]^d
        and checks the bound, the spatial Lipschitz constant and, when
        declared, constancy inside each time piece.  Returns the list of
        issue messages (empty when everything held).
        """
        rng = np.random.default_rng(seed)
        slack = 1e-9
        worst_bound = 0.0
        worst_lip = 0.0
        worst_piece = 0.0
        p = self.piecewise_constant_pieces
        for _ in range(samples):
            t = float(rng.uniform(0.0, 1.0))
            x = rng.uniform(-radius, radius, self.dim)
            y = rng.uniform(-radius, radius, self.dim)
            fx = self(t, x)
            fy = self(t, y)
            worst_bound = max(worst_bound, float(np.linalg.norm(fx)) - self.bound_c)
            gap = float(np.linalg.norm(fx - fy)) - self.lipschitz_L * float(
                np.linalg.norm(x - y)
            )
            worst_lip = max(worst_lip, gap)
            if p is not None:
                i = self.piece_of(t)
                s = float(rng.uniform(i / p, min((i + 1) / p, 1.0)))
                worst_piece = max(worst_piece, float(np.linalg.norm(fx - self(s, x))))
        issues = []
        if worst_bound > slack * (1.0 + self.bound_c):
            issues.append(f"declared bound exceeded by {worst_bound:.3e}")
        if worst_lip > slack * (1.0 + self.lipschitz_L) * radius:
            issues.append(f"declared Lipschitz constant exceeded by {worst_lip:.3e}")
        if worst_piece > slack:
            issues.append(
                f"declared piecewise-constant structure violated by {worst_piece:.3e}"
            )
        for message in issues:
            warnings.warn(f"right-hand side spot check: {message}", stacklevel=2)
        return issues


@dataclass(frozen=True)
class Trajectory:
    """States on a time mesh in [0, 1], linearly interpolated in between."""

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=np.float64)
        states = np.atleast_2d(np.asarray(self.states, dtype=np.float64))
        if times.ndim != 1 or times.shape[0] != states.shape[0]:
            raise ValueError("need one state per time point")
        if times[0] != 0.0 or times[-1] > 1.0:
            raise ValueError("trajectory times must start at 0 and stay within [0, 1]")
        if np.any(np.diff(times) <= 0.0):
            raise ValueError("trajectory times must be strictly increasing")
        if not np.all(np.isfinite(states)):
            raise ValueError("trajectory states must be finite")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)

    def at(self, t: float) -> np.ndarray:
        """State at time t; exact on mesh points, linear in between."""
        t = float(t)
        if t < 0.0 or t > self.times[-1]:
            raise ValueError(f"time {t} outside [0, {self.times[-1]}]")
        i = int(np.searchsorted(self.times, t))
        if i < self.times.shape[0] and self.times[i] == t:
            return self.states[i].copy()
        theta = (t - self.times[i - 1]) / (self.times[i] - self.times[i - 1])
        return self.states[i - 1] + theta * (self.states[i] - self.states[i - 1])


def uniform_partition(n: int) -> np.ndarray:
    """The partition 0, 1/n, ..., 1."""
    if n < 1:
        raise ValueError("partition needs at least one step")
    return np.array([i / n for i in range(n + 1)])


def euler_solve(rhs: RhsSpec, y0, partition) -> Trajectory:
    """Explicit Euler scheme on the given partition of [0, 1].

    Steps x_{i+1} = x_i + (t_{i+1} - t_i) * f(t_i, x_i); the returned
    trajectory interpolates linearly, which matches the integral form
    with the piecewise-constant integrand frozen at the left endpoints.
    """
    times = np.asarray(partition, dtype=np.float64)
    if times.ndim != 1 or times.shape[0] < 2:
        raise ValueError("partition needs at least two points")
    if times[0] != 0.0 or times[-1] != 1.0:
        raise ValueError("partition must run from 0 to 1")
    if np.any(np.diff(times) <= 0.0):
        raise ValueError("partition must be strictly increasing")
    x = np.atleast_1d(np.asarray(y0, dtype=np.float64))
    if x.shape != (rhs.dim,):
        raise ValueError(f"initial value has shape {x.shape}, expected ({rhs.dim},)")
    states = np.empty((times.shape[0], rhs.dim))
    states[0] = x
    for i in range(times.shape[0] - 1):
        x = x + (times[i + 1] - times[i]) * rhs(times[i], x)
        states[i + 1] = x
    return Trajectory(times, states)


def _rk4_path(rhs: RhsSpec, y0: np.ndarray, n: int) -> np.ndarray:
    """Classical RK4 states on the uniform n-step mesh.

    For right-hand sides declared piecewise constant in time (with the
    mesh aligned to the pieces) all stage evaluations freeze the time at
    the piece start: that is the exact integrand there, and it keeps the
    scheme at full order across the jumps.
    """
    p = rhs.piecewise_constant_pieces
    freeze = p is not None and n % p == 0
    x = y0
    states = np.empty((n + 1, y0.shape[0]))
    states[0] = x
    h = 1.0 / n
    for i in range(n):
        t0 = i / n
        if freeze:
            ta = tb = tc = (i * p // n) / p
        else:
            ta, tb, tc = t0, t0 + 0.5 * h, t0 + h
        k1 = rhs(ta, x)
        k2 = rhs(tb, x + 0.5 * h * k1)
        k3 = rhs(tb, x + 0.5 * h * k2)
        k4 = rhs(tc, x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states[i + 1] = x
    return states


def reference_solve(rhs: RhsSpec, y0, tol: float, initial_steps: int | None = None) -> Trajectory:
    """High-accuracy oracle trajectory via RK4 with step halving.

    Halves the step until two successive refinements differ by less than
    tol/10 in the sup norm over the coarser mesh, then returns the finer
    trajectory; the result is trusted up to an error budget of ``tol``.
    ``initial_steps`` seeds the mesh (handy to make sample times exact
    mesh points); declared piecewise-constant right-hand sides start from
    a piece-aligned mesh.

    Raises
    ------
    OracleConvergenceError
        After 20 halvings without meeting the criterion, which usually
        signals a non-smooth or mis-declared right-hand side.
    """
    if not tol > 0.0:
        raise ValueError("oracle tolerance must be positive")
    y0 = np.atleast_1d(np.asarray(y0, dtype=np.float64))
    if y0.shape != (rhs.dim,):
        raise ValueError(f"initial value has shape {y0.shape}, expected ({rhs.dim},)")
    base = int(initial_steps) if initial_steps else 8
    if base < 1:
        raise ValueError("initial step count must be positive")
    p = rhs.piecewise_constant_pieces
    n = math.lcm(base, p) if p else base
    prev = _rk4_path(rhs, y0, n)
    for _ in range(20):
        n *= 2
        cur = _rk4_path(rhs, y0, n)
        diff = float(np.linalg.norm(cur[::2] - prev, axis=1).max())
        if diff < tol / 10.0:
            return Trajectory(uniform_partition(n), cur)
        prev = cur
    raise OracleConvergenceError(
        f"reference solver still moving by {diff:.3e} after 20 halvings "
        f"(target {tol / 10.0:.3e}); the right-hand side may be rougher than declared"
    )


# ---------------------------------------------------------------------------
# computable error constants


def gronwall_constant(beta_l1: float) -> float:
    """Explicit constant 1 + b * exp(b) for integrated Lipschitz weight b."""
    if not beta_l1 >= 0.0:
        raise ValueError("integrated Lipschitz weight must be nonnegative")
    return 1.0 + beta_l1 * math.exp(beta_l1)


def solution_map_bound(init_gap: float, rhs_gap_l1: float, lipschitz_l1: float) -> float:
    """Sup distance of two solutions from initial and right-hand-side gaps."""
    if init_gap < 0.0 or rhs_gap_l1 < 0.0 or lipschitz_l1 < 0.0:
        raise ValueError("all gaps and constants must be nonnegative")
    return gronwall_constant(lipschitz_l1) * (init_gap + rhs_gap_l1)


def perturbed_euler_bound(eps: float, c: float, n: int, lipschitz_l1: float) -> float:
    """A-priori sup error of an n-step Euler scheme with eps-wrong directions.

    The scheme follows directions z_i with ||z_i - f(t, x(t_i))|| <= eps
    and ||z_i|| <= c; the resulting bound is
    gronwall_constant(L) * (eps + (c / n) * L).
    """
    if eps < 0.0 or c < 0.0 or lipschitz_l1 < 0.0:
        raise ValueError("eps, bound and Lipschitz weight must be nonnegative")
    if n < 1 or int(n) != n:
        raise ValueError("step count must be a positive integer")
    return gronwall_constant(lipschitz_l1) * (eps + (c / n) * lipschitz_l1)

