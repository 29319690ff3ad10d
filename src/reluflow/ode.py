"""ODE machinery: Euler schemes, a reference solver, and error constants.

``euler_solve`` steps any function f(t, x), such as the one a ResNet's
blocks define (``resnet.resnet_as_rhs``), on the uniform mesh of n steps,
0, 1/n, ..., 1.  The reference solver is a classical 4th-order integrator
of an ``RhsSpec`` on that mesh, with step halving; it stands in for the
exact solution wherever one is needed as an oracle.  Its stages call the
spec's f and check each result once, inline.  Both solvers take one initial
value (d,) or a batch (P, d).  They write each stage input and each next
state into arrays they own, one for each stage, with the operations of the
plain formulas in their order, so the states are the formulas' to the bit;
they never write into an array that f returned, which may be its input or
one array returned every call.  The error constant is the computable bound
used throughout: the error estimate, with its explicit Gronwall factor, for
Euler schemes whose step directions are mildly wrong.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "RhsSpec",
    "Trajectory",
    "OracleConvergenceError",
    "euler_solve",
    "uniforms",
    "reference_solve",
    "perturbed_euler_bound",
]

# States of one RK4 mesh the reference solver may allocate.  The last
# comparison also holds the previous mesh and two temporaries of its size,
# so the peak is up to about 2.5 times this.
ORACLE_STATE_BYTES = 2**29


class OracleConvergenceError(RuntimeError):
    """The reference solver did not converge within its halving budget."""


def uniforms(rng: random.Random, count: int) -> np.ndarray:
    """count float64 uniforms in [0, 1) from one getrandbits call: the top 53 bits of each
    little-endian 64-bit word times 2**-53.  Under numpy >= 2 it spares numpy.random's 6 MiB.
    Successive calls on one ``rng`` draw the words of one call for their total count."""
    words = np.frombuffer(rng.getrandbits(64 * count).to_bytes(8 * count, "little"), "<u8")
    return (words >> np.uint64(11)) * 2.0**-53


def _piece_of(t: float, pieces: int) -> int:
    """Index i of the piece [i/p, (i+1)/p) of [0, 1] holding t, the last piece
    closed at t = 1; the guess int(t p) is corrected against the exact ends."""
    i = min(int(t * pieces), pieces - 1)
    if i + 1 < pieces and t >= (i + 1) / pieces:
        i += 1
    elif i > 0 and t < i / pieces:
        i -= 1
    return i


@dataclass(frozen=True)
class RhsSpec:
    """A right-hand side f(t, x) on [0, 1] x R^d with declared constants.

    Parameters
    ----------
    f : callable
        Maps (t, x) with x of shape (..., dim) to an array of shape
        (..., dim), one row per point.  Calling the spec converts f's result
        to float64 and refuses any other shape; RK4 stages do so inline.
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

    The constants are a caller contract, which no builder or command samples:
    the tests pin those of the registry, and a library caller may sample
    others with ``spot_check``, which warns (never raises) on violations.
    """

    f: Callable
    dim: int
    bound_c: float
    lipschitz_L: float
    piecewise_constant_pieces: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "dim", whole_count(self.dim, "state dimension"))
        if self.dim < 1:
            raise ValueError("state dimension must be positive")
        if not self.bound_c >= 0.0:
            raise ValueError("declared bound must be nonnegative")
        if not (self.lipschitz_L >= 0.0 and math.isfinite(self.lipschitz_L)):
            raise ValueError("declared Lipschitz constant must be finite and nonnegative")
        p = self.piecewise_constant_pieces
        if p is not None:
            p = whole_count(p, "piecewise-constant piece count")
            if p < 1:
                raise ValueError("piecewise-constant piece count must be a positive integer")
            object.__setattr__(self, "piecewise_constant_pieces", p)

    def __call__(self, t: float, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return self._result(self.f(t, x), x.shape)

    def _result(self, out, shape: tuple) -> np.ndarray:
        out = np.asarray(out, dtype=np.float64)
        if out.shape != shape or shape[-1:] != (self.dim,):
            raise ValueError(
                f"right-hand side in R^{self.dim} returned shape {out.shape} "
                f"for points of shape {shape}"
            )
        return out

    def spot_check(self, radius: float = 5.0, samples: int = 1000, seed: int = 0) -> list:
        """Sample the declared constants; warn on violations, never raise on them.

        Draws (x, y) pairs uniform in [-radius, radius]^d at ten sample
        times from ``random.Random(seed)``, one batched call of f per time,
        and checks the bound, the spatial Lipschitz constant and, when
        declared, constancy inside each time piece.  Returns the list of
        issue messages (empty when everything held).  Raises ValueError
        unless samples >= 1 and 0 < radius < inf.
        """
        if not (samples >= 1 and 0.0 < radius < math.inf):
            raise ValueError(
                f"spot check needs samples >= 1 and 0 < radius < inf, not {samples} and {radius}"
            )
        rng = random.Random(seed)
        slack = 1e-9
        worst_bound = worst_lip = worst_piece = 0.0
        p = self.piecewise_constant_pieces
        rows = 2 * math.ceil(samples / 10)
        for _ in range(10):
            t = rng.random()
            xy = radius * (2.0 * uniforms(rng, rows * self.dim).reshape(rows, self.dim) - 1.0)
            (x, y), (fx, fy) = np.split(xy, 2), np.split(self(t, xy), 2)
            norms = np.linalg.norm([fx, fx - fy, x - y], axis=-1)
            worst_bound = max(worst_bound, float(norms[0].max()) - self.bound_c)
            worst_lip = max(worst_lip, float((norms[1] - self.lipschitz_L * norms[2]).max()))
            if p is not None:  # f at a second time of the same piece
                i = _piece_of(t, p)
                s = rng.uniform(i / p, min((i + 1) / p, 1.0))
                gap = np.linalg.norm(fx - self(s, x), axis=1)
                worst_piece = max(worst_piece, float(gap.max()))
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
    """The n + 1 states (time leads) on the mesh 0, 1/n, ..., 1, linear in between."""

    states: np.ndarray

    def __post_init__(self) -> None:
        states = np.atleast_2d(np.asarray(self.states, dtype=np.float64))
        if states.shape[0] < 2:
            raise ValueError("a trajectory needs at least two states")
        if not np.all(np.isfinite(states)):
            raise ValueError("trajectory states must be finite")
        object.__setattr__(self, "states", states)

    @property
    def times(self) -> np.ndarray:
        return _mesh(self.states.shape[0] - 1)

    def at(self, t) -> np.ndarray:
        """State at time t, or at an array of times (its shape leads).

        Exact on mesh points, linear in between; a time outside [0, 1] (NaN
        included) is rejected.  Holds its result and one state's temporaries: a
        time off the mesh is interpolated in place.
        """
        t, times = np.asarray(t, dtype=np.float64), self.times
        outside = ~((t >= 0.0) & (t <= 1.0))
        if np.any(outside):
            raise ValueError(f"time {t[outside].flat[0]} outside [0, 1]")
        hi = np.searchsorted(times, t.ravel())
        lo = np.where(times[hi] == t.ravel(), hi, hi - 1)
        out = self.states[lo]  # a copy: the state at each time's mesh point or left end
        off = np.flatnonzero(lo != hi)
        lo, hi = lo[off], hi[off]
        thetas = (t.ravel()[off] - times[lo]) / (times[hi] - times[lo])
        for k, theta, j in zip(off.tolist(), thetas.tolist(), hi.tolist()):
            out[k] += theta * (self.states[j] - out[k])
        return out.reshape(t.shape + self.states.shape[1:])


def _mesh(n: int) -> np.ndarray:
    return np.array([i / n for i in range(n + 1)])


def whole_count(n, name: str) -> int:
    """n as an int; a ValueError naming a bool or a count that is not integral."""
    if isinstance(n, (bool, np.bool_)) or not (isinstance(n, int) or float(n).is_integer()):
        raise ValueError(f"{name} must be a positive integer, not {n!r}")
    return int(n)


def _initial_states(y0, dim: int) -> np.ndarray:
    x = np.atleast_1d(np.asarray(y0, dtype=np.float64))
    if x.ndim > 2 or x.shape[-1] != dim:
        raise ValueError(f"initial value shape {x.shape} is not ({dim},) or (P, {dim})")
    return x


def euler_solve(f: Callable, y0, n: int) -> Trajectory:
    """Explicit Euler scheme on the uniform mesh of n steps, t_i = i/n.

    Steps x_{i+1} = x_i + (t_{i+1} - t_i) * f(t_i, x_i), where f(t, x)
    returns an array shaped like x (an ``RhsSpec`` is such an f); the
    returned trajectory interpolates linearly, which matches the integral
    form with the piecewise-constant integrand frozen at the left endpoints.
    """
    n = whole_count(n, "Euler step count")
    if n < 1:
        raise ValueError("an Euler solve needs at least one step")
    times = _mesh(n)
    x = np.atleast_1d(np.asarray(y0, dtype=np.float64))
    states = np.empty(times.shape + x.shape)
    states[0] = x
    for i in range(n):
        # x + (dt * f(t, x)), written straight into the next state
        step = np.multiply(times[i + 1] - times[i], f(times[i], states[i]), states[i + 1])
        np.add(states[i], step, step)
    return Trajectory(states)


def _rk4_path(rhs: RhsSpec, y0: np.ndarray, n: int) -> np.ndarray:
    """Classical RK4 states on the uniform n-step mesh.

    For right-hand sides declared piecewise constant in time (with the
    mesh aligned to the pieces) all stage evaluations freeze the time at
    the piece start: that is the exact integrand there, and it keeps the
    scheme at full order across the jumps.  Each stage calls ``rhs.f`` once
    and takes a float64 ndarray shaped like y0 as it is; any other result
    goes through the check of ``rhs(t, x)``, which converts or refuses it.
    """
    p = rhs.piecewise_constant_pieces
    freeze = p is not None and n % p == 0
    states = np.empty((n + 1,) + y0.shape)
    states[0] = y0
    # the inputs of stages 2, 3 and 4 each have a buffer, as has the term 2 k3: the rhs may
    # return its input, and no stage is written over while a later one still reads it
    second, third, fourth, twice_k3 = np.empty((4,) + y0.shape)
    h = 1.0 / n
    # the factors as 0-d arrays: numpy multiplies by one faster than by a Python float
    half, whole, sixth, two = (np.array(factor) for factor in (0.5 * h, h, h / 6.0, 2.0))
    # a step costs little more than its 4 calls of f and 13 ufuncs: all it reads is local
    f, check, shape, add, multiply = rhs.f, rhs._result, y0.shape, np.add, np.multiply
    array, f64 = np.ndarray, np.dtype(np.float64)
    for i in range(n):
        t0 = i / n
        ta, tb, tc = ((i * p // n) / p,) * 3 if freeze else (t0, t0 + 0.5 * h, t0 + h)
        x, out = states[i], states[i + 1]
        # each ufunc writes into its third argument
        k1 = f(ta, x)
        k1 = k1 if type(k1) is array and k1.dtype is f64 and k1.shape == shape else check(k1, shape)
        k2 = f(tb, add(x, multiply(half, k1, second), second))
        k2 = k2 if type(k2) is array and k2.dtype is f64 and k2.shape == shape else check(k2, shape)
        k3 = f(tb, add(x, multiply(half, k2, third), third))
        k3 = k3 if type(k3) is array and k3.dtype is f64 and k3.shape == shape else check(k3, shape)
        k4 = f(tc, add(x, multiply(whole, k3, fourth), fourth))
        k4 = k4 if type(k4) is array and k4.dtype is f64 and k4.shape == shape else check(k4, shape)
        # x + (h / 6) (k1 + 2 k2 + 2 k3 + k4), summed left to right into the next state
        add(k1, multiply(two, k2, out), out)
        add(out, multiply(two, k3, twice_k3), out)
        add(out, k4, out)
        add(x, multiply(sixth, out, out), out)
    return states


def reference_solve(rhs: RhsSpec, y0, tol: float, initial_steps: int | None = None) -> Trajectory:
    """High-accuracy oracle trajectory via RK4 with step halving.

    Halves the step until two successive refinements differ by less than
    tol/10 in the sup norm over the coarser mesh and every point of the
    batch, then returns the finer trajectory; the result is trusted up to
    an error budget of ``tol``.  ``initial_steps`` seeds the mesh (8 when
    None; handy to make sample times exact mesh points); declared
    piecewise-constant right-hand sides start from a piece-aligned mesh.

    Raises
    ------
    OracleConvergenceError
        After 20 halvings without meeting the criterion, which usually
        signals a non-smooth or mis-declared right-hand side, or before
        allocating a mesh whose states exceed ``ORACLE_STATE_BYTES``.
    """
    if not tol > 0.0:
        raise ValueError("oracle tolerance must be positive")
    y0 = _initial_states(y0, rhs.dim)
    base = 8 if initial_steps is None else whole_count(initial_steps, "initial step count")
    if base < 1:
        raise ValueError("initial step count must be positive")
    p = rhs.piecewise_constant_pieces
    n = math.lcm(base, p) if p else base
    prev = diff = None
    for _ in range(21):  # the initial mesh, then up to 20 halvings
        need = (n + 1) * y0.nbytes
        if need > ORACLE_STATE_BYTES:
            moved = "no two meshes compared yet" if diff is None else f"still moving by {diff:.3e}"
            raise OracleConvergenceError(
                f"reference solver would need {need} bytes of states for {n} steps (budget "
                f"{ORACLE_STATE_BYTES}); {moved} (target {tol / 10.0:.3e})"
            )
        cur = _rk4_path(rhs, y0, n)
        if prev is not None:
            diff = float(np.linalg.norm(cur[::2] - prev, axis=-1).max())
            if diff < tol / 10.0:
                return Trajectory(cur)
        prev, n = cur, 2 * n
    raise OracleConvergenceError(
        f"reference solver still moving by {diff:.3e} after 20 halvings "
        f"(target {tol / 10.0:.3e}); the right-hand side may be rougher than declared"
    )


# ---------------------------------------------------------------------------
# computable error constants


def perturbed_euler_bound(eps: float, c: float, n: int, lipschitz_l1: float) -> float:
    """A-priori sup error of an n-step Euler scheme with eps-wrong directions.

    The scheme follows directions z_i with ||z_i - f(t, x(t_i))|| <= eps
    and ||z_i|| <= c; the resulting bound is (1 + L e^L) (eps + (c / n) L),
    with the explicit Gronwall factor 1 + L e^L.
    """
    if not (eps >= 0.0 and c >= 0.0 and lipschitz_l1 >= 0.0):
        raise ValueError("eps, bound and Lipschitz weight must be nonnegative")
    if whole_count(n, "step count") < 1:
        raise ValueError("step count must be a positive integer")
    return (1.0 + lipschitz_l1 * math.exp(lipschitz_l1)) * (eps + (c / n) * lipschitz_l1)

