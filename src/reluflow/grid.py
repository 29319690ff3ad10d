"""Scaled standard triangulation of R^d (Kuhn/Freudenthal subdivision).

Every lattice cell ``h*[k, k+1]^d`` splits into d! simplices, one per
permutation of the coordinates: the simplex for permutation ``perm``
contains the points whose local offsets satisfy
``0 <= y[perm[0]] <= ... <= y[perm[d-1]] <= 1``.  The triangulation is
implicit and infinite; vertices are integer lattice coordinates (world
position = cell_size * coords).  ``locate``, ``barycentric`` and
``simplex_vertices`` take one point (d,) or a (..., d) batch and return
int64 and float arrays with the same leading axes.

All functions are pure and the grid descriptor is immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "SimplexRef",
    "KuhnGrid",
    "locate",
    "simplex_vertices",
    "barycentric",
]


class SimplexRef(NamedTuple):
    """A simplex, addressed by its lattice cell corner and a permutation.

    ``perm`` is 0-based: perm[0] is the coordinate with the smallest local
    offset inside the cell, perm[-1] the one with the largest.  Both are
    (..., d) integer arrays, one row per simplex.
    """

    cell: np.ndarray
    perm: np.ndarray


@dataclass(frozen=True)
class KuhnGrid:
    """Descriptor of the standard triangulation scaled by ``cell_size``."""

    dim: int
    cell_size: float = 1.0

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("grid dimension must be positive")
        h = float(self.cell_size)
        if not (h > 0.0 and math.isfinite(h)):
            raise ValueError("cell size must be a positive finite real")
        object.__setattr__(self, "cell_size", h)

    @property
    def fineness(self) -> float:
        """Largest simplex diameter: cell_size * sqrt(dim)."""
        return self.cell_size * math.sqrt(self.dim)

    @property
    def simplices_per_vertex(self) -> int:
        """Number of simplices meeting at any vertex: (dim+1)!."""
        return math.factorial(self.dim + 1)


def locate(grid: KuhnGrid, x) -> tuple[SimplexRef, np.ndarray]:
    """Find a simplex containing ``x`` and the local cell offsets.

    The cell is floor(x / h); the permutation sorts the fractional parts
    ascending, with ties broken by coordinate index so that points on
    shared faces resolve deterministically.  The SimplexRef holds (..., d)
    int64 arrays, (d,) for one point.
    """
    u = np.asarray(x, dtype=np.float64) / grid.cell_size
    cell = np.floor(u)
    local = u - cell
    order = np.argsort(local, axis=-1, kind="stable")
    return SimplexRef(cell.astype(np.int64), order), local


def simplex_vertices(grid: KuhnGrid, s: SimplexRef) -> np.ndarray:
    """The d+1 lattice vertices, walking from the cell corner.

    Successive vertices add the unit vectors in reverse permutation
    order, so the corner comes first and the opposite corner last: corner
    k adds 1 on the coordinates among the last k of ``perm``.  The result
    is a (..., d+1, d) int64 array, (d+1, d) for one simplex.
    """
    reverse = np.asarray(s.perm)[..., ::-1]
    rank = np.argsort(reverse, axis=-1)  # rank[j]: the position of coordinate j in reverse
    steps = rank[..., None, :] < np.arange(reverse.shape[-1] + 1)[:, None]
    return np.asarray(s.cell, dtype=np.int64)[..., None, :] + steps


def barycentric(grid: KuhnGrid, s: SimplexRef, x, tol: float = 1e-9) -> np.ndarray:
    """Convex weights of ``x`` w.r.t. simplex_vertices(grid, s).

    Uses the closed form for the sorted local offsets: with
    y_(1) <= ... <= y_(d) the weights are (1 - y_(d), y_(d) - y_(d-1),
    ..., y_(2) - y_(1), y_(1)); they telescope to 1.  Rejects points
    outside the simplex beyond ``tol`` (measured in cell units, i.e.
    tol * cell_size in world distance).  A batch gets (..., d+1)
    weights, and the error names its first point outside its simplex.
    """
    y = np.asarray(x, dtype=np.float64) / grid.cell_size - np.asarray(s.cell, dtype=np.float64)
    ys = np.take_along_axis(y, np.asarray(s.perm), axis=-1)
    weights = np.concatenate(
        [1.0 - ys[..., -1:], ys[..., :0:-1] - ys[..., -2::-1], ys[..., :1]], -1
    )
    outside = weights < -tol
    if outside.any():  # argwhere only on failure: it costs more than the check
        i = tuple(np.argwhere(outside.any(axis=-1))[0])
        ref = SimplexRef(*(tuple(int(c) for c in np.asarray(part)[i]) for part in s))
        raise ValueError(
            f"point {np.asarray(x)[i]} lies outside simplex {ref} "
            f"(weight deficit {float(weights[i].min()):.3e})"
        )
    return weights

