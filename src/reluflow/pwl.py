"""Piecewise-linear interpolation and exact compilation to ReLU networks.

A PWL function is stored as a vertex-value map over a scaled standard
triangulation, restricted to a cube [-r, r]^d (absent vertices read as
zero).  Around every vertex there are (d+1)! simplices, each carrying a
globally affine function that matches the nodal hat function on it; since
the union of those simplices is convex, the hat function equals the
minimum of the rectified affine pieces everywhere.  A compiled network is
therefore arrays: an integer table G of the (d+1)! hat gradients, shifted
to each vertex v and scaled by its value c into first-layer rows |c| G / h
with biases |c| (1 - G v), one fixed min tree repeated per vertex, and a
last layer summing the trees with the signs of c.  This reproduces the PWL
function exactly on all of R^d.
"""

from __future__ import annotations

import itertools
import json
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Mapping

import numpy as np
import scipy.sparse as sp

from .grid import KuhnGrid, SimplexRef, locate, neighborhood, barycentric, simplex_vertices
from .networks import (
    AffineMap,
    ComplexityReport,
    NetworkParams,
    complexity,
    depth_pad,
    first_layer_free,
    min_tree_network,
)

__all__ = [
    "PWLFunction",
    "NodalPieces",
    "eval_pwl",
    "nodal_pieces",
    "nodal_basis_network",
    "compile_pwl",
    "compiled_depth",
    "interpolate",
    "approximate_lipschitz",
    "FunctionSpec",
    "resolve_function",
    "registry_names",
    "pwl_to_dict",
    "pwl_from_dict",
    "save_pwl",
    "load_pwl",
]


@dataclass(frozen=True)
class PWLFunction:
    """Vertex values over a KuhnGrid, supported inside [-r, r]^d.

    The cube radius must be an integer multiple of the cell size so that
    the cube is a union of simplices.  The induced function interpolates
    the values barycentrically and vanishes outside the stored support.
    Treat the value map as read-only after construction.
    """

    grid: KuhnGrid
    cube_radius: float
    values: Mapping
    output_dim: int = 0  # inferred when 0

    def __post_init__(self) -> None:
        r = float(self.cube_radius)
        if not (r > 0.0 and math.isfinite(r)):
            raise ValueError("cube radius must be a positive finite real")
        cells = r / self.grid.cell_size
        if abs(cells - round(cells)) > 1e-9 * max(1.0, cells) or round(cells) < 1:
            raise ValueError(
                "cube radius must be a positive integer multiple of the cell size"
            )
        cells = int(round(cells))
        norm = {}
        m = self.output_dim
        for vertex, value in self.values.items():
            key = tuple(int(c) for c in vertex)
            if len(key) != self.grid.dim:
                raise ValueError(f"vertex {vertex} has wrong dimension")
            if any(abs(c) > cells for c in key):
                raise ValueError(f"vertex {vertex} lies outside the cube")
            arr = np.atleast_1d(np.asarray(value, dtype=np.float64))
            if m == 0:
                m = arr.shape[0]
            if arr.shape != (m,):
                raise ValueError(f"value at {vertex} has shape {arr.shape}, expected ({m},)")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"value at {vertex} is not finite")
            norm[key] = arr
        if m == 0:
            raise ValueError("output dimension required when no values are stored")
        object.__setattr__(self, "values", norm)
        object.__setattr__(self, "output_dim", m)
        object.__setattr__(self, "cube_radius", r)

    @property
    def degrees_of_freedom(self) -> int:
        return sum(1 for v in self.values.values() if np.any(v != 0.0))

    @property
    def max_value_norm(self) -> float:
        if not self.values:
            return 0.0
        return max(float(np.linalg.norm(v)) for v in self.values.values())


def eval_pwl(f: PWLFunction, x) -> np.ndarray:
    """Barycentric interpolation of the stored vertex values at ``x``.

    This is the reference semantics the compiler is checked against.
    """
    ref, _ = locate(f.grid, x)
    weights = barycentric(f.grid, ref, x, tol=1e-6)
    out = np.zeros(f.output_dim)
    for w, vertex in zip(weights, simplex_vertices(f.grid, ref)):
        value = f.values.get(vertex)
        if value is not None:
            out += w * value
    return out


# ---------------------------------------------------------------------------
# nodal basis functions


@lru_cache(maxsize=None)
def _origin_nodal_coefficients(dim: int) -> tuple:
    """Affine pieces of the origin's hat function on the unit grid.

    Returns (simplex refs, gradient matrix) where row k solves the
    interpolation system on the k-th neighboring simplex: value 1 at the
    origin, 0 at the simplex's other vertices.  The gradients of the hat
    function on this triangulation are integer vectors and the constant
    term is 1, so the solutions are snapped to exact integers.
    """
    refs = tuple(neighborhood(KuhnGrid(dim), (0,) * dim))
    count = len(refs)
    systems = np.empty((count, dim + 1, dim + 1))
    rhs = np.zeros((count, dim + 1))
    origin = (0,) * dim
    for k, ref in enumerate(refs):
        verts = simplex_vertices(KuhnGrid(dim), ref)
        for i, vert in enumerate(verts):
            systems[k, i, :dim] = vert
            systems[k, i, dim] = 1.0
            if vert == origin:
                rhs[k, i] = 1.0
    try:
        coeffs = np.linalg.solve(systems, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:  # nondegenerate simplices: unreachable
        raise RuntimeError("degenerate simplex in nodal interpolation") from exc
    gradients = coeffs[:, :dim]
    constants = coeffs[:, dim]
    snapped = np.rint(gradients)
    if np.abs(gradients - snapped).max() > 1e-9 or np.abs(constants - 1.0).max() > 1e-9:
        raise RuntimeError("nodal coefficients failed the integrality check")
    snapped.setflags(write=False)
    return refs, snapped


@dataclass(frozen=True)
class NodalPieces:
    """The affine functions agreeing with one hat function per simplex."""

    vertex: tuple
    pieces: tuple  # of (SimplexRef, AffineMap with one output row)


def nodal_pieces(grid: KuhnGrid, vertex) -> NodalPieces:
    """Solve the hat-function interpolation around ``vertex``.

    One affine map per neighboring simplex; each equals 1 at the vertex
    and 0 at the other vertices of its simplex.  Piece k is
    g_k(x) = a_k . x + b_k in world coordinates with a_k = grad_k / h and
    b_k = 1 - grad_k . vertex.
    """
    refs, gradients = _origin_nodal_coefficients(grid.dim)
    vertex = tuple(int(c) for c in vertex)
    weights = gradients / grid.cell_size
    biases = 1.0 - gradients @ np.asarray(vertex, dtype=np.float64)
    pieces = tuple(
        (
            SimplexRef(tuple(c + o for c, o in zip(ref.cell, vertex)), ref.perm),
            AffineMap(weights[k : k + 1], biases[k : k + 1]),
        )
        for k, ref in enumerate(refs)
    )
    return NodalPieces(vertex, pieces)


def nodal_basis_network(grid: KuhnGrid, vertex) -> NetworkParams:
    """Exact network for the hat function: min over rectified pieces.

    The compiled PWL function with value 1 at ``vertex``: the (d+1)!
    affine pieces form the first layer (the only data-bearing weights)
    and a fixed min tree follows, giving total depth
    ceil(log2((d+1)!)) + 2.
    """
    vertex = tuple(int(c) for c in vertex)
    radius = (max(abs(c) for c in vertex) + 1) * grid.cell_size
    return compile_pwl(PWLFunction(grid, radius, {vertex: [1.0]}))


def compiled_depth(dim: int) -> int:
    """Depth of every compiled PWL network in a given dimension."""
    return math.ceil(math.log2(math.factorial(dim + 1))) + 2


# ---------------------------------------------------------------------------
# compilation


def _zero_network(dim: int, out_dim: int) -> NetworkParams:
    return NetworkParams((AffineMap(sp.csr_matrix((out_dim, dim)), np.zeros(out_dim)),))


def compile_pwl(f: PWLFunction) -> NetworkParams:
    """Express a PWL function exactly as a ReLU network.

    The result agrees with eval_pwl on all of R^d (up to double-precision
    rounding), has depth ceil(log2((d+1)!)) + 2, and only its first-layer
    entries depend on the data.  Each output component stacks the pieces
    of its N nonzero vertices (sorted) in the first layer, then runs
    kron(I_N, tree layer) and kron(sign(c), last tree layer); components
    share the input and run block-diagonally after it, an identically zero
    one as a depth-padded zero map.  A function without degrees of freedom
    collapses to a single all-zero affine map.
    """
    d = f.grid.dim
    m = f.output_dim
    if f.degrees_of_freedom == 0:
        return _zero_network(d, m)
    _, gradients = _origin_nodal_coefficients(d)
    tree = min_tree_network(f.grid.simplices_per_vertex)
    vertices = sorted(f.values)
    values = np.array([f.values[v] for v in vertices])
    slopes = gradients / f.grid.cell_size
    offsets = 1.0 - np.asarray(vertices, dtype=np.float64) @ gradients.T
    blocks = []
    for c in values.T:
        live = c != 0.0
        count = int(np.count_nonzero(live))
        if count == 0:
            blocks.append(depth_pad(_zero_network(d, 1), compiled_depth(d)).layers)
            continue
        scale = np.abs(c[live])
        first = AffineMap(
            sp.csr_matrix((scale[:, None, None] * slopes).reshape(-1, d)),
            (scale[:, None] * offsets[live]).ravel(),
        )
        # the min tree carries no biases, so only the first layer has any
        repeat = sp.identity(count, format="csr")
        hidden = tuple(
            AffineMap(sp.kron(repeat, tree_layer.weights, format="csr"),
                      np.zeros(count * tree_layer.out_dim))
            for tree_layer in tree.layers[:-1]
        )
        signs = sp.csr_matrix(np.sign(c[live])[None, :])
        last = AffineMap(sp.kron(signs, tree.layers[-1].weights, format="csr"), np.zeros(1))
        blocks.append((first,) + hidden + (last,))
    # the components share the input, then run side by side
    joins = (sp.vstack,) + (sp.block_diag,) * (len(blocks[0]) - 1)
    return NetworkParams(tuple(
        AffineMap(join([block[l].weights for block in blocks], format="csr"),
                  np.concatenate([block[l].bias for block in blocks]))
        for l, join in enumerate(joins)
    ))


# ---------------------------------------------------------------------------
# interpolation and Lipschitz approximation


def interpolate(func: Callable, r: float, delta: float, dim: int) -> PWLFunction:
    """Sample ``func`` on a grid fine enough for modulus ``delta``.

    The cell size is r / ceil(sqrt(dim) * r / delta), so the fineness
    (cell_size * sqrt(dim)) does not exceed delta and the cube is grid
    aligned.  Values are taken at every vertex inside the closed cube,
    boundary included; the induced function vanishes outside.  Sampling
    is sequential, so the callable need not be re-entrant.
    """
    if not (r > 0.0 and math.isfinite(r)):
        raise ValueError("cube radius must be a positive finite real")
    if not delta > 0.0:
        raise ValueError("target fineness must be positive")
    cells = max(1, math.ceil(math.sqrt(dim) * r / delta))
    h = r / cells
    grid = KuhnGrid(dim, h)
    values = {}
    for coords in itertools.product(range(-cells, cells + 1), repeat=dim):
        point = h * np.asarray(coords, dtype=np.float64)
        values[coords] = np.atleast_1d(np.asarray(func(point), dtype=np.float64))
    return PWLFunction(grid, r, values)


def approximate_lipschitz(
    func: Callable,
    lipschitz: float,
    bound: float,
    r: float,
    eps: float,
    dim: int,
) -> tuple[NetworkParams, ComplexityReport]:
    """Compile a network within ``eps`` of an L-Lipschitz function on the cube.

    Interpolates at fineness eps / L (so the modulus-of-continuity bound
    gives sup error <= eps on [-r, r]^d) and compiles exactly.  The output
    never exceeds the largest sampled value norm, hence stays within the
    declared bound everywhere.  The report counts the first layer as free.
    """
    if not eps > 0.0:
        raise ValueError("target accuracy must be positive")
    if lipschitz < 0.0 or bound < 0.0:
        raise ValueError("Lipschitz constant and bound must be nonnegative")
    delta = eps / lipschitz if lipschitz > 0.0 else math.inf
    f_pwl = interpolate(func, r, delta, dim)
    if f_pwl.max_value_norm > bound * (1.0 + 1e-12) + 1e-12:
        warnings.warn(
            f"sampled values reach norm {f_pwl.max_value_norm:.6g}, above the "
            f"declared bound {bound:.6g}",
            stacklevel=2,
        )
    net = compile_pwl(f_pwl)
    return net, complexity(net, first_layer_free(net))


# ---------------------------------------------------------------------------
# named function registry (CLI-facing)


@dataclass(frozen=True)
class FunctionSpec:
    """A named componentwise map R^d -> R^d with declared constants."""

    name: str
    factory: Callable  # dim -> callable on (d,) arrays
    lipschitz: Callable  # (dim, radius) -> float
    bound: Callable  # (dim, radius) -> float
    globally_bounded: bool


def _componentwise(fn):
    return lambda dim: (lambda x: fn(np.asarray(x, dtype=np.float64)))


_REGISTRY = {
    "zero": FunctionSpec(
        "zero",
        lambda dim: (lambda x: np.zeros_like(np.asarray(x, dtype=np.float64))),
        lambda dim, radius: 0.0,
        lambda dim, radius: 0.0,
        True,
    ),
    "sin": FunctionSpec(
        "sin", _componentwise(np.sin),
        lambda dim, radius: 1.0, lambda dim, radius: math.sqrt(dim), True,
    ),
    "cos": FunctionSpec(
        "cos", _componentwise(np.cos),
        lambda dim, radius: 1.0, lambda dim, radius: math.sqrt(dim), True,
    ),
    "tanh": FunctionSpec(
        "tanh", _componentwise(np.tanh),
        lambda dim, radius: 1.0, lambda dim, radius: math.sqrt(dim), True,
    ),
}


def _poly_spec(coeffs: tuple) -> FunctionSpec:
    poly = np.polynomial.Polynomial(coeffs)
    deriv = poly.deriv()

    def scan_max(p, radius: float) -> float:
        if not math.isfinite(radius):
            raise ValueError("polynomial constants need a finite radius")
        xs = np.linspace(-radius, radius, 4097)
        # dense-scan estimate; the 2% margin absorbs between-sample peaks
        return float(np.abs(p(xs)).max()) * 1.02

    return FunctionSpec(
        "poly",
        lambda dim: (lambda x: poly(np.asarray(x, dtype=np.float64))),
        lambda dim, radius: scan_max(deriv, radius),
        lambda dim, radius: math.sqrt(dim) * scan_max(poly, radius),
        len(coeffs) <= 1,
    )


def registry_names() -> tuple:
    return tuple(sorted(_REGISTRY)) + ("poly:c0,c1,...",)


def resolve_function(spec: str) -> FunctionSpec:
    """Look up a function by name; ``poly:c0,c1,...`` builds a polynomial."""
    if spec in _REGISTRY:
        return _REGISTRY[spec]
    if spec.startswith("poly:"):
        try:
            coeffs = tuple(float(tok) for tok in spec[5:].split(","))
        except ValueError:
            raise ValueError(f"bad polynomial coefficients in {spec!r}") from None
        if not coeffs:
            raise ValueError("polynomial needs at least one coefficient")
        return _poly_spec(coeffs)
    raise ValueError(f"unknown function {spec!r}; known: {', '.join(registry_names())}")


# ---------------------------------------------------------------------------
# file format


def pwl_to_dict(f: PWLFunction) -> dict:
    return {
        "dim": f.grid.dim,
        "h": f.grid.cell_size,
        "r": f.cube_radius,
        "values": [
            {"vertex": list(vertex), "value": f.values[vertex].tolist()}
            for vertex in sorted(f.values)
        ],
    }


def pwl_from_dict(doc: dict) -> PWLFunction:
    grid = KuhnGrid(int(doc["dim"]), float(doc["h"]))
    values = {tuple(item["vertex"]): np.asarray(item["value"], dtype=np.float64)
              for item in doc["values"]}
    if not values:
        raise ValueError("PWL file stores no vertex values")
    return PWLFunction(grid, float(doc["r"]), values)


def save_pwl(f: PWLFunction, path) -> None:
    with open(path, "w", newline="\n") as handle:
        json.dump(pwl_to_dict(f), handle)


def load_pwl(path) -> PWLFunction:
    with open(path) as handle:
        return pwl_from_dict(json.load(handle))
