"""Piecewise-linear interpolation and exact compilation to ReLU networks.

A PWL function is stored as two arrays over a scaled standard
triangulation, restricted to a cube [-r, r]^d: its (V, d) integer
vertices and their (V, m) values (absent vertices read as zero).  Around
every vertex there are (d+1)! simplices, each carrying a globally affine
function that matches the nodal hat function on it; since the union of
those simplices is convex, the hat function equals the minimum of the
rectified affine pieces everywhere.  A compiled network is
therefore arrays: an integer table G of the (d+1)! hat gradients, shifted
to each vertex v and scaled by its value c into first-layer rows |c| G / h
with biases |c| (1 - G v), one fixed min tree repeated per vertex, and a
last layer summing the trees with the signs of c.  This reproduces the PWL
function exactly on all of R^d.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .grid import KuhnGrid, SimplexRef, barycentric, locate, neighborhood, simplex_vertices
from .networks import (
    AffineMap,
    ComplexityReport,
    NetworkParams,
    complexity,
    first_layer_free,
    integer_field,
    min_tree_network,
)

__all__ = [
    "PWLFunction",
    "eval_pwl",
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

    ``vertices`` is a (V, d) integer array of lattice vertices inside the
    cube and ``values`` the (V, m) matrix of their values; the constructor
    sorts the rows lexicographically by vertex and stores both read-only.
    The cube radius must be an integer multiple of the cell size so that
    the cube is a union of simplices.  The induced function interpolates
    the values barycentrically and vanishes outside the stored support.
    """

    grid: KuhnGrid
    cube_radius: float
    vertices: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        r = float(self.cube_radius)
        if not (r > 0.0 and math.isfinite(r)):
            raise ValueError("cube radius must be a positive finite real")
        cells = r / self.grid.cell_size
        if abs(cells - round(cells)) > 1e-9 * max(1.0, cells) or round(cells) < 1:
            raise ValueError("cube radius must be a positive integer multiple of the cell size")
        cells = int(round(cells))
        coords = np.asarray(self.vertices)
        values = np.asarray(self.values, dtype=np.float64)
        if coords.ndim != 2 or coords.shape[1] != self.grid.dim:
            raise ValueError(f"vertex array shape {coords.shape} is not (V, {self.grid.dim})")
        if values.ndim != 2 or values.shape[0] != len(coords) or values.shape[1] < 1:
            raise ValueError(f"value matrix shape {values.shape} is not ({len(coords)}, m > 0)")
        if not np.array_equal(coords, np.rint(coords)):
            raise ValueError("vertex coordinates must be integers")
        outside = np.any(np.abs(coords) > cells, axis=1)
        if np.any(outside):
            raise ValueError(f"vertex {coords[outside][0]} lies outside the cube")
        if not np.all(np.isfinite(values)):
            raise ValueError("vertex values must be finite")
        order = np.lexsort(coords.T[::-1])
        coords, values = coords[order].astype(np.int64), values[order]
        repeated = np.all(coords[1:] == coords[:-1], axis=1)
        if np.any(repeated):
            raise ValueError(f"vertex {coords[1:][repeated][0]} is given more than once")
        for name, array in (("vertices", coords), ("values", values)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        object.__setattr__(self, "cube_radius", r)

    @property
    def output_dim(self) -> int:
        return self.values.shape[1]

    @property
    def degrees_of_freedom(self) -> int:
        return int(np.count_nonzero(np.any(self.values != 0.0, axis=1)))

    @property
    def max_value_norm(self) -> float:
        v = self.values  # v @ v per row: the dot product np.linalg.norm takes of a row
        return float(np.sqrt((v[:, None, :] @ v[:, :, None]).max(initial=0.0)))


def eval_pwl(f: PWLFunction, x) -> np.ndarray:
    """Barycentric interpolation of the stored vertex values at ``x``.

    Takes one point (d,) or a (..., d) batch and returns (m,) or
    (..., m).  Vertices without a stored value read as zero.  This is
    the reference semantics the compiler is checked against.
    """
    ref, _ = locate(f.grid, x)
    weights = barycentric(f.grid, ref, x, tol=1e-6)
    corners = np.asarray(simplex_vertices(f.grid, ref)).reshape(-1, f.grid.dim)
    # one sort of the stored and the wanted vertices pairs them up; a
    # vertex without a stored row gets the zero row appended after them
    count, m = f.values.shape
    keys, key_of = np.unique(np.concatenate([f.vertices, corners]), axis=0, return_inverse=True)
    row_of = np.full(len(keys), count)
    row_of[key_of.ravel()[:count]] = np.arange(count)
    padded = np.concatenate([f.values, np.zeros((1, m))])
    rows = padded[row_of[key_of.ravel()[count:]]].reshape(weights.shape + (m,))
    out = np.zeros(weights.shape[:-1] + (m,))
    for k in range(f.grid.dim + 1):
        out += weights[..., k, None] * rows[..., k, :]
    return out


# ---------------------------------------------------------------------------
# nodal basis functions


@lru_cache(maxsize=None)
def _origin_nodal_coefficients(dim: int) -> np.ndarray:
    """Gradient table of the origin's hat function on the unit grid.

    Row k solves the interpolation system on the k-th neighboring
    simplex: value 1 at the origin, 0 at the simplex's other vertices.
    The gradients of the hat function on this triangulation are integer
    vectors and the constant term is 1, so the solutions are snapped to
    exact integers.
    """
    refs = tuple(neighborhood(KuhnGrid(dim), (0,) * dim))
    verts = simplex_vertices(KuhnGrid(dim), SimplexRef(*(np.array(p) for p in zip(*refs))))
    systems = np.concatenate([verts, np.ones(verts.shape[:-1] + (1,))], axis=-1)
    rhs = np.all(verts == 0, axis=-1).astype(np.float64)
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
    return snapped


def nodal_basis_network(grid: KuhnGrid, vertex) -> NetworkParams:
    """Exact network for the hat function: min over rectified pieces.

    The compiled PWL function with value 1 at ``vertex``: the (d+1)!
    affine pieces form the first layer (the only data-bearing weights)
    and a fixed min tree follows, giving total depth
    ceil(log2((d+1)!)) + 2.
    """
    vertex = np.array([vertex], dtype=np.int64)
    radius = (np.abs(vertex).max() + 1) * grid.cell_size
    return compile_pwl(PWLFunction(grid, radius, vertex, np.ones((1, 1))))


def compiled_depth(dim: int) -> int:
    """Depth of every compiled PWL network in a given dimension."""
    return math.ceil(math.log2(math.factorial(dim + 1))) + 2


# ---------------------------------------------------------------------------
# compilation


# the min tree depends only on d; compile_pwl reads its weights, never writes them
_min_tree = lru_cache(maxsize=None)(min_tree_network)


def _zero_network(dim: int, out_dim: int) -> NetworkParams:
    return NetworkParams((AffineMap(sp.csr_matrix((out_dim, dim)), np.zeros(out_dim)),))


def compile_pwl(f: PWLFunction) -> NetworkParams:
    """Express a PWL function exactly as a ReLU network.

    The result agrees with eval_pwl on all of R^d (up to double-precision
    rounding), has depth ceil(log2((d+1)!)) + 2, and only its first-layer
    entries depend on the data.  Each output component stacks the pieces
    of its N nonzero vertices (sorted) in the first layer, then runs
    kron(I_N, tree layer) and kron(sign(c), last tree layer); components
    share the input and run block-diagonally after it.  An identically
    zero component is the literal pad: a (2, d) first layer with no stored
    entries, the 2 x 2 identity for every hidden layer and [[1, -1]] last,
    all biases zero.  A function without degrees of freedom collapses to a
    single all-zero affine map.
    """
    d = f.grid.dim
    if f.degrees_of_freedom == 0:
        return _zero_network(d, f.output_dim)
    gradients = _origin_nodal_coefficients(d)
    tree = _min_tree(f.grid.simplices_per_vertex)
    slopes = gradients / f.grid.cell_size
    offsets = 1.0 - f.vertices.astype(np.float64) @ gradients.T
    blocks = []
    for c in f.values.T:
        live = c != 0.0
        count = int(np.count_nonzero(live))
        if count == 0:  # identically zero: 0 = relu(0) - relu(-0) at block depth
            blocks.append(
                (AffineMap(sp.csr_matrix((2, d)), np.zeros(2)),)
                + (AffineMap(sp.identity(2), np.zeros(2)),) * (compiled_depth(d) - 2)
                + (AffineMap([[1.0, -1.0]], np.zeros(1)),)
            )
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
    boundary included; the induced function vanishes outside.  ``func``
    is called once, on the (V, d) array of all vertex positions in
    lexicographic order, and must map (..., d) to (..., m), one value
    row per point; the registry functions do.
    """
    if not (r > 0.0 and math.isfinite(r)):
        raise ValueError("cube radius must be a positive finite real")
    if not delta > 0.0:
        raise ValueError("target fineness must be positive")
    cells = max(1, math.ceil(math.sqrt(dim) * r / delta))
    h = r / cells
    lattice = np.indices((2 * cells + 1,) * dim).reshape(dim, -1).T - cells
    return PWLFunction(KuhnGrid(dim, h), r, lattice, func(h * lattice))


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
    factory: Callable  # dim -> callable mapping (..., d) arrays to (..., d)
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
            {"vertex": vertex, "value": value}
            for vertex, value in zip(f.vertices.tolist(), f.values.tolist())
        ],
    }


def pwl_from_dict(doc: dict) -> PWLFunction:
    grid = KuhnGrid(integer_field(doc, "dim"), float(doc["h"]))
    items = doc["values"]
    if not items:
        raise ValueError("PWL file stores no vertex values")
    vertices = np.array([item["vertex"] for item in items])
    values = np.array([item["value"] for item in items], dtype=np.float64)
    return PWLFunction(grid, float(doc["r"]), vertices, values)


def save_pwl(f: PWLFunction, path) -> None:
    # json.dumps runs the C encoder; json.dump to a handle runs the Python one
    with open(path, "w", newline="\n") as handle:
        handle.write(json.dumps(pwl_to_dict(f)))


def load_pwl(path) -> PWLFunction:
    with open(path) as handle:
        return pwl_from_dict(json.load(handle))
