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

The network is used without building it: ``eval_compiled`` runs its
arithmetic on the d+1 corner rows that can be nonzero at a point, and
``compiled_layers`` counts its sizes in closed form.  ``compile_pwl``
builds the CSR stack for callers that need the weights themselves.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .grid import KuhnGrid, SimplexRef, barycentric, locate, neighborhood, simplex_vertices
from .networks import (
    AffineMap,
    ComplexityReport,
    NetworkParams,
    integer_field,
    min_tree_network,
)

__all__ = [
    "PWLFunction",
    "eval_pwl",
    "eval_compiled",
    "nodal_basis_network",
    "compile_pwl",
    "compiled_depth",
    "compiled_layers",
    "compiled_complexity",
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

    @cached_property
    def lipschitz_bound(self) -> float:
        """sqrt(sum_j max ||c(v + e_j) - c(v)||^2) / h over all lattice edges,
        absent vertices reading zero.  A Jacobian column on a Kuhn simplex is
        one such difference over h, so this bounds every Jacobian's norm."""
        total = 0.0
        for unit in np.eye(self.grid.dim, dtype=np.int64):
            ahead, at, hit = _lookup(self, self.vertices + unit)
            alone = np.bincount(at[hit], minlength=len(hit)) == 0  # no vertex stored at v - e_j
            gaps = np.concatenate([ahead - self.values, self.values[alone]])
            total += float(np.einsum("ij,ij->i", gaps, gaps).max(initial=0.0))
        return math.sqrt(total) / self.grid.cell_size

    @cached_property
    def _keys(self) -> np.ndarray:
        return _lattice_keys(self, self.vertices)


def _lattice_keys(f: PWLFunction, points) -> np.ndarray:
    """Keys of (..., d) lattice points, ordered like the sorted vertices: the
    int64 index in the cube (-1 outside), or, for a cube of 2^63 or more
    lattice points, the coordinate row compared as a record (no overflow)."""
    points = np.ascontiguousarray(points, dtype=np.int64)
    d, cells = f.grid.dim, round(f.cube_radius / f.grid.cell_size)
    if (2 * cells + 1) ** d > np.iinfo(np.int64).max:
        return points.view(np.dtype([(f"x{i}", np.int64) for i in range(d)]))[..., 0]
    inside = np.all(np.abs(points) <= cells, axis=-1)
    return np.where(inside, (points + cells) @ (2 * cells + 1) ** np.arange(d - 1, -1, -1), -1)


def _lookup(f: PWLFunction, points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Value rows (zero where absent), vertex rows and hits of (..., d) points; O(P log V)."""
    keys = _lattice_keys(f, points)
    at = np.searchsorted(f._keys, keys)
    hit = at < len(f._keys)
    hit[hit] = f._keys[at[hit]] == keys[hit]
    rows = np.zeros(hit.shape + (f.output_dim,))
    rows[hit] = f.values[at[hit]]
    return rows, at, hit


def eval_pwl(f: PWLFunction, x) -> np.ndarray:
    """Barycentric interpolation of the stored vertex values at ``x``.

    Takes one point (d,) or a (..., d) batch and returns (m,) or
    (..., m).  Vertices without a stored value read as zero.  This is
    the reference semantics the compiler is checked against.
    """
    ref, _ = locate(f.grid, x)
    weights = barycentric(f.grid, ref, x, tol=1e-6)
    rows = _lookup(f, simplex_vertices(f.grid, ref))[0]
    out = np.zeros(weights.shape[:-1] + (f.output_dim,))
    for k in range(f.grid.dim + 1):
        out += weights[..., k, None] * rows[..., k, :]
    return out


def eval_compiled(f: PWLFunction, x) -> np.ndarray:
    """``compile_pwl(f)`` at one point (d,) or a (..., d) batch, on the rows
    of the d+1 corners of x's simplex, whose hats are the only nonzero ones:
    pieces |c| (1 + G (x/h - v)), ReLU, the min tree's layers, the sum with
    the signs of c.  O((d+1)! (d+1) m) per point whatever V is; it differs
    from the dense pass only by that pass's rounding over all V vertices."""
    x = np.asarray(x, dtype=np.float64)
    ref, _ = locate(f.grid, x)
    corners = np.asarray(simplex_vertices(f.grid, ref))
    values = _lookup(f, corners)[0]
    local = x[..., None, :] / f.grid.cell_size - corners
    pieces = 1.0 + local @ _origin_nodal_coefficients(f.grid.dim).T
    h = np.maximum(np.abs(values)[..., None] * pieces[..., None, :], 0.0)
    # a column per (point, corner, component): sparse products round alike at any batch size
    h = h.reshape(-1, h.shape[-1]).T
    tree = _min_tree(f.grid.simplices_per_vertex)
    for layer in tree.layers[:-1]:  # the min tree carries no biases
        h = np.maximum(layer.weights @ h, 0.0)
    return (np.sign(values) * (tree.layers[-1].weights @ h).reshape(values.shape)).sum(axis=-2)


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
        return NetworkParams((AffineMap(sp.csr_matrix((f.output_dim, d)), np.zeros(f.output_dim)),))
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


def compiled_layers(f: PWLFunction) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Width and nonzeros (weights plus biases) of each layer of compile_pwl(f):
    N t_l + 2p and N nnz(T_l) + 2p for N live values, p zero components and
    tree layers T_l (the last layer is m wide); the first layer has nnz(G) per
    value whose |c|/h does not underflow plus a bias per piece where G v != 1."""
    if f.degrees_of_freedom == 0:
        return (f.output_dim,), (0,)
    gradients = _origin_nodal_coefficients(f.grid.dim)
    tree = _min_tree(f.grid.simplices_per_vertex)
    live = np.count_nonzero(f.values, axis=1)
    count, pads = int(live.sum()), int(np.count_nonzero(~np.any(f.values, axis=0)))
    units = sum(int(live[f.vertices @ g == 1].sum()) for g in gradients.astype(np.int64))
    weights = np.count_nonzero(np.abs(f.values) * (1.0 / f.grid.cell_size))
    first = np.count_nonzero(gradients) * weights + count * len(gradients) - units
    widths = tuple(count * w + 2 * pads for w in tree.layer_widths[:-1]) + (f.output_dim,)
    tree_nnz = [layer.weights.count_nonzero() for layer in tree.layers]
    return widths, (int(first),) + tuple(int(count * z + 2 * pads) for z in tree_nnz)


def compiled_complexity(f: PWLFunction) -> ComplexityReport:
    """``complexity(compile_pwl(f), first_layer_free(...))`` without compiling."""
    (widths, nonzeros), d = compiled_layers(f), f.grid.dim
    return ComplexityReport(len(widths), d + sum(widths), sum(nonzeros), widths[0] * (d + 1))


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
) -> tuple[PWLFunction, ComplexityReport]:
    """A PWL block within ``eps`` of an L-Lipschitz function on the cube.

    Interpolates at fineness eps / L (so the modulus-of-continuity bound
    gives sup error <= eps on [-r, r]^d); ``compile_pwl`` of the result is
    exact.  The output never exceeds the largest sampled value norm, hence
    stays within the declared bound everywhere.  The report is that of the
    compiled network, counted in closed form, with the first layer free.
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
    return f_pwl, compiled_complexity(f_pwl)


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
