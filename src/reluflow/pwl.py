"""Piecewise-linear interpolation and exact compilation to ReLU networks.

A PWL function is stored as one array over a scaled standard triangulation,
restricted to a cube [-r, r]^d: the (V, m) values at its V = (2c + 1)^d lattice
vertices, c = r / h, in lexicographic order, so a vertex's row is its index in
the cube.  Around every vertex there are (d+1)! simplices, each carrying a
globally affine function that matches the nodal hat function on it; since the
union of those simplices is convex, the hat function equals the minimum of the
rectified affine pieces everywhere.  A compiled network is therefore arrays:
an integer table G of the (d+1)! hat gradients, shifted to each vertex v and
scaled by its value c into first-layer rows |c| G / h with biases |c| (1 - G v),
one fixed min tree repeated per nonzero value c, and a last layer summing the
trees with the signs of c.  This reproduces the PWL function exactly on all of
R^d.

G is written down from the triangulation.  For a 0/1 vector b with zero
positions ``low`` and one positions ``high`` (each in any order), the
simplex with cell -b and permutation low + high has the origin as its
vertex number |b|, whose barycentric weight there is
1 + x[high[0]] - x[low[-1]].  Its row of G is therefore
e_{high[0]} - e_{low[-1]}, a term left out when its set is empty.  The
rows run over b in ``itertools.product((0, 1), repeat=d)`` order, then
the orders of ``low``, then those of ``high``: d(d+1) distinct rows,
each (d-1)! times.

On the simplex holding a point x, each corner's hat (the min of its pieces)
equals that corner's barycentric weight of x, and every other hat is zero.
So ``eval_pwl``, which sums the d+1 corner rows with those weights, is the
network's function in closed form: it is both the ResNet step and the oracle
``compile_pwl`` is checked against.  It does the floating-point operations of
``grid.locate``, ``grid.barycentric`` and ``grid.simplex_vertices`` in their
order, fused into a few numpy calls on its own buffers, so its result is theirs
to the bit.  ``compiled_layers`` counts the network's sizes, the min tree's
included, in closed form.  Only ``compile_pwl`` builds the min tree and the CSR
stack, writing the arrays of each kron(I_N, T_l) in numpy; evaluating the
network finds each layer's repeated block T_l again from those arrays
(``networks.CSRMatrix.copies``).  ``lattice_bytes`` and
``compile_bytes`` count, before anything is built, the bytes of the lattice
``interpolate`` samples and of ``compile_pwl`` with a forward pass;
``eval_pwl_bytes`` counts what ``eval_pwl`` holds a point.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

# locate and barycentric stay importable here: the benchmark's tracer rebinds pwl.locate and
# pwl.barycentric, though eval_pwl no longer calls them
from .grid import KuhnGrid, barycentric, locate  # noqa: F401
from .networks import BUDGET_BYTES, AffineMap, ComplexityReport, CSRMatrix, NetworkParams, _kron
from .networks import document_field, forward_pass_bytes, min_tree_network

__all__ = [
    "PWLFunction",
    "eval_pwl",
    "eval_pwl_bytes",
    "compile_pwl",
    "compiled_depth",
    "compiled_layers",
    "compiled_complexity",
    "compile_bytes",
    "interpolate",
    "lattice_cells",
    "lattice_bytes",
    "fineness",
    "FunctionSpec",
    "REGISTRY",
    "resolve_function",
    "pwl_to_dict",
    "pwl_from_dict",
    "save_pwl",
    "load_pwl",
]


def _cube_cells(grid: KuhnGrid, r: float) -> int:
    """Cells per half axis of [-r, r]^d: a positive integer, so the cube is a union of simplices."""
    if not (r > 0.0 and math.isfinite(r)):
        raise ValueError("cube radius must be a positive finite real")
    cells = r / grid.cell_size
    if abs(cells - round(cells)) > 1e-9 * max(1.0, cells) or round(cells) < 1:
        raise ValueError("cube radius must be a positive integer multiple of the cell size")
    return round(cells)


def _cube_lattice(cells: int, dim: int) -> np.ndarray:
    """The (V, d) integer points of [-cells, cells]^d in lexicographic order, read-only."""
    lattice = np.indices((2 * cells + 1,) * dim).reshape(dim, -1).T - cells
    lattice.setflags(write=False)
    return lattice


@dataclass(frozen=True)
class PWLFunction:
    """Vertex values over a KuhnGrid, supported inside [-r, r]^d.

    ``values`` is the (V, m) matrix of the values at all V = (2c + 1)^d lattice
    vertices of the cube, c = r / h (an integer), in the lexicographic order of
    ``vertices``, zero rows included; it is kept read-only, not copied.  The
    function interpolates the values barycentrically and vanishes outside the
    cube.  ``from_vertices`` builds one from a list of vertices and values.
    """

    grid: KuhnGrid
    cube_radius: float
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "cube_radius", float(self.cube_radius))
        cells = _cube_cells(self.grid, self.cube_radius)
        values = np.asarray(self.values, dtype=np.float64).view()  # frozen; the caller's is not
        rows = (2 * cells + 1) ** self.grid.dim
        if values.ndim != 2 or values.shape[0] != rows or values.shape[1] < 1:
            raise ValueError(f"value matrix shape {values.shape} is not ({rows}, m > 0)")
        if not np.all(np.isfinite(values)):
            raise ValueError("vertex values must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_vertices(cls, grid: KuhnGrid, cube_radius: float, vertices, values) -> PWLFunction:
        """The function with the (L, m) ``values`` at the (L, d) integer ``vertices``
        of the cube, in any order, and zero at every vertex not listed.  Refuses a
        cube whose value matrix would take more than BUDGET_BYTES."""
        cells = _cube_cells(grid, float(cube_radius))
        coords = np.asarray(vertices)
        values = np.asarray(values, dtype=np.float64)
        if coords.ndim != 2 or coords.shape[1] != grid.dim:
            raise ValueError(f"vertex array shape {coords.shape} is not (V, {grid.dim})")
        if values.ndim != 2 or values.shape[0] != len(coords) or values.shape[1] < 1:
            raise ValueError(f"value matrix shape {values.shape} is not ({len(coords)}, m > 0)")
        if not np.array_equal(coords, np.rint(coords)):
            raise ValueError("vertex coordinates must be integers")
        outside = np.flatnonzero(np.any(np.abs(coords) > cells, axis=1))
        if outside.size:
            raise ValueError(f"vertex {coords[outside[0]]} lies outside the cube")
        if not np.all(np.isfinite(values)):
            raise ValueError("vertex values must be finite")
        side, m = 2 * cells + 1, values.shape[1]
        need = 8 * side**grid.dim * m
        if need > BUDGET_BYTES:
            raise ValueError(
                f"the values at the {side}^{grid.dim} lattice points of the cube would need "
                f"{need} bytes, over the budget of {BUDGET_BYTES}"
            )
        rows = np.ravel_multi_index(coords.astype(np.int64).T + cells, (side,) * grid.dim)
        again = np.flatnonzero(np.bincount(rows)[rows] > 1)
        if again.size:
            raise ValueError(f"vertex {coords[again[0]]} is given more than once")
        full = np.zeros((side**grid.dim, m))
        full[rows] = values
        return cls(grid, cube_radius, full)

    @property
    def cells(self) -> int:
        """Cells per half axis of the cube, r / h."""
        return round(self.cube_radius / self.grid.cell_size)

    @property
    def vertices(self) -> np.ndarray:
        """The (V, d) integer vertices of the cube, one per row of ``values``, built anew."""
        return _cube_lattice(self.cells, self.grid.dim)

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

    Takes one point (d,) or a (..., d) batch and returns (m,) or (..., m).
    The d+1 weights are the corners' hats, the only nonzero ones at x, so
    this is ``compile_pwl(f)`` in closed form, O(d log d + (d+1) m) per
    point: the ResNet step and the oracle the compiler is checked against.
    It does the floating-point operations of ``grid.locate``,
    ``grid.barycentric`` and ``grid.simplex_vertices`` in their order: the
    weights are the gaps between 0, the sorted cell offsets y and 1, read
    from the top, and corner k steps up the k coordinates last in y's
    stable order.  A corner's value row is its clipped index in the cube
    times the lattice strides; one outside the cube reads as zero.
    Coordinates are clipped to +-(r + 2h), past which every corner lies
    outside the cube and the value is 0 either way, so a point far off in
    cells never overflows a cell index.
    """
    c, d, h = f.cells, f.grid.dim, f.grid.cell_size
    bound = f.cube_radius + 2.0 * h
    y = np.maximum(x, -bound, dtype=np.float64)
    np.minimum(y, bound, out=y)
    y /= h
    cell = np.floor(y)
    y -= cell
    gaps = np.empty(y.shape[:-1] + (d + 2,))
    gaps[..., 0], gaps[..., -1], gaps[..., 1:-1] = 0.0, 1.0, y
    gaps[..., 1:-1].sort(kind="stable")
    weights = np.subtract(gaps[..., 1:], gaps[..., :-1])  # corner d first
    del gaps
    rank = y.argsort(kind="stable").argsort(kind="stable")
    del y
    steps = rank[..., None, :] >= np.arange(d, -1, -1)[:, None]  # corner k: rank >= d - k
    del rank
    cell += c
    corners = cell.astype(np.intp)[..., None, :] + steps
    del cell, steps
    clipped = np.maximum(corners, 0)
    np.minimum(clipped, 2 * c, out=clipped)
    outside = (clipped != corners).any(axis=-1)
    del corners
    rows = f.values[clipped @ (2 * c + 1) ** np.arange(d - 1, -1, -1)]
    del clipped
    rows[outside] = 0.0
    rows *= weights[..., ::-1, None]
    return rows.sum(axis=-2)


def eval_pwl_bytes(dim: int, output_dim: int) -> int:
    """A bound on what ``eval_pwl`` holds a point of a batch, its result included: 8 (d + 1)
    (2d + 2m + 3) bytes, at least the d + 1 corners' weights, integer coordinates before and
    after clipping, row indices and value rows, and the m values of the result."""
    return 8 * (dim + 1) * (2 * dim + 2 * output_dim + 3)


# ---------------------------------------------------------------------------
# nodal basis functions


@lru_cache(maxsize=None)
def _origin_nodal_coefficients(dim: int) -> np.ndarray:
    """Gradient table G of the origin's hat function on the unit grid, in
    closed form (see the module docstring): one row per simplex around the
    origin, e_{high[0]} - e_{low[-1]}, read-only."""
    rows = []
    for bits in itertools.product((0, 1), repeat=dim):
        zeros = [i for i in range(dim) if not bits[i]]
        ones = [i for i in range(dim) if bits[i]]
        for low in itertools.permutations(zeros):
            for high in itertools.permutations(ones):
                row = np.zeros(dim)
                if high:
                    row[high[0]] = 1.0
                if low:
                    row[low[-1]] = -1.0
                rows.append(row)
    table = np.array(rows)
    table.setflags(write=False)
    return table


def compiled_depth(dim: int) -> int:
    """Depth of ``compile_pwl(f)`` for every f in dimension d: the first
    layer, the min tree's ceil(log2((d+1)!)) + 1 layers after it."""
    return math.ceil(math.log2(math.factorial(dim + 1))) + 2


# ---------------------------------------------------------------------------
# compilation


def compile_pwl(f: PWLFunction) -> NetworkParams:
    """Express a PWL function exactly as a ReLU network.

    The result agrees with eval_pwl on all of R^d (up to double-precision
    rounding), has depth ``compiled_depth(d)`` for every f, and only its
    first-layer entries depend on the data.  The N nonzero values c_i, taken
    component by component with the vertices sorted within each, give the
    first layer the rows |c_i| G / h and biases |c_i| (1 - G v_i); every
    tree layer T_l then runs as kron(I_N, T_l), and the last as kron(S, T_last)
    with S[j, i] = sign(c_i) for the values i of component j.  N = 0 is no
    special case: the network has no neurons and all-zero output rows.
    """
    d, m = f.grid.dim, f.output_dim
    gradients = _origin_nodal_coefficients(d)
    tree = min_tree_network(f.grid.simplices_per_vertex)
    component, vertex = np.nonzero(f.values.T)
    c = f.values[vertex, component]
    count, scale = len(c), np.abs(c)
    # the vertices of the values alone, not the whole (V, d) lattice
    vertices = np.stack(np.unravel_index(vertex, (2 * f.cells + 1,) * d), -1) - f.cells
    # the column of the |c|, with the rows left empty where |c| G / h underflows to zero
    live = scale * (1.0 / f.grid.cell_size) != 0.0
    pointers = np.concatenate([[0], np.cumsum(live)])
    first = AffineMap(
        _kron(
            CSRMatrix((scale[live], np.zeros(live.sum(), dtype=int), pointers), (count, 1)),
            CSRMatrix.from_dense(gradients / f.grid.cell_size),
        ),
        (scale[:, None] * (1.0 - vertices @ gradients.T)).ravel(),
    )
    # the min tree carries no biases, so only the first layer has any
    repeat = CSRMatrix.identity(count)
    hidden = tuple(
        AffineMap(_kron(repeat, layer.weights), np.zeros(count * layer.out_dim))
        for layer in tree.layers[:-1]
    )
    pointers = np.concatenate([[0], np.cumsum(np.bincount(component, minlength=m))])
    signs = CSRMatrix((np.sign(c), np.arange(count), pointers), (m, count))
    last = AffineMap(_kron(signs, tree.layers[-1].weights), np.zeros(m))
    return NetworkParams((first,) + hidden + (last,))


def _min_tree_layers(k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Widths (k, 2F, F, ..., 4, 1), input first, and nonzeros (4F, 8F, 4F, ..., 32, 4)
    of ``min_tree_network(k)`` for k >= 2 inputs, F = 2^ceil(log2 k) leaves."""
    full = 1 << (k - 1).bit_length()
    halves = [full >> s for s in range(1, full.bit_length() - 1)]  # F/2, ..., 2
    return (k, 2 * full, *(2 * w for w in halves), 1), (4 * full, *(16 * w for w in halves), 4)


def compiled_layers(f: PWLFunction) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Width and nonzeros (weights plus biases) of each layer of compile_pwl(f):
    N t_l and N nnz(T_l) for N live values (N = 0 gives zero counts) and the min
    tree of the k = (d+1)! pieces (``_min_tree_layers``); the last layer is m wide.
    The first has nnz(G) = 2 d^2 (d-1)! per value whose |c|/h does not underflow
    plus a bias per piece where G v != 1.  G itself is not built."""
    d, cells, k = f.grid.dim, f.cells, f.grid.simplices_per_vertex
    weights = np.count_nonzero(f.values * (1.0 / f.grid.cell_size))  # |c| / h underflows alike
    live = np.count_nonzero(f.values, axis=1).reshape((2 * cells + 1,) * d)
    count = int(live.sum())
    # G's d(d+1) distinct rows are e_a - e_b for a != b in 0..d, each (d-1)! times, where
    # an index d marks an absent term: it reads an extra axis d whose one index has v = 0.
    # With index i = v + c on the axes of v, G v = 1 is the diagonal
    # i_a = i_b + 1 + c [a < d] - c [b < d] of the counts, summed as a view
    counts, units = live[..., None], 0
    for a, b in itertools.permutations(range(d + 1), 2):
        units += int(np.diagonal(counts, 1 + cells * ((a < d) - (b < d)), b, a).sum())
    repeats = math.factorial(d - 1)
    first = 2 * d * d * repeats * weights + count * k - repeats * units
    tree_widths, tree_nnz = _min_tree_layers(k)
    widths = tuple(count * w for w in tree_widths[:-1]) + (f.output_dim,)
    return widths, (int(first),) + tuple(count * z for z in tree_nnz)


def compile_bytes(f: PWLFunction) -> int:
    """The most compile_pwl(f) and a forward pass of it hold: ``forward_pass_bytes`` of
    ``compiled_layers``, N copies a tree layer for N live values.  With none the layers are
    0 wide and build no dense block, and G and G / h (8 bytes an entry), from_dense's CSR of
    G / h (32 bytes a row and entry) and the min tree (12 a CSR row and entry) count instead."""
    (widths, nonzeros), d, k = compiled_layers(f), f.grid.dim, f.grid.simplices_per_vertex
    count = widths[0] // k
    copies = (1,) + (max(1, count),) * (len(widths) - 2) + (1,)
    tree_widths, tree_nonzeros = _min_tree_layers(k)
    fixed = 16 * k * d + 32 * (k + 2 * d * math.factorial(d))  # nnz(G) = 2 d d!
    fixed += 12 * (sum(tree_widths[1:]) + sum(tree_nonzeros))
    return forward_pass_bytes((d,) + widths, nonzeros, copies) + (0 if count else fixed)


def compiled_complexity(f: PWLFunction) -> ComplexityReport:
    """``complexity(compile_pwl(f))`` without compiling."""
    (widths, nonzeros), d = compiled_layers(f), f.grid.dim
    return ComplexityReport(len(widths), d + sum(widths), sum(nonzeros), widths[0] * (d + 1))


# ---------------------------------------------------------------------------
# interpolation


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
    cells = lattice_cells(r, delta, dim)
    h = r / cells
    return PWLFunction(KuhnGrid(dim, h), r, func(h * _cube_lattice(cells, dim)))


def lattice_cells(r: float, delta: float, dim: int) -> int:
    """Cells per half axis of the lattice ``interpolate(func, r, delta, dim)``
    samples: (2 cells + 1)^dim vertices."""
    return max(1, math.ceil(math.sqrt(dim) * r / delta))


def lattice_bytes(r: float, delta: float, dim: int) -> float:
    """The most the lattice of ``interpolate(func, r, delta, dim)`` holds: 8 (d + m + 1) bytes
    a vertex, m = d, for the positions and values func reads and returns, or the values and
    live counts of compiled_layers; in floats, so past their range or at fineness 0, inf."""
    try:
        return float(2 * lattice_cells(r, delta, dim) + 1) ** dim * (8 * (2 * dim + 1))
    except (OverflowError, ValueError, ZeroDivisionError):  # sqrt(d) r / delta: inf, nan, 1/0
        return math.inf


def fineness(eps: float, lipschitz: float) -> float:
    """Mesh size eps / L at which an L-Lipschitz function's interpolant is within eps of it."""
    return eps / lipschitz if lipschitz > 0.0 else math.inf


# ---------------------------------------------------------------------------
# named function registry (CLI-facing)


@dataclass(frozen=True)
class FunctionSpec:
    """A named componentwise map R^d -> R^d with declared constants."""

    factory: Callable  # dim -> callable mapping (..., d) arrays to (..., d)
    lipschitz: Callable  # (dim, radius) -> float
    bound: Callable  # (dim, radius) -> float


REGISTRY = {
    "zero": FunctionSpec(
        lambda dim: np.zeros_like,
        lambda dim, radius: 0.0,
        lambda dim, radius: 0.0,
    ),
    # 1-Lipschitz in each component and bounded by 1 there
    **{
        name: FunctionSpec(
            lambda dim, fn=fn: fn, lambda dim, radius: 1.0, lambda dim, radius: math.sqrt(dim)
        )
        for name, fn in (("sin", np.sin), ("cos", np.cos), ("tanh", np.tanh))
    },
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
        lambda dim: poly,
        lambda dim, radius: scan_max(deriv, radius),
        lambda dim, radius: math.sqrt(dim) * scan_max(poly, radius),
    )


def resolve_function(spec: str) -> FunctionSpec:
    """Look up a function by name; ``poly:c0,c1,...`` builds a polynomial."""
    if spec in REGISTRY:
        return REGISTRY[spec]
    if spec.startswith("poly:"):
        try:
            coeffs = tuple(float(tok) for tok in spec[5:].split(","))
        except ValueError:
            raise ValueError(f"bad polynomial coefficients in {spec!r}") from None
        if not coeffs:
            raise ValueError("polynomial needs at least one coefficient")
        if not all(map(math.isfinite, coeffs)):
            raise ValueError(f"polynomial coefficients in {spec!r} must be finite")
        return _poly_spec(coeffs)
    known = ", ".join(sorted(REGISTRY))
    raise ValueError(f"unknown function {spec!r}; known: {known}, poly:c0,c1,...")


# ---------------------------------------------------------------------------
# file format


def pwl_to_dict(f: PWLFunction) -> dict:
    """f's document: its rows with a nonzero bit (-0.0 too), else its first; unlisted is 0."""
    rows = np.flatnonzero(np.any(f.values.view(np.int64), axis=1))
    rows = rows if rows.size else np.zeros(1, dtype=np.intp)
    vertices = np.stack(np.unravel_index(rows, (2 * f.cells + 1,) * f.grid.dim), -1) - f.cells
    return {
        "dim": f.grid.dim,
        "h": f.grid.cell_size,
        "r": f.cube_radius,
        "values": [
            {"vertex": vertex, "value": value}
            for vertex, value in zip(vertices.tolist(), f.values[rows].tolist())
        ],
    }


def pwl_from_dict(doc: dict) -> PWLFunction:
    """The function of a ``pwl_to_dict`` document; a malformed one raises ValueError."""
    if not isinstance(doc, dict):
        raise ValueError(f"a PWL document is a JSON object, not {type(doc).__name__}")
    dim = int(document_field(doc, "dim", (int, np.integer), "an integer"))
    h, radius = (document_field(doc, key, (int, float), "a number") for key in ("h", "r"))
    grid = KuhnGrid(dim, h)
    items = document_field(doc, "values", list, "a list of vertex values")
    if not items:
        raise ValueError("PWL file stores no vertex values")
    for i, item in enumerate(items):
        if not isinstance(item, dict) or not {"vertex", "value"} <= item.keys():
            raise ValueError(f"vertex value {i} is not an object with the fields vertex, value")
    try:  # e.g. a ragged list, a string among the numbers or an integer past the float range
        vertices = np.array([item["vertex"] for item in items])
        values = np.array([item["value"] for item in items], dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"field 'values': {exc}") from exc
    if vertices.dtype.kind not in "iuf":
        raise ValueError(f"field 'values': vertex coordinates of {vertices.dtype} are not numbers")
    return PWLFunction.from_vertices(grid, radius, vertices, values)


def save_pwl(f: PWLFunction, path) -> None:
    # json.dumps runs the C encoder; json.dump to a handle runs the Python one
    with open(path, "w", newline="\n") as handle:
        handle.write(json.dumps(pwl_to_dict(f)))


def load_pwl(path) -> PWLFunction:
    with open(path) as handle:
        return pwl_from_dict(json.load(handle))
