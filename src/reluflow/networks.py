"""ReLU networks as explicit affine-layer stacks with exact bookkeeping.

A network is an ordered tuple of affine maps; evaluation applies ReLU
between consecutive maps and never after the last one.  Weight matrices
are ``CSRMatrix`` objects, compressed sparse rows in plain numpy: the
piecewise-linear compiler builds kron(I_N, T) layers whose dense form
would exhaust memory.  A layer is evaluated through one dense block: the
first time it is used it finds, and keeps, the largest n for which its
CSR arrays are n shifted copies of one block T, so that it equals
kron(I_n, T).  ``eval_network`` is the one loop over the rows: it takes
the batch EVAL_CHUNK_ROWS rows at a time, the last chunk padded with
zero rows, through the hidden layers in vertex tiles of whole copies
(ceil(G / T) each, the last tile shorter), and through the last layer
whole.  A chunk is a feature-major (width, rows) array, viewed without a
copy as stacked (t_in, rows) arrays, each multiplied by T in one stacked
product whose (copies, t_out, rows) result is the next chunk; the bias
is added and the ReLU applied in place.  Every product of a layer has the
same shape and arithmetic, so a point gives the same bits alone as in any
batch or tiling, and a reloaded network the same bits as the compiled one.
``forward_pass_bytes`` counts what a pass holds from the layers' widths,
nonzeros and copies alone.  Files are written and read a slice of an
array, or a layer, of Python objects at a time; a block that the copies
of a layer repeat is encoded once.

All objects are immutable after construction and evaluation is pure, so
everything here can be shared freely between threads.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

__all__ = [
    "BUDGET_BYTES",
    "CSRMatrix",
    "AffineMap",
    "NetworkParams",
    "ComplexityReport",
    "eval_network",
    "eval_network_batched",
    "forward_pass_bytes",
    "min_tree_network",
    "complexity",
    "network_to_dict",
    "network_from_dict",
    "save_network",
    "load_network",
]

# the rows of every product a layer takes: eval_network holds one chunk's activations
EVAL_CHUNK_ROWS = 128
TILE_BYTES = 2**24  # the most a vertex tile's widest pair of layers holds for a chunk
SAVE_SLICE = 2**16  # the entries of one array that save_network encodes at a time

BLAS_TERMS = 8  # the longest block row a BLAS product sums: a min tree's rows hold 2 to 8

# the largest dense block a layer or a value matrix allocates; each CLI budget too
BUDGET_BYTES = 2**31


def _index_dtype(*sizes) -> type:
    """int32 when every index and pointer fits, as in most layers; int64 otherwise."""
    return np.int32 if max(sizes, default=0) < 2**31 else np.int64


def _integers(values) -> np.ndarray:
    """A 1-D integer array of the values as given; an empty one may be of any type."""
    arr = np.asarray(values)
    if arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iu"):
        raise ValueError("indptr and indices must be lists of integers")
    return arr if arr.size else arr.astype(np.int64)


class CSRMatrix:
    """A read-only matrix in compressed sparse row form.

    ``CSRMatrix((data, indices, indptr), shape)``: row i holds the entries
    ``data[indptr[i]:indptr[i + 1]]`` in the columns
    ``indices[indptr[i]:indptr[i + 1]]``.  The arrays are kept exactly as
    given, in stored order, explicit zeros of either sign included, and
    are checked: any fault raises a ValueError naming it.  An entry
    stored twice in one place counts twice in ``toarray`` and in a
    forward pass.
    """

    def __init__(self, arrays, shape) -> None:
        data, indices, indptr = arrays
        if len(shape) != 2 or not all(
            isinstance(s, (int, np.integer)) and not isinstance(s, bool) and s >= 0 for s in shape
        ):
            raise ValueError(f"shape {shape!r} is not two non-negative integers")
        rows, cols = (int(s) for s in shape)
        data = np.asarray(data, dtype=np.float64).reshape(-1)
        # checked at the values given: narrowing first would wrap 2**32 to 0
        indices, indptr = (_integers(a) for a in (indices, indptr))
        if indptr.size != rows + 1:
            raise ValueError(f"index pointer size {indptr.size} should be {rows + 1}")
        if indices.size != data.size:
            raise ValueError("indices and data should have the same size")
        if indptr[0] != 0 or indptr[-1] != indices.size or np.any(indptr[1:] < indptr[:-1]):
            raise ValueError(
                "indptr must start at 0, be non-decreasing and end at the number of stored entries"
            )
        if indices.size and (indices.min() < 0 or indices.max() >= cols):
            raise ValueError(f"column indices must be < {cols} and not negative")
        # now every index is < cols and every pointer <= len(data), so narrowing is exact
        dtype = _index_dtype(rows, cols, len(data))
        data, indices, indptr = (
            a.astype(t, copy=False).view()  # frozen; the caller's is not
            for a, t in ((data, np.float64), (indices, dtype), (indptr, dtype))
        )
        for a in (data, indices, indptr):
            a.setflags(write=False)
        for name, value in (("shape", (rows, cols)), ("data", data), ("indices", indices),
                            ("indptr", indptr)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value) -> None:
        raise AttributeError(f"CSRMatrix is read-only: cannot set {name!r}")

    @classmethod
    def from_dense(cls, dense) -> CSRMatrix:
        """The nonzero entries of a 2-D array, row by row in column order."""
        dense = np.asarray(dense, dtype=np.float64)
        rows, cols = np.nonzero(dense)
        indptr = np.zeros(dense.shape[0] + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=dense.shape[0]), out=indptr[1:])
        return cls((dense[rows, cols], cols, indptr), dense.shape)

    @classmethod
    def identity(cls, n: int) -> CSRMatrix:
        return cls((np.ones(n), np.arange(n), np.arange(n + 1)), (n, n))

    @property
    def nnz(self) -> int:
        """Stored entries, explicit zeros included."""
        return self.data.size

    def count_nonzero(self) -> int:
        """Stored entries that are not zero."""
        return int(np.count_nonzero(self.data))

    def _dense(self, rows: int, cols: int) -> np.ndarray:
        """The first ``rows`` rows, as a dense (rows, cols) array."""
        end = self.indptr[rows]
        dense = np.zeros((rows, cols))
        rows_of = np.repeat(np.arange(rows), np.diff(self.indptr[:rows + 1]))
        np.add.at(dense, (rows_of, self.indices[:end]), self.data[:end])
        return dense

    def toarray(self) -> np.ndarray:
        return self._dense(*self.shape)

    @cached_property
    def copies(self) -> int:
        """The largest n for which this matrix is kron(I_n, T): its n diagonal
        blocks have the ``indptr`` runs, the ``indices`` (shifted to block 0)
        and the ``data`` bit patterns (so the sign of a zero counts) of block 0."""
        rows, cols = self.shape
        common = math.gcd(rows, cols)
        small = [n for n in range(1, math.isqrt(common) + 1) if common % n == 0]
        for n in sorted({common // n for n in small} | set(small), reverse=True)[:-1]:
            step = int(self.indptr[rows // n])
            if self.nnz == n * step and self._repeats(n, step):
                return n
        return 1

    def _repeats(self, n: int, step: int) -> bool:
        rows, cols = self.shape
        pointers = self.indptr[:-1].reshape(n, -1) - step * np.arange(n)[:, None]
        if not np.all(pointers == pointers[0]):
            return False
        shift = (cols // n) * np.arange(n, dtype=self.indices.dtype)[:, None]
        indices = self.indices.reshape(n, step) - shift
        data = self.data.view(np.int64).reshape(n, step)
        return bool(np.all(indices == indices[0]) and np.all(data == data[0]))

    @cached_property
    def block(self) -> np.ndarray:
        """The dense T of kron(I_n, T), n = ``copies``.  Raises a ValueError
        naming the bytes, before allocating T, when T would take more than
        BUDGET_BYTES."""
        n, (rows, cols) = self.copies, self.shape
        need = 8 * (rows // n) * (cols // n)
        if need > BUDGET_BYTES:
            raise ValueError(
                f"the dense {rows // n} x {cols // n} block of a {rows} x {cols} layer would "
                f"need {need} bytes, over the budget of {BUDGET_BYTES}"
            )
        dense = self._dense(rows // n, cols // n)
        dense.setflags(write=False)
        return dense

    @cached_property
    def _product(self) -> Callable[..., np.ndarray]:
        """``(self @ h)[part]`` for a C-ordered (in, EVAL_CHUNK_ROWS) chunk h, as kron(I_n, T).

        h is viewed as stacked (t_in, EVAL_CHUNK_ROWS) arrays, each multiplied
        by T in one stacked BLAS call, so every chunk of a layer takes the
        same arithmetic; an h of some copies' inputs gives their outputs, and
        ``part`` slices the rows of T.  A row of T with more than BLAS_TERMS
        entries (the last layer of a compiled network, whose rows sum the
        trees of all the values of a component) is summed in stored order
        instead, as a CSR product does: the far vertices' large terms cancel
        in fours there, but not in BLAS's interleaved partial sums.
        """
        n, (rows, cols) = self.copies, self.shape
        pointers = self.indptr[:rows // n + 1]
        # BLAS multiplies every entry of T, zeros too: the folded first layer of a
        # d=4 min tree (256 x 120, 2 entries a row) takes 56% of the d=4 products
        block = None if np.diff(pointers).max(initial=0) > BLAS_TERMS else self.block

        def product(h: np.ndarray, part: slice = slice(None)) -> np.ndarray:
            stack = h.reshape(h.shape[0] * n // cols if cols else n, cols // n, EVAL_CHUNK_ROWS)
            if block is None:
                return self._ordered_sums(stack)[:, part].reshape(-1, EVAL_CHUNK_ROWS)
            return np.matmul(block[part], stack).reshape(-1, EVAL_CHUNK_ROWS)

        return product

    def _ordered_sums(self, stack: np.ndarray) -> np.ndarray:
        """``T @`` each (t_in, points) array of the stack, each row of T summed
        in stored order: a sum along axis 1 of the C-ordered (n, entries,
        points) terms runs entry by entry, separately for each copy."""
        t_out = self.shape[0] // self.copies
        pointers = self.indptr[:t_out + 1]
        terms = stack[:, self.indices[:pointers[-1]]]
        terms *= self.data[:pointers[-1], None]
        out = np.zeros((stack.shape[0], t_out, stack.shape[2]))
        for row in np.flatnonzero(np.diff(pointers)):
            out[:, row] = terms[:, pointers[row]:pointers[row + 1]].sum(axis=1)
        return np.add(out, 0.0, out=out)  # a sum of -0.0 terms is +0.0, as from +0.0


def _kron(a: CSRMatrix, b: CSRMatrix) -> CSRMatrix:
    """kron(a, b) for an ``a`` with at most one entry per row, or a one-row ``b``.

    Either way the entries of the product run over a's entries, then b's,
    so a product of two matrices with sorted rows has sorted rows (the
    arrays of scipy's ``kron(a, b, format="csr")``).
    """
    shape = (a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])
    dtype = _index_dtype(*shape, a.nnz * b.nnz)
    indptr = np.zeros(shape[0] + 1, dtype=dtype)
    np.cumsum(np.multiply.outer(np.diff(a.indptr), np.diff(b.indptr)).ravel(), out=indptr[1:])
    indices = a.indices.astype(dtype)[:, None] * b.shape[1] + b.indices
    return CSRMatrix(((a.data[:, None] * b.data).ravel(), indices.ravel(), indptr), shape)


@dataclass(frozen=True)
class AffineMap:
    """One layer ``x -> weights @ x + bias``.

    ``weights`` is a (output width, input width) ``CSRMatrix``; ``bias``
    matches the output width.  A dense array-like is converted to one.
    """

    weights: CSRMatrix
    bias: np.ndarray

    def __post_init__(self) -> None:
        mat = self.weights
        if not isinstance(mat, CSRMatrix):
            mat = CSRMatrix.from_dense(np.atleast_2d(mat))
        vec = np.asarray(self.bias, dtype=np.float64).reshape(-1)
        if mat.shape[0] != vec.shape[0]:
            raise ValueError(
                f"affine map has {mat.shape[0]} weight rows "
                f"but {vec.shape[0]} bias entries"
            )
        if mat.nnz and not np.all(np.isfinite(mat.data)):
            raise ValueError("affine map weights must be finite")
        if not np.all(np.isfinite(vec)):
            raise ValueError("affine map bias must be finite")
        object.__setattr__(self, "weights", mat)
        object.__setattr__(self, "bias", vec)

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class NetworkParams:
    """Parameters of a ReLU network: an ordered tuple of affine maps.

    The depth is the number of affine maps; the neuron count sums the
    widths of every layer including input and output.
    """

    layers: tuple[AffineMap, ...]

    def __post_init__(self) -> None:
        layers = tuple(self.layers)
        if not layers:
            raise ValueError("a network needs at least one affine map")
        for l in range(1, len(layers)):
            if layers[l].in_dim != layers[l - 1].out_dim:
                raise ValueError(
                    f"layer {l + 1} expects {layers[l].in_dim} inputs but "
                    f"layer {l} produces {layers[l - 1].out_dim} outputs"
                )
        object.__setattr__(self, "layers", layers)

    @property
    def input_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def output_dim(self) -> int:
        return self.layers[-1].out_dim

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def layer_widths(self) -> tuple[int, ...]:
        return (self.input_dim,) + tuple(l.out_dim for l in self.layers)

    @property
    def neuron_count(self) -> int:
        return sum(self.layer_widths)


def eval_network(net: NetworkParams, x) -> np.ndarray:
    """Forward pass: affine maps with componentwise ReLU between them.

    ``x`` may be a single point (input_dim,) or a batch (k, input_dim);
    the result has the matching shape with output_dim in the last axis.
    The rows go through all the layers EVAL_CHUNK_ROWS at a time, the last
    chunk padded with zero rows, and through the hidden layers one vertex
    tile at a time (``_tiles``), so the activations held are one tile's of
    one chunk, the assembled last hidden layer and the last layer's.
    """
    xs = np.atleast_2d(np.asarray(x, dtype=np.float64))  # (rows, input_dim)
    if xs.shape[-1] != net.input_dim:
        raise ValueError(f"layer 1 expects {net.input_dim} inputs, got {xs.shape[-1]}")
    # each block is built, or refused, before any activation
    products = [layer.weights._product for layer in net.layers]
    (tiles, common), widths = _tiles(net), net.layer_widths
    size = -(-common // tiles)  # copies a tile, fewer in the last
    biased = [layer.bias.any() for layer in net.layers]
    out = np.empty((xs.shape[0], net.output_dim))
    hidden = np.empty((widths[-2], EVAL_CHUNK_ROWS)) if tiles > 1 else None  # the tiles' slices
    for start in range(0, xs.shape[0], EVAL_CHUNK_ROWS):
        rows = min(EVAL_CHUNK_ROWS, xs.shape[0] - start)
        chunk = np.zeros((net.input_dim, EVAL_CHUNK_ROWS))  # feature-major, zero-padded
        chunk[:, :rows] = xs[start:start + rows].T
        for first in range(0, common, size):
            stop = min(first + size, common)
            h = chunk
            for l, (layer, product) in enumerate(zip(net.layers[:-1], products)):
                part = slice(first * widths[l + 1] // common, stop * widths[l + 1] // common)
                h = product(h, part if l == 0 else slice(None))
                if biased[l]:  # the product never yields -0.0, so adding +0.0 is exact
                    h += layer.bias[part, None]
                np.maximum(h, 0.0, out=h)
            if tiles > 1:
                hidden[part] = h
        h = products[-1](hidden if tiles > 1 else h)
        if biased[-1]:
            h += net.layers[-1].bias[:, None]
        out[start:start + rows] = h[:, :rows].T
    return out[0] if np.ndim(x) == 1 else out


def _tiling(widths, copies) -> tuple[int, int, int]:
    """(T, G, pair): the G copies layers 2..L-1 share (1 if none, or if the first layer has
    copies) and the fewest tiles T, of ceil(G / T) copies each but a shorter last one, for
    which a tile's widest ``pair`` of layers before the last (widths input first) fits
    TILE_BYTES a chunk; G if none.  The pair shrinks as T grows: T is found by bisection."""
    common = math.gcd(*copies[1:-1]) if len(copies) > 2 and copies[0] == 1 else 1

    def pair(tiles: int) -> int:
        sizes = [widths[0]] + [w // common * -(-common // tiles) for w in widths[1:-1]]
        return max((a + b for a, b in zip(sizes, sizes[1:])), default=sizes[0])

    low, high = 1, common
    while low < high:
        mid = (low + high) // 2
        if 8 * EVAL_CHUNK_ROWS * pair(mid) <= TILE_BYTES:
            high = mid
        else:
            low = mid + 1
    return low, common, pair(low)


def _tiles(net: NetworkParams) -> tuple[int, int]:
    """(T, G): ``eval_network``'s T tiles of the G copies that layers 2..L-1 share, each
    taking its share of the first layer's rows; (1, 1) when the layers share none."""
    return _tiling(net.layer_widths, [l.weights.copies for l in net.layers])[:2]


def forward_pass_bytes(widths, nonzeros, copies) -> int:
    """The most ``eval_network`` holds for layers of these widths (input first), nonzeros
    (weights plus biases) and kron(I_n, T) copies n: 12 bytes a CSR row and entry, 8 an entry
    of each T, and a chunk of one tile: its widest pair of layers (beside the assembled last
    hidden layer if T > 1) or the last layer's input, terms and output, and a ufunc buffer."""
    ins, outs = widths[:-1], widths[1:]
    blocks = sum(a // n * (b // n) for a, b, n in zip(ins, outs, copies))
    tiles, _, pair = _tiling(widths, copies)
    held = max(pair + (ins[-1] if tiles > 1 else 0), ins[-1] + nonzeros[-1] + outs[-1])
    chunk = EVAL_CHUNK_ROWS * held + np.getbufsize()
    return 12 * (sum(outs) + sum(nonzeros)) + 8 * (blocks + chunk)


def eval_network_batched(net: NetworkParams, xs) -> np.ndarray:
    """``eval_network(net, xs)``, which takes any batch EVAL_CHUNK_ROWS rows at a time.
    The name stays because the benchmark's worker (``bench/worker.py``) imports it."""
    return eval_network(net, xs)


# ---------------------------------------------------------------------------
# gadgets


# the min gadget's two layers, M1 (4 x 2) and M2 (1 x 4); see min_tree_network
_M1 = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]])
_M2 = np.array([[0.5, -0.5, -0.5, -0.5]])
_M1.setflags(write=False)
_M2.setflags(write=False)


def min_tree_network(k: int) -> NetworkParams:
    """Network computing min(x_1, ..., x_k) via a binary tree of min pairs.

    With full = 2^ceil(log2(k)) leaves the tree has depth ceil(log2(k)) + 1
    and k + 4 * full - 3 neurons (5k - 3 when k is a power of two), with
    weights in {0, +-1/2, +-1}.  Its gadget is the width-4 network
    min(x, y) = (relu(x+y) - relu(-x-y) - relu(x-y) - relu(-x+y)) / 2, whose
    layers M1 (4 x 2) and M2 (1 x 4) build every layer of the tree:
    kron(I_{full/2}, M1) first, then kron(I_{w/2}, M1) @ kron(I_w, M2) for
    w = full/2, ..., 2, and M2 last.  Other k are padded up to full by
    feeding the inputs cyclically into the spare slots; repeated arguments
    leave the minimum unchanged and, because paired slots always see
    distinct inputs for k >= 2, the merged first-layer weights stay in the
    same set.
    """
    if k < 1:
        raise ValueError("min tree needs at least one input")
    if k == 1:
        return NetworkParams((AffineMap([[1.0]], np.zeros(1)),))
    full = 1 << math.ceil(math.log2(k))
    # slot s of the full tree reads input s mod k: pair p's four rows read the two
    # distinct inputs of slots 2p and 2p + 1, stored in column order
    inputs = np.arange(full).reshape(-1, 2) % k
    order = np.argsort(inputs, axis=1)
    columns = np.repeat(np.take_along_axis(inputs, order, axis=1), 4, axis=0).ravel()
    data = _M1[np.arange(4)[:, None], order[:, None, :]]  # (full / 2, 4, 2)
    weights = [CSRMatrix((data, columns, np.arange(0, 4 * full + 1, 2)), (2 * full, k))]
    # kron(I_{w/2}, M1) @ kron(I_w, M2) = kron(I_{w/2}, M1 @ kron(I_2, M2))
    step = CSRMatrix.from_dense(_M1 @ np.kron(np.eye(2), _M2))
    width = full // 2
    while width > 1:
        weights.append(_kron(CSRMatrix.identity(width // 2), step))
        width //= 2
    weights.append(CSRMatrix.from_dense(_M2))
    return NetworkParams(tuple(AffineMap(w, np.zeros(w.shape[0])) for w in weights))


# ---------------------------------------------------------------------------
# accounting


@dataclass(frozen=True)
class ComplexityReport:
    """Exact size counters for one network."""

    depth: int
    neurons: int
    nonzero_weights: int
    free_weights: int


def complexity(net: NetworkParams) -> ComplexityReport:
    """Count depth, neurons, nonzero entries and free (data) entries.

    The first affine map is the data-carrying one: it contributes every
    weight and bias slot to the free entries (zero-valued slots included,
    since they are still assignable data positions).
    """
    nonzero = 0
    for layer in net.layers:
        nonzero += int(layer.weights.count_nonzero()) + int(np.count_nonzero(layer.bias))
    free = net.layers[0].out_dim * (net.layers[0].in_dim + 1)
    return ComplexityReport(net.depth, net.neuron_count, nonzero, free)


# ---------------------------------------------------------------------------
# serialization


_FORMAT = "csr-1"


def network_to_dict(net: NetworkParams) -> dict:
    """The ``csr-1`` document: each layer's CSR arrays exactly as stored.

    Keeping ``indptr``, ``indices`` and ``data`` unsorted and unpruned makes
    the loaded matrix the same CSR, so the forward pass is the same bit for
    bit, and the file grows with the nonzeros rather than rows x columns.
    """
    return {
        "format": _FORMAT,
        "input_dim": net.input_dim,
        "layers": [
            {
                "shape": list(layer.weights.shape),
                "indptr": layer.weights.indptr.tolist(),
                "indices": layer.weights.indices.tolist(),
                "data": layer.weights.data.tolist(),
                "bias": layer.bias.tolist(),
            }
            for layer in net.layers
        ],
    }


def document_field(doc: dict, key: str, kind, noun: str):
    """``doc[key]`` if it is a ``kind`` and not a bool; no such field or any other value
    raises, naming the field, the value (unless a list or an object, which may be large) and
    the ``noun`` it is not; so does an integer past the float range where a ``kind`` admits
    floats.  The one check of a field's presence and JSON type in each file."""
    if key not in doc:
        raise ValueError(f"field {key!r} is missing")
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        shown = "" if isinstance(value, (list, dict)) else f"{value!r}, "
        raise ValueError(f"field {key!r} is {shown}not {noun}")
    if isinstance(value, int) and isinstance(0.0, kind) and abs(value) > sys.float_info.max:
        raise ValueError(f"field {key!r} is an integer past the float range, not {noun}")
    return value


_LAYER_KEYS = ("shape", "indptr", "indices", "data", "bias")


def _layer_from_dict(item: dict, number: int) -> AffineMap:
    if not isinstance(item, dict) or not set(_LAYER_KEYS) <= item.keys():
        raise ValueError(f"layer {number} is not an object with the fields {', '.join(_LAYER_KEYS)}")
    try:
        data, bias = (_floats(item, key) for key in ("data", "bias"))
        return AffineMap(CSRMatrix((data, item["indices"], item["indptr"]), tuple(item["shape"])),
                         bias)
    except (TypeError, ValueError) as exc:  # e.g. a shape or data that is not a list
        raise ValueError(f"layer {number}: {exc}") from exc


def _floats(item: dict, key: str) -> np.ndarray:
    try:
        return np.asarray(item[key], dtype=np.float64)
    except OverflowError as exc:  # an integer past the float range
        raise ValueError(f"field {key!r}: {exc}") from exc


def network_from_dict(doc: dict) -> NetworkParams:
    if not isinstance(doc, dict):
        raise ValueError(f"a network document is a JSON object, not {type(doc).__name__}")
    found = doc.get("format")
    if found != _FORMAT:
        raise ValueError(
            f"network file format is {found!r}, not {_FORMAT!r}; files written "
            "before the CSR format (dense layers) must be recompiled"
        )
    layers = document_field(doc, "layers", list, "a list of layers")
    net = NetworkParams(tuple(_layer_from_dict(item, l + 1) for l, item in enumerate(layers)))
    if net.input_dim != document_field(doc, "input_dim", (int, np.integer), "an integer"):
        raise ValueError(
            f"declared input_dim {doc['input_dim']} does not match first "
            f"layer width {net.input_dim}"
        )
    return net


def save_network(net: NetworkParams, path) -> None:
    """The bytes of ``json.dumps(network_to_dict(net))``, written SAVE_SLICE entries of an
    array at a time: json.dumps runs the C encoder, json.dump to a handle the Python one.

    The ``data`` of a kron(I_n, T) layer (n = ``weights.copies``), and a ``bias`` whose n
    parts have the same bits, repeat one block of bit patterns, so the same text: a block
    of at most SAVE_SLICE entries is encoded once and written n times.
    """
    with open(path, "w", newline="\n") as handle:
        handle.write(f'{{"format": "{_FORMAT}", "input_dim": {net.input_dim}, "layers": [')
        for l, layer in enumerate(net.layers):
            w, bias = layer.weights, layer.bias
            n = w.copies
            parts = bias.view(np.int64).reshape(n, -1)
            repeats = (1, 1, n, n if np.all(parts == parts[0]) else 1)
            handle.write(f'{", " if l else ""}{{"shape": {json.dumps(list(w.shape))}')
            for key, values, copies in zip(_LAYER_KEYS[1:], (w.indptr, w.indices, w.data, bias),
                                           repeats):
                handle.write(f', "{key}": [')
                _write_entries(handle, values, copies)
                handle.write("]")
            handle.write("}")
        handle.write("]}")


def _write_entries(handle, values: np.ndarray, copies: int) -> None:
    """The entries of ``values``, which are ``copies`` copies of one block, comma-separated:
    a block of at most SAVE_SLICE entries encoded once, whole slices of entries otherwise."""
    block = values.size // copies
    if copies > 1 and 0 < block <= SAVE_SLICE:
        text, per = json.dumps(values[:block].tolist())[1:-1], SAVE_SLICE // block
        for start in range(0, copies, per):
            joined = ", ".join([text] * min(per, copies - start))
            handle.write(f", {joined}" if start else joined)
        return
    for start in range(0, values.size, SAVE_SLICE):
        text = json.dumps(values[start:start + SAVE_SLICE].tolist())[1:-1]
        handle.write(f", {text}" if start else text)


def _layer_arrays(obj: dict) -> dict:
    """``obj`` with its layer arrays made numpy arrays as soon as it is decoded; a ragged
    list, which numpy refuses, stays for the layer's checks to name."""
    for key in obj.keys() & _LAYER_KEYS[1:]:
        with contextlib.suppress(ValueError):
            obj[key] = np.asarray(obj[key])
    return obj


def load_network(path) -> NetworkParams:
    with open(path) as handle:
        return network_from_dict(json.load(handle, object_hook=_layer_arrays))
