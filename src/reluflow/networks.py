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
zero rows, and runs each chunk through every layer, so only one chunk's
activations are ever held.  A chunk is a feature-major (width, rows)
array, viewed without a copy as n stacked (t_in, rows) arrays, each
multiplied by T in one stacked product whose (n, t_out, rows) result is
the next chunk; the bias column is added and the ReLU applied in place.
Every product of a layer has the same shape and arithmetic, which depend
only on the layer's arrays, so a point gives the same bits alone as in
any batch, and a reloaded network the same bits as the compiled one.

All objects are immutable after construction and evaluation is pure, so
everything here can be shared freely between threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, partial
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
    "min_tree_network",
    "complexity",
    "network_to_dict",
    "network_from_dict",
    "save_network",
    "load_network",
]

# the rows of every product a layer takes: eval_network holds one chunk's activations
EVAL_CHUNK_ROWS = 128

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
    def _product(self) -> Callable[[np.ndarray], np.ndarray]:
        """``self @ h`` for a C-ordered (in, EVAL_CHUNK_ROWS) chunk h, as kron(I_n, T).

        h is viewed as n stacked (t_in, EVAL_CHUNK_ROWS) arrays, each multiplied
        by T in one stacked BLAS call, so every chunk of a layer takes the
        same arithmetic.  A row of T with more than BLAS_TERMS entries (the
        last layer of a compiled network, whose rows sum the trees of all the
        values of a component) is summed in stored order instead, as a CSR
        product does: the far vertices' large terms cancel in fours there,
        but not in BLAS's interleaved partial sums.
        """
        n, (rows, cols) = self.copies, self.shape
        pointers = self.indptr[:rows // n + 1]
        if np.diff(pointers).max(initial=0) > BLAS_TERMS:
            product = self._ordered_sums
        else:
            # BLAS multiplies every entry of T, zeros too: the folded first layer of a
            # d=4 min tree (256 x 120, 2 entries a row) takes 56% of the d=4 products
            product = partial(np.matmul, self.block)
        stacked = (n, cols // n, EVAL_CHUNK_ROWS)
        return lambda h: product(h.reshape(stacked)).reshape(rows, EVAL_CHUNK_ROWS)

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
    chunk padded with zero rows, so the activations held are one chunk's.
    """
    xs = np.atleast_2d(np.asarray(x, dtype=np.float64))  # (rows, input_dim)
    if xs.shape[-1] != net.input_dim:
        raise ValueError(f"layer 1 expects {net.input_dim} inputs, got {xs.shape[-1]}")
    # each block is built, or refused, before any activation
    products = [layer.weights._product for layer in net.layers]
    out = np.empty((xs.shape[0], net.output_dim))
    for start in range(0, xs.shape[0], EVAL_CHUNK_ROWS):
        rows = min(EVAL_CHUNK_ROWS, xs.shape[0] - start)
        h = np.zeros((net.input_dim, EVAL_CHUNK_ROWS))  # feature-major, zero-padded
        h[:, :rows] = xs[start:start + rows].T
        for l, (layer, product) in enumerate(zip(net.layers, products)):
            h = product(h)
            if layer.bias.any():  # the product never yields -0.0, so adding +0.0 is exact
                h += layer.bias[:, None]
            if l != net.depth - 1:
                np.maximum(h, 0.0, out=h)
        out[start:start + rows] = h[:, :rows].T
    return out[0] if np.ndim(x) == 1 else out


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


def integer_field(doc: dict, key: str) -> int:
    """``doc[key]`` if it is an integer; a float or bool raises, naming the field."""
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"field {key!r} is {value!r}, not an integer")
    return int(value)


def _layer_from_dict(item: dict, number: int) -> AffineMap:
    try:
        arrays = (np.asarray(item["data"], dtype=np.float64), item["indices"], item["indptr"])
        weights = CSRMatrix(arrays, tuple(item["shape"]))
    except ValueError as exc:
        raise ValueError(f"layer {number}: {exc}") from exc
    return AffineMap(weights, np.asarray(item["bias"], dtype=np.float64))


def network_from_dict(doc: dict) -> NetworkParams:
    found = doc.get("format")
    if found != _FORMAT:
        raise ValueError(
            f"network file format is {found!r}, not {_FORMAT!r}; files written "
            "before the CSR format (dense layers) must be recompiled"
        )
    net = NetworkParams(
        tuple(_layer_from_dict(item, l + 1) for l, item in enumerate(doc["layers"]))
    )
    if net.input_dim != integer_field(doc, "input_dim"):
        raise ValueError(
            f"declared input_dim {doc['input_dim']} does not match first "
            f"layer width {net.input_dim}"
        )
    return net


def save_network(net: NetworkParams, path) -> None:
    # json.dumps runs the C encoder; json.dump to a handle runs the Python one
    with open(path, "w", newline="\n") as handle:
        handle.write(json.dumps(network_to_dict(net)))


def load_network(path) -> NetworkParams:
    with open(path) as handle:
        return network_from_dict(json.load(handle))
