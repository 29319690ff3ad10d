"""ReLU networks as explicit affine-layer stacks with exact bookkeeping.

A network is an ordered tuple of affine maps; evaluation applies ReLU
between consecutive maps and never after the last one.  Weight matrices
are stored in CSR sparse form throughout: the piecewise-linear compiler
builds kron(I_N, T) layers whose dense form would exhaust memory.
The forward pass runs feature-major on a C-ordered (width, rows) array,
which scipy's sparse product reads without a copy: each layer allocates
only its product and adds its bias and applies the ReLU in place, with
the arithmetic of ``(weights @ x.T).T + bias`` bit for bit.

All objects are immutable after construction and evaluation is pure, so
everything here can be shared freely between threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

__all__ = [
    "AffineMap",
    "NetworkParams",
    "ComplexityReport",
    "eval_network",
    "eval_network_batched",
    "min2_network",
    "min_tree_network",
    "complexity",
    "network_to_dict",
    "network_from_dict",
    "save_network",
    "load_network",
]

# rows per call of eval_network in eval_network_batched: the cap on its activations
EVAL_CHUNK_ROWS = 128


def _as_csr(weights) -> sp.csr_matrix:
    if sp.issparse(weights):
        return weights.tocsr().astype(np.float64)
    arr = np.atleast_2d(np.asarray(weights, dtype=np.float64))
    return sp.csr_matrix(arr)


@dataclass(frozen=True)
class AffineMap:
    """One layer ``x -> weights @ x + bias``.

    ``weights`` has shape (output width, input width); ``bias`` matches the
    output width.  Accepts dense array-likes and converts them to CSR.
    """

    weights: sp.csr_matrix
    bias: np.ndarray

    def __post_init__(self) -> None:
        mat = _as_csr(self.weights)
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
    """
    h = np.ascontiguousarray(np.transpose(x), dtype=np.float64)  # (input_dim, ...)
    if h.shape[0] != net.input_dim:
        raise ValueError(f"layer 1 expects {net.input_dim} inputs, got {h.shape[0]}")
    for l, layer in enumerate(net.layers):
        h = layer.weights @ h
        if layer.bias.any():  # the product never yields -0.0, so adding +0.0 is exact
            np.add(h.T, layer.bias, out=h.T)  # h.T is a view: one point and a batch alike
        if l != net.depth - 1:
            np.maximum(h, 0.0, out=h)
    return h.T


def eval_network_batched(net: NetworkParams, xs) -> np.ndarray:
    """Evaluate on many points, EVAL_CHUNK_ROWS at a time to cap intermediate memory."""
    xs = np.asarray(xs, dtype=np.float64)
    out = np.empty((xs.shape[0], net.output_dim))
    for start in range(0, xs.shape[0], EVAL_CHUNK_ROWS):
        out[start:start + EVAL_CHUNK_ROWS] = eval_network(net, xs[start:start + EVAL_CHUNK_ROWS])
    return out


# ---------------------------------------------------------------------------
# gadgets


def min2_network() -> NetworkParams:
    """Width-4 one-hidden-layer network computing min(x, y).

    min(x,y) = (relu(x+y) - relu(-x-y) - relu(x-y) - relu(-x+y)) / 2,
    so all weights lie in {+-1/2, +-1}.
    """
    first = AffineMap(
        np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]]),
        np.zeros(4),
    )
    last = AffineMap(np.array([[0.5, -0.5, -0.5, -0.5]]), np.zeros(1))
    return NetworkParams((first, last))


def min_tree_network(k: int) -> NetworkParams:
    """Network computing min(x_1, ..., x_k) via a binary tree of min pairs.

    With full = 2^ceil(log2(k)) leaves the tree has depth ceil(log2(k)) + 1
    and k + 4 * full - 3 neurons (5k - 3 when k is a power of two), with
    weights in {0, +-1/2, +-1}.  Each layer is built from the two layers
    M1 (4 x 2) and M2 (1 x 4) of min2_network: kron(I_{full/2}, M1) first,
    then kron(I_{w/2}, M1) @ kron(I_w, M2) for w = full/2, ..., 2, and M2
    last.  Other k are padded up to full by feeding the inputs cyclically
    into the spare slots; repeated arguments leave the minimum unchanged
    and, because paired slots always see distinct inputs for k >= 2, the
    merged first-layer weights stay in the same set.
    """
    if k < 1:
        raise ValueError("min tree needs at least one input")
    if k == 1:
        return NetworkParams((AffineMap(sp.identity(1, format="csr"), np.zeros(1)),))
    pair, join = (layer.weights for layer in min2_network().layers)
    full = 1 << math.ceil(math.log2(k))
    first = sp.kron(sp.identity(full // 2), pair, format="csr")
    if full != k:
        rows = np.arange(full)
        first = first @ sp.csr_matrix((np.ones(full), (rows, rows % k)), shape=(full, k))
    weights = [first]
    width = full // 2
    while width > 1:
        weights.append(
            sp.kron(sp.identity(width // 2), pair, format="csr")
            @ sp.kron(sp.identity(width), join, format="csr")
        )
        width //= 2
    weights.append(join)
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


def _index_array(values) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 1 or (arr.size and arr.dtype.kind != "i"):
        raise ValueError("indptr and indices must be lists of integers")
    return arr.astype(np.int64)


def _layer_from_dict(item: dict, number: int) -> AffineMap:
    try:
        indptr = _index_array(item["indptr"])
        indices = _index_array(item["indices"])
        data = np.asarray(item["data"], dtype=np.float64)
        if indptr.size and (indptr[-1] != indices.size or np.any(np.diff(indptr) < 0)):
            raise ValueError(
                "indptr must be non-decreasing and end at the number of stored entries"
            )
        weights = sp.csr_matrix((data, indices, indptr), shape=tuple(item["shape"]))
        weights.check_format(full_check=True)
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
