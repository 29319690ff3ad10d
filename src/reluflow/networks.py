"""ReLU networks as explicit affine-layer stacks with exact bookkeeping.

A network is an ordered tuple of affine maps; evaluation applies ReLU
between consecutive maps and never after the last one.  Weight matrices
are stored in CSR sparse form throughout: the piecewise-linear compiler
assembles block-diagonal layers whose dense form would exhaust memory,
while the small gadget networks do not care either way.

All objects are immutable after construction and evaluation is pure, so
everything here can be shared freely between threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp

__all__ = [
    "AffineMap",
    "NetworkParams",
    "ComplexityReport",
    "eval_network",
    "eval_network_batched",
    "identity_network",
    "min2_network",
    "min_tree_network",
    "parallelize",
    "sum_networks",
    "compose_networks",
    "depth_pad",
    "complexity",
    "first_layer_free",
    "network_to_dict",
    "network_from_dict",
    "save_network",
    "load_network",
]


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

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Apply the map to a vector (in_dim,) or a batch (k, in_dim)."""
        if x.ndim == 1:
            return self.weights @ x + self.bias
        return (self.weights @ x.T).T + self.bias

    def dense(self) -> np.ndarray:
        return self.weights.toarray()


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

    def __call__(self, x) -> np.ndarray:
        return eval_network(self, x)


def eval_network(net: NetworkParams, x) -> np.ndarray:
    """Forward pass: affine maps with componentwise ReLU between them.

    ``x`` may be a single point (input_dim,) or a batch (k, input_dim);
    the result has the matching shape with output_dim in the last axis.
    """
    h = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if h.shape[-1] != net.input_dim:
        raise ValueError(
            f"layer 1 expects {net.input_dim} inputs, got {h.shape[-1]}"
        )
    last = net.depth - 1
    for l, layer in enumerate(net.layers):
        h = layer.apply(h)
        if l != last:
            h = np.maximum(h, 0.0)
    return h


def eval_network_batched(net: NetworkParams, xs, chunk_size: int = 256) -> np.ndarray:
    """Evaluate on many points, chunked to cap intermediate memory."""
    xs = np.asarray(xs, dtype=np.float64)
    out = np.empty((xs.shape[0], net.output_dim))
    for start in range(0, xs.shape[0], chunk_size):
        out[start : start + chunk_size] = eval_network(net, xs[start : start + chunk_size])
    return out


# ---------------------------------------------------------------------------
# gadgets


def identity_network(d: int, depth: int = 2) -> NetworkParams:
    """Network computing x exactly, using x = relu(x) - relu(-x).

    Hidden layers have width 2d; extra depth chains identity affine maps
    on the (nonnegative) hidden representation.
    """
    if d < 1:
        raise ValueError("input dimension must be positive")
    if depth < 2:
        raise ValueError("identity gadget needs depth >= 2")
    eye = sp.identity(d, format="csr")
    first = AffineMap(sp.vstack([eye, -eye], format="csr"), np.zeros(2 * d))
    middle = AffineMap(sp.identity(2 * d, format="csr"), np.zeros(2 * d))
    last = AffineMap(sp.hstack([eye, -eye], format="csr"), np.zeros(d))
    return NetworkParams((first,) + (middle,) * (depth - 2) + (last,))


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


def _pairwise_min_stage(width: int) -> NetworkParams:
    # (x_1, ..., x_w) -> (min(x_1,x_2), ..., min(x_{w-1},x_w)); w even
    return parallelize([min2_network() for _ in range(width // 2)])


def min_tree_network(d: int) -> NetworkParams:
    """Network computing min(x_1, ..., x_d) via a binary tree of min pairs.

    For d a power of two the result has depth ceil(log2(d)) + 1 and
    exactly 5d - 3 neurons, with weights in {0, +-1/2, +-1}.  Other d are
    padded up to the next power of two by feeding the inputs cyclically
    into the spare slots; repeated arguments leave the minimum unchanged
    and, because paired slots always see distinct inputs for d >= 2, the
    merged first-layer weights stay in the same set.
    """
    if d < 1:
        raise ValueError("min tree needs at least one input")
    if d == 1:
        return NetworkParams((AffineMap(sp.identity(1, format="csr"), np.zeros(1)),))
    full = 1 << math.ceil(math.log2(d))
    net = _pairwise_min_stage(full)
    width = full // 2
    while width > 1:
        net = compose_networks(_pairwise_min_stage(width), net)
        width //= 2
    if full != d:
        rows = np.arange(full)
        pad = sp.csr_matrix(
            (np.ones(full), (rows, rows % d)), shape=(full, d)
        )
        net = compose_networks(net, NetworkParams((AffineMap(pad, np.zeros(full)),)))
    return net


# ---------------------------------------------------------------------------
# combinators


def parallelize(nets: Sequence[NetworkParams]) -> NetworkParams:
    """Stack networks block-diagonally; inputs and outputs concatenate."""
    nets = list(nets)
    if not nets:
        raise ValueError("nothing to parallelize")
    depth = nets[0].depth
    for i, net in enumerate(nets):
        if net.depth != depth:
            raise ValueError(
                f"network {i + 1} has depth {net.depth}, expected {depth}; "
                "pad with depth_pad first"
            )
    layers = []
    for l in range(depth):
        weights = sp.block_diag([net.layers[l].weights for net in nets], format="csr")
        bias = np.concatenate([net.layers[l].bias for net in nets])
        layers.append(AffineMap(weights, bias))
    return NetworkParams(tuple(layers))


def sum_networks(nets: Sequence[NetworkParams], coefficients: Sequence[float]) -> NetworkParams:
    """Network computing sum_i c_i * net_i(x) with a shared input.

    All networks must agree in input dimension, output dimension and
    depth; the first layers are stacked, intermediate layers run
    block-diagonally, and the coefficients scale the final affine maps.
    """
    nets = list(nets)
    coeffs = [float(c) for c in coefficients]
    if not nets:
        raise ValueError("nothing to sum")
    if len(coeffs) != len(nets):
        raise ValueError("need one coefficient per network")
    din, dout, depth = nets[0].input_dim, nets[0].output_dim, nets[0].depth
    for i, net in enumerate(nets):
        if (net.input_dim, net.output_dim, net.depth) != (din, dout, depth):
            raise ValueError(
                f"network {i + 1} has shape ({net.input_dim} -> {net.output_dim}, "
                f"depth {net.depth}); expected ({din} -> {dout}, depth {depth})"
            )
    if depth == 1:
        weights = sum(c * net.layers[0].weights for c, net in zip(coeffs, nets))
        bias = sum(c * net.layers[0].bias for c, net in zip(coeffs, nets))
        return NetworkParams((AffineMap(weights, bias),))
    layers = [
        AffineMap(
            sp.vstack([net.layers[0].weights for net in nets], format="csr"),
            np.concatenate([net.layers[0].bias for net in nets]),
        )
    ]
    for l in range(1, depth - 1):
        layers.append(
            AffineMap(
                sp.block_diag([net.layers[l].weights for net in nets], format="csr"),
                np.concatenate([net.layers[l].bias for net in nets]),
            )
        )
    weights = sp.hstack(
        [c * net.layers[-1].weights for c, net in zip(coeffs, nets)], format="csr"
    )
    bias = sum(c * net.layers[-1].bias for c, net in zip(coeffs, nets))
    layers.append(AffineMap(weights, bias))
    return NetworkParams(tuple(layers))


def compose_networks(outer: NetworkParams, inner: NetworkParams) -> NetworkParams:
    """Network computing outer(inner(x)).

    The last affine map of ``inner`` merges with the first affine map of
    ``outer`` (no ReLU in between), so the depth adds up minus one.
    """
    if inner.output_dim != outer.input_dim:
        raise ValueError(
            f"inner network produces {inner.output_dim} outputs but outer "
            f"expects {outer.input_dim} inputs"
        )
    a, b = outer.layers[0], inner.layers[-1]
    merged = AffineMap(a.weights @ b.weights, a.weights @ b.bias + a.bias)
    return NetworkParams(inner.layers[:-1] + (merged,) + outer.layers[1:])


def depth_pad(net: NetworkParams, depth: int) -> NetworkParams:
    """Pad a network to the given depth by appending identity gadgets."""
    if depth < net.depth:
        raise ValueError(f"cannot pad depth {net.depth} down to {depth}")
    if depth == net.depth:
        return net
    return compose_networks(identity_network(net.output_dim, depth - net.depth + 1), net)


# ---------------------------------------------------------------------------
# accounting


@dataclass(frozen=True)
class ComplexityReport:
    """Exact size counters for one network."""

    depth: int
    neurons: int
    nonzero_weights: int
    free_weights: int

    def __post_init__(self) -> None:
        for name in ("depth", "neurons", "nonzero_weights", "free_weights"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")


def first_layer_free(net: NetworkParams) -> tuple[bool, ...]:
    """Mask marking the first affine map as the data-carrying one."""
    return (True,) + (False,) * (net.depth - 1)


def complexity(net: NetworkParams, free_mask: Sequence[bool] | None = None) -> ComplexityReport:
    """Count depth, neurons, nonzero entries and free (data) entries.

    ``free_mask`` holds one flag per affine map; a flagged map contributes
    every weight and bias slot (zero-valued slots included, since they are
    still assignable data positions).
    """
    nonzero = 0
    for layer in net.layers:
        nonzero += int(layer.weights.count_nonzero()) + int(np.count_nonzero(layer.bias))
    free = 0
    if free_mask is not None:
        if len(free_mask) != net.depth:
            raise ValueError("free mask needs one flag per affine map")
        for flag, layer in zip(free_mask, net.layers):
            if flag:
                free += layer.out_dim * layer.in_dim + layer.out_dim
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
    if net.input_dim != int(doc["input_dim"]):
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
