import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from reluflow import (
    AffineMap,
    CSRMatrix,
    KuhnGrid,
    NetworkParams,
    PWLFunction,
    compile_pwl,
    complexity,
    eval_network,
    eval_network_batched,
    interpolate,
    load_network,
    min_tree_network,
    network_from_dict,
    network_to_dict,
    resolve_function,
    save_network,
)
from reluflow import networks
from reluflow.networks import BLAS_TERMS, BUDGET_BYTES, _kron, _tiles
from reluflow.pwl import _origin_nodal_coefficients


# the min gadget min(x, y) = (relu(x + y) - relu(-x - y) - relu(x - y) - relu(-x + y)) / 2
M1 = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]])
M2 = np.array([[0.5, -0.5, -0.5, -0.5]])


def abs_network() -> NetworkParams:
    # |x| = relu(x) + relu(-x)
    return NetworkParams(
        (AffineMap([[1.0], [-1.0]], [0.0, 0.0]), AffineMap([[1.0, 1.0]], [0.0]))
    )


def random_network(rng, d_in, d_out, depth, max_width=6) -> NetworkParams:
    widths = [d_in] + [int(rng.integers(2, max_width + 1)) for _ in range(depth - 1)] + [d_out]
    return NetworkParams(
        tuple(
            AffineMap(rng.normal(size=(widths[i + 1], widths[i])), rng.normal(size=widths[i + 1]))
            for i in range(depth)
        )
    )


def all_weights(net: NetworkParams) -> np.ndarray:
    return np.concatenate([layer.weights.toarray().ravel() for layer in net.layers])


def product(weights: CSRMatrix, x) -> np.ndarray:
    """(W @ x.T).T for the rows of x: a one-layer network with a zero bias."""
    return eval_network(NetworkParams((AffineMap(weights, np.zeros(weights.shape[0])),)), x)


def written_out_pass(net: NetworkParams, x) -> np.ndarray:
    # the reference formula: (W @ x.T).T + b per layer, ReLU between layers
    h = np.asarray(x, dtype=np.float64)
    last = net.depth - 1
    for l, layer in enumerate(net.layers):
        h = product(layer.weights, h) + layer.bias
        if l != last:
            h = np.maximum(h, 0.0)
    return h


def assert_same_bits(got, expected) -> None:
    assert np.array_equal(got, expected)
    assert np.array_equal(np.signbit(got), np.signbit(expected))


def in_chunks(net: NetworkParams, xs: np.ndarray, chunk: int) -> np.ndarray:
    """The forward pass on ``chunk`` rows of xs at a time."""
    return np.concatenate([eval_network(net, xs[s:s + chunk]) for s in range(0, len(xs), chunk)])


def sampled_function(dim: int, out_dim: int) -> PWLFunction:
    mix = np.random.default_rng(10 * dim + out_dim).normal(size=(dim, out_dim))
    return interpolate(lambda x: np.sin(x @ mix), 1.0, 0.6, dim)


def compiled_network(dim: int, out_dim: int) -> NetworkParams:
    return compile_pwl(sampled_function(dim, out_dim))


def sparse_network(dim: int, out_dim: int) -> NetworkParams:
    """A compiled function with values at a dozen random vertices."""
    rng = np.random.default_rng(20 * dim + out_dim)
    vertices = np.unique(rng.integers(-2, 3, size=(12, dim)), axis=0)
    values = rng.normal(size=(len(vertices), out_dim))
    return compile_pwl(PWLFunction.from_vertices(KuhnGrid(dim, 0.5), 1.0, vertices, values))


def one_tile(monkeypatch, net: NetworkParams) -> None:
    """Make every pass from now on run on one tile, and check that ``net``'s does."""
    monkeypatch.setattr(networks, "TILE_BYTES", 2**62)
    assert _tiles(net)[0] == 1


def value_tiles(monkeypatch, net: NetworkParams) -> int:
    """Make every pass from now on run one tile a copy of the hidden layers: a budget of
    one byte fits no tile, so T is the gcd G of their copies.  Returns T."""
    monkeypatch.setattr(networks, "TILE_BYTES", 1)
    return _tiles(net)[0]


def over_budget_weights() -> CSRMatrix:
    """Two copies of a 100,000 x 100,000 block holding three entries, in its rows 0 and 1:
    the dense block would take 80 GB."""
    side = 100_000
    pointers = np.r_[0, 2, np.full(side - 1, 3)]
    columns = np.array([0, 7, side - 1])
    return CSRMatrix(
        (np.tile([1.0, -2.0, 0.5], 2), np.r_[columns, columns + side],
         np.r_[pointers, pointers[1:] + 3]),
        (2 * side, 2 * side),
    )


def kron_layer(rng, copies: int, rows: int, cols: int, bias=None) -> AffineMap:
    """kron(I_copies, T), T a random dense (rows, cols) block, with a bias of ``copies``
    copies of one random block unless one is given."""
    weights = _kron(CSRMatrix.identity(copies), CSRMatrix.from_dense(rng.normal(size=(rows, cols))))
    return AffineMap(weights, np.tile(rng.normal(size=rows), copies) if bias is None else bias)


def scipy_csr(weights) -> sp.csr_matrix:
    """A layer's CSR arrays as a scipy matrix, for scipy's own operations."""
    return sp.csr_matrix((weights.data, weights.indices, weights.indptr), weights.shape)


def scipy_pass(net: NetworkParams, x) -> np.ndarray:
    """written_out_pass with scipy's CSR product."""
    h = np.asarray(x, dtype=np.float64)
    for l, layer in enumerate(net.layers):
        h = (scipy_csr(layer.weights) @ h.T).T + layer.bias
        if l != net.depth - 1:
            h = np.maximum(h, 0.0)
    return h


def assert_arrays(got: CSRMatrix, want: sp.csr_matrix) -> None:
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    assert np.array_equal(np.signbit(got.data), np.signbit(want.data))


class TestEval:
    def test_abs_gadget(self):
        assert eval_network(abs_network(), [-3.0]) == np.array([3.0])

    def test_hand_composed_two_layer(self):
        net = NetworkParams(
            (AffineMap([[2.0, 0.0], [0.0, 1.0]], [-1.0, 0.0]), AffineMap([[1.0, 1.0]], [0.0]))
        )
        assert eval_network(net, [1.0, 1.0]) == np.array([2.0])

    def test_batch_matches_single(self):
        rng = np.random.default_rng(3)
        net = random_network(rng, 3, 2, 3)
        xs = rng.normal(size=(20, 3))
        batch = eval_network(net, xs)
        for i in range(20):
            assert np.array_equal(batch[i], eval_network(net, xs[i]))

    def test_dimension_mismatch_names_layer(self):
        with pytest.raises(ValueError, match="layer 1"):
            eval_network(min_tree_network(2), [1.0, 2.0, 3.0])


class TestForwardPass:
    """The in-place, feature-major pass against the written-out formula, bit for bit."""

    def check(self, net: NetworkParams) -> None:
        xs = np.random.default_rng(net.neuron_count).uniform(-2.0, 2.0, size=(300, net.input_dim))
        kept = xs.copy()
        assert_same_bits(eval_network(net, xs), written_out_pass(net, xs))
        # one point (in,): a contiguous row, which the pass reads without copying
        one = eval_network(net, xs[7])
        assert one.shape == (net.output_dim,)
        assert_same_bits(one, written_out_pass(net, xs[7]))
        assert np.array_equal(xs, kept)

    @pytest.mark.parametrize("k", range(1, 8))
    def test_min_tree(self, k):
        self.check(min_tree_network(k))

    @pytest.mark.parametrize("out_dim", [1, 2, 3])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_compiled_network(self, dim, out_dim):
        self.check(compiled_network(dim, out_dim))

    def test_zero_bias_layers_keep_values_and_signs(self):
        # the pass skips the all-zero biases of the min-tree layers: adding
        # +0.0 would turn a -0.0 into +0.0, but the CSR product never gives -0.0
        net = compiled_network(2, 2)
        assert [bool(layer.bias.any()) for layer in net.layers] == [True] + [False] * (
            net.depth - 1
        )
        xs = np.random.default_rng(5).uniform(-2.0, 2.0, size=(200, 2))
        xs[:50] = -0.0
        xs[50:100, 0] = -0.0
        assert_same_bits(eval_network(net, xs), written_out_pass(net, xs))

    def test_reloaded_network(self, tmp_path):
        save_network(compiled_network(2, 2), tmp_path / "net.json")
        self.check(load_network(tmp_path / "net.json"))

    @pytest.mark.parametrize("out_dim", [1, 2, 3])
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_same_bits_in_any_chunk_alone_and_reloaded(self, tmp_path, dim, out_dim):
        # every product takes EVAL_CHUNK_ROWS rows, padded, so no row's bits
        # depend on the rows evaluated with it
        nets = [sparse_network(dim, out_dim)]
        if dim < 4:
            nets.append(compiled_network(dim, out_dim))
        for i, net in enumerate(nets):
            xs = np.random.default_rng(dim).uniform(-1.5, 1.5, size=(300, dim))
            whole = eval_network(net, xs)
            for chunk in (127, 128, 129, 300):
                assert_same_bits(in_chunks(net, xs, chunk), whole)
            for chunk in (1, 3):  # each chunk costs a padded one, so on fewer points
                assert_same_bits(in_chunks(net, xs[:12], chunk), whole[:12])
            assert_same_bits(eval_network_batched(net, xs), whole)
            for k in (0, 1, 128, 299):
                assert_same_bits(eval_network(net, xs[k]), whole[k])
            save_network(net, tmp_path / f"net{i}.json")
            loaded = load_network(tmp_path / f"net{i}.json")
            assert_same_bits(eval_network_batched(loaded, xs), whole)

    def test_ordered_sums_of_a_last_layer_with_copies(self, monkeypatch, tmp_path):
        # cos is positive on the cube, so every value's sign is +1, S = kron(I_2, 1^T)
        # and the last layer is kron(I_2, T): its stored-order sums run per copy, on the
        # last hidden layer of one tile or assembled from one tile a value
        net = compile_pwl(interpolate(resolve_function("cos").factory(2), 1.0, 0.25, 2))
        last = net.layers[-1].weights
        assert last.copies == 2 and np.diff(last.indptr).max() > BLAS_TERMS
        xs = np.random.default_rng(6).uniform(-1.5, 1.5, size=(300, 2))
        one_tile(monkeypatch, net)
        whole = eval_network(net, xs)
        assert np.abs(whole - scipy_pass(net, xs)).max() <= 1e-13
        save_network(net, tmp_path / "net.json")
        loaded = load_network(tmp_path / "net.json")
        for tiling in (one_tile, value_tiles):
            tiling(monkeypatch, net)
            for chunk in (127, 128, 129):
                assert_same_bits(in_chunks(net, xs, chunk), whole)
            assert_same_bits(in_chunks(net, xs[:12], 1), whole[:12])
            assert_same_bits(eval_network(loaded, xs), whole)
        assert _tiles(net)[0] == net.layers[0].out_dim // 6 > 1

    @pytest.mark.parametrize("out_dim", [1, 2, 3])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_vertex_tiles_give_the_bits_of_one_tile(self, monkeypatch, tmp_path, dim, out_dim):
        # a compiled network's hidden layers are kron(I_N, T_l): G = N, one tile a value
        net = compiled_network(dim, out_dim)
        xs = np.random.default_rng(dim).uniform(-1.5, 1.5, size=(300, dim))
        one_tile(monkeypatch, net)
        whole = eval_network(net, xs)
        count = net.layers[0].out_dim // math.factorial(dim + 1)
        assert value_tiles(monkeypatch, net) == count > 1
        save_network(net, tmp_path / "net.json")
        loaded = load_network(tmp_path / "net.json")
        for chunk in (127, 128, 129):
            assert_same_bits(in_chunks(net, xs, chunk), whole)
            assert_same_bits(in_chunks(loaded, xs, chunk), whole)
        assert_same_bits(in_chunks(net, xs[:12], 1), whole[:12])
        # a budget that one tile of a whole chunk's values overflows: tiles of several values
        monkeypatch.setattr(networks, "TILE_BYTES", 8 * networks.EVAL_CHUNK_ROWS * count * 4)
        assert 1 < _tiles(net)[0] < count
        assert_same_bits(eval_network(net, xs), whole)

    @pytest.mark.parametrize("size,tiles", [(4, 4), (5, 3), (6, 3), (7, 2), (12, 2)])
    def test_a_prime_count_of_values_takes_tiles_of_several(self, monkeypatch, tmp_path,
                                                              size, tiles):
        # 13 live values at d = 2: G = 13 has no divisor but 1 and 13.  A budget that fits
        # a tile of `size` values, not one more, gives ceil(13 / size) tiles, the last shorter
        rng = np.random.default_rng(17)
        vertices = np.stack(np.unravel_index(rng.choice(25, 13, replace=False), (5, 5)), 1) - 2
        f = PWLFunction.from_vertices(KuhnGrid(2, 0.5), 1.0, vertices, rng.normal(size=(13, 1)))
        net = compile_pwl(f)
        xs = rng.uniform(-1.5, 1.5, size=(300, 2))
        one_tile(monkeypatch, net)
        whole = eval_network(net, xs)
        assert value_tiles(monkeypatch, net) == 13
        # a tile of s values holds the input beside their rows of the first hidden layer, or
        # their rows of a later pair of hidden layers
        units = [w // 13 for w in net.layer_widths[1:-1]]
        pair = max(2 + units[0] * size, max(a + b for a, b in zip(units, units[1:])) * size)
        monkeypatch.setattr(networks, "TILE_BYTES", 8 * networks.EVAL_CHUNK_ROWS * pair)
        assert _tiles(net) == (tiles, 13)
        save_network(net, tmp_path / "net.json")
        loaded = load_network(tmp_path / "net.json")
        for chunk in (127, 128, 129):
            assert_same_bits(in_chunks(net, xs, chunk), whole)
            assert_same_bits(in_chunks(loaded, xs, chunk), whole)
        assert_same_bits(in_chunks(net, xs[:12], 1), whole[:12])

    def test_tiles_of_a_first_layer_summed_in_stored_order(self, monkeypatch):
        # a dense first layer of 10 inputs sums its rows in stored order; layers 2 and 3
        # are kron(I_4, B), so there are 4 tiles, each taking 2 of the first layer's 8 rows
        rng = np.random.default_rng(13)

        def copies(rows, cols):
            return _kron(CSRMatrix.identity(4), CSRMatrix.from_dense(rng.normal(size=(rows, cols))))

        net = NetworkParams((
            AffineMap(rng.normal(size=(8, 10)), rng.normal(size=8)),
            AffineMap(copies(3, 2), rng.normal(size=12)),
            AffineMap(copies(2, 3), rng.normal(size=8)),
            AffineMap(rng.normal(size=(2, 8)), rng.normal(size=2)),
        ))
        assert np.diff(net.layers[0].weights.indptr).max() > BLAS_TERMS
        xs = rng.normal(size=(300, 10))
        one_tile(monkeypatch, net)
        whole = eval_network(net, xs)
        assert np.abs(whole - scipy_pass(net, xs)).max() <= 1e-12
        assert value_tiles(monkeypatch, net) == 4
        assert_same_bits(eval_network(net, xs), whole)

    def test_a_pass_stays_on_one_tile_without_copies_or_below_depth_3(self, monkeypatch):
        # at the default budget: compile-d2's network and the small sparse ones
        assert _tiles(compile_pwl(interpolate(np.sin, 1.0, 0.5, 2)))[0] == 1
        for dim in (1, 2, 3, 4):
            assert _tiles(sparse_network(dim, 2))[0] == 1
        # at any budget: a random network (G = 1), a min tree whose first layer is
        # kron(I_2, M1), not one block, and a network of depth 2
        rng = np.random.default_rng(4)
        for net in (random_network(rng, 2, 2, 4), min_tree_network(4), abs_network()):
            assert value_tiles(monkeypatch, net) == 1

    @pytest.mark.parametrize("rows", [0, 1, 127, 128, 129, 300])
    def test_chunks_equal_one_whole_batch(self, rows):
        net = compiled_network(2, 2)
        xs = np.random.default_rng(rows).uniform(-2.0, 2.0, size=(rows, 2))
        kept = xs.copy()
        got = eval_network_batched(net, xs)
        assert got.shape == (rows, 2)
        assert np.array_equal(got, eval_network(net, xs))
        assert np.array_equal(xs, kept)

    def test_one_chunk_of_activations_is_held(self):
        # compile-d2's network, 2,860 neurons: the whole batch through one layer at a time
        # held 489 MiB of activations for these 20,000 points, one chunk at a time 2.3 MiB
        net = compile_pwl(interpolate(np.sin, 1.0, 0.5, 2))
        assert net.neuron_count == 2860
        xs = np.random.default_rng(0).uniform(-2.0, 2.0, size=(20_000, 2))
        tracemalloc.start()
        try:
            eval_network(net, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestCSRMatrix:
    @pytest.mark.parametrize("k", [*range(1, 9), 24, 120])
    def test_min_tree_layers_are_scipy_krons(self, k):
        # the first layer kron(I_{F/2}, M1) with the spare inputs folded in; then
        # kron(I_{w/2}, M1) @ kron(I_w, M2) for w = F/2, ..., 2; then M2.  scipy's
        # products leave their rows unsorted, the CSRMatrix layers have them sorted
        pair, join = sp.csr_matrix(M1), sp.csr_matrix(M2)
        expected = [sp.identity(1, format="csr")]
        if k > 1:
            full = 1 << (k - 1).bit_length()
            slots = np.arange(full)
            fold = sp.csr_matrix((np.ones(full), (slots, slots % k)), shape=(full, k))
            expected = [sp.kron(sp.identity(full // 2), pair, format="csr") @ fold]
            for w in (full >> s for s in range(1, full.bit_length() - 1)):
                expected.append(
                    sp.kron(sp.identity(w // 2), pair, format="csr")
                    @ sp.kron(sp.identity(w), join, format="csr")
                )
            expected = [layer.sorted_indices() for layer in expected] + [join]
        tree = min_tree_network(k)
        assert len(tree.layers) == len(expected)
        for layer, want in zip(tree.layers, expected):
            assert_arrays(layer.weights, want)

    def test_min_tree_first_layer_is_built_sparse(self):
        # k = 720 (d = 5): a dense kron(I_512, M1) @ fold of the 1,024 slots peaked
        # at 32.9 MiB for 4,096 entries
        tracemalloc.start()
        try:
            tree = min_tree_network(720)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tree.layers[0].weights.nnz == 4096
        assert peak < 2**20

    @pytest.mark.parametrize("out_dim", [1, 2, 3])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_compiled_layers_are_scipy_krons(self, dim, out_dim):
        f = sampled_function(dim, out_dim)
        component, vertex = np.nonzero(f.values.T)
        c = f.values[vertex, component]
        gradients = _origin_nodal_coefficients(dim) / f.grid.cell_size
        tree = min_tree_network(math.factorial(dim + 1))
        signs = sp.csr_matrix((np.sign(c), (component, np.arange(len(c)))), shape=(out_dim, len(c)))
        expected = (
            [sp.csr_matrix((np.abs(c)[:, None, None] * gradients).reshape(-1, dim))]
            + [
                sp.kron(sp.identity(len(c)), scipy_csr(layer.weights), format="csr")
                for layer in tree.layers[:-1]
            ]
            + [sp.kron(signs, scipy_csr(tree.layers[-1].weights), format="csr")]
        )
        net = compile_pwl(f)
        for layer, want in zip(net.layers, expected, strict=True):
            assert_arrays(layer.weights, want)

    def test_from_dense_keeps_the_nonzeros_in_row_order(self):
        dense = np.array([[0.0, -1.5, 0.0], [-0.0, 0.0, 0.0], [2.0, 0.0, 3.0]])
        assert_arrays(CSRMatrix.from_dense(dense), sp.csr_matrix(dense))
        assert np.array_equal(CSRMatrix.from_dense(dense).toarray(), dense)

    def test_read_only(self):
        weights = min_tree_network(2).layers[0].weights
        with pytest.raises(AttributeError):
            weights.shape = (2, 4)
        with pytest.raises(ValueError):
            weights.data[0] = 2.0
        # the caller's arrays stay writable
        data = np.ones(2)
        CSRMatrix((data, [0, 1], [0, 1, 2]), (2, 2))
        data[0] = 3.0

    @pytest.mark.parametrize(
        "k,layer,copies,block",
        [(4, 0, 2, (4, 2)), (16, 0, 8, (4, 2)), (6, 0, 1, (16, 6)), (8, 1, 2, (4, 8)),
         (16, 1, 4, (4, 8)), (16, 3, 1, (4, 8)), (16, 4, 1, (1, 4))],
    )
    def test_copies_of_one_block(self, k, layer, copies, block):
        # a min tree's layers: kron(I_{F/2}, M1) (folded when k < F), kron(I_{w/2}, P)
        # with P = M1 @ kron(I_2, M2), and M2
        weights = min_tree_network(k).layers[layer].weights
        assert (weights.copies, weights.block.shape) == (copies, block)
        assert np.array_equal(np.kron(np.eye(copies), weights.block), weights.toarray())

    def test_a_sign_of_zero_breaks_the_copies(self):
        # kron(I_2, [1, 0]) with the second copy's zero stored as -0.0
        same = CSRMatrix(([1.0, 0.0, 1.0, 0.0], [0, 1, 2, 3], [0, 2, 4]), (2, 4))
        signed = CSRMatrix(([1.0, 0.0, 1.0, -0.0], [0, 1, 2, 3], [0, 2, 4]), (2, 4))
        assert (same.copies, signed.copies) == (2, 1)

    def test_a_block_over_the_budget_fails_before_allocating(self):
        weights, side = over_budget_weights(), 100_000
        assert weights.copies == 2
        net = NetworkParams((AffineMap(weights, np.zeros(2 * side)),))
        point = np.zeros(2 * side)
        tracemalloc.start()
        try:
            message = f"would need {8 * side**2} bytes, over the budget of {BUDGET_BYTES}"
            with pytest.raises(ValueError, match=message):
                eval_network(net, point)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**24

    @pytest.mark.parametrize("out_dim", [1, 2, 3])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_forward_pass_agrees_with_scipy(self, dim, out_dim):
        rng = np.random.default_rng(dim + 4 * out_dim)
        for net in (compiled_network(dim, out_dim), random_network(rng, dim, out_dim, 4)):
            xs = rng.uniform(-2.0, 2.0, size=(300, dim))
            assert np.abs(eval_network(net, xs) - scipy_pass(net, xs)).max() <= 1e-13

    def test_product_agrees_with_scipy(self):
        rng = np.random.default_rng(8)
        for shape in ((3, 40), (40, 3), (6, 6), (1, 300)):
            dense = np.where(rng.uniform(size=shape) < 0.5, rng.normal(size=shape), 0.0)
            weights = CSRMatrix.from_dense(dense)
            x = rng.normal(size=(shape[1], 5))
            assert np.abs(product(weights, x.T).T - sp.csr_matrix(dense) @ x).max() <= 1e-13
            got = product(weights, x[:, 0])
            assert np.abs(got - sp.csr_matrix(dense) @ x[:, 0]).max() <= 1e-13


class TestGadgets:
    def test_min2_values(self):
        net = min_tree_network(2)
        assert eval_network(net, [3.0, -1.0]) == np.array([-1.0])
        assert eval_network(net, [0.25, 0.25]) == np.array([0.25])

    def test_min2_shape_and_weights(self):
        net = min_tree_network(2)
        assert net.layer_widths == (2, 4, 1)
        assert set(all_weights(net)) <= {-1.0, 1.0, -0.5, 0.5}

    def test_min2_layers_are_the_gadget(self):
        # the CSR arrays of M1, then M2, bit for bit, and no bias
        net = min_tree_network(2)
        for layer, dense in zip(net.layers, (M1, M2), strict=True):
            got, want = layer.weights, CSRMatrix.from_dense(dense)
            assert got.shape == want.shape and not layer.bias.any()
            assert np.array_equal(got.data.view(np.int64), want.data.view(np.int64))
            for name in ("indptr", "indices"):
                assert np.array_equal(getattr(got, name), getattr(want, name))

    def test_min_tree_power_of_two_complexity(self):
        for k in range(1, 34):
            levels = (k - 1).bit_length()  # ceil(log2(k))
            net = min_tree_network(k)
            assert net.neuron_count == k + 4 * 2**levels - 3
            assert net.depth == levels + 1

    def test_min_tree_weight_set(self):
        for d in (2, 3, 4, 5, 6, 8, 16, 24):
            assert set(all_weights(min_tree_network(d))) <= {0.0, -1.0, 1.0, -0.5, 0.5}

    def test_min_tree_examples(self):
        assert min_tree_network(4).neuron_count == 17
        assert eval_network(min_tree_network(2), [3.0, -1.0]) == np.array([-1.0])
        assert eval_network(min_tree_network(3), [2.0, 5.0, 1.0]) == np.array([1.0])

    def test_min_tree_matches_sorted_min(self):
        rng = np.random.default_rng(1)
        for d in (1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 24):
            net = min_tree_network(d)
            xs = rng.uniform(-10.0, 10.0, size=(2000, d))
            expected = np.sort(xs, axis=1)[:, 0]
            got = eval_network(net, xs)[:, 0]
            assert np.abs(got - expected).max() <= 1e-12

    def test_min_tree_rejects_empty(self):
        with pytest.raises(ValueError):
            min_tree_network(0)


class TestComplexity:
    def test_min_tree_neurons(self):
        assert complexity(min_tree_network(4)).neurons == 17

    def test_nonzero_count_matches_direct_count(self):
        for d in (2, 3, 4, 8):
            net = min_tree_network(d)
            direct = sum(
                int(np.count_nonzero(layer.weights.toarray())) + int(np.count_nonzero(layer.bias))
                for layer in net.layers
            )
            assert complexity(net).nonzero_weights == direct

    def test_min_tree_nonzero_scales_linearly(self):
        counts = {d: complexity(min_tree_network(d)).nonzero_weights for d in (2, 4, 8, 16, 32)}
        for d, count in counts.items():
            assert d <= count <= 30 * d

    def test_free_mask(self):
        net = min_tree_network(4)
        report = complexity(net)
        first = net.layers[0]
        assert report.free_weights == first.out_dim * (first.in_dim + 1)

    def test_all_zero_network_counts_every_free_slot(self):
        net = NetworkParams((AffineMap(np.zeros((2, 3)), np.zeros(2)),))
        report = complexity(net)
        assert (report.nonzero_weights, report.free_weights) == (0, 8)


class TestConstruction:
    def test_layer_chain_validated(self):
        with pytest.raises(ValueError, match="layer 2"):
            NetworkParams((AffineMap([[1.0]], [0.0]), AffineMap([[1.0, 1.0]], [0.0])))

    def test_finite_entries_required(self):
        with pytest.raises(ValueError):
            AffineMap([[np.inf]], [0.0])
        with pytest.raises(ValueError):
            AffineMap([[1.0]], [np.nan])

    def test_bias_length_checked(self):
        with pytest.raises(ValueError):
            AffineMap([[1.0], [2.0]], [0.0])


class TestSerialization:
    def test_round_trip_is_value_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        net = random_network(rng, 3, 2, 4)
        path = tmp_path / "net.json"
        save_network(net, path)
        back = load_network(path)
        for ours, theirs in zip(net.layers, back.layers):
            assert np.array_equal(ours.weights.toarray(), theirs.weights.toarray())
            assert np.array_equal(ours.bias, theirs.bias)
        assert_same_csr(net, back)
        xs = rng.normal(size=(100, 3))
        assert np.array_equal(eval_network(net, xs), eval_network(back, xs))

    def test_csr_arrays_are_kept_as_stored(self, tmp_path):
        # unsorted column indices and explicitly stored zeros of both signs
        weights = CSRMatrix(
            (np.array([2.0, -0.0, 0.0, 1.5]), np.array([1, 0, 1, 0]), np.array([0, 2, 4])),
            shape=(2, 2),
        )
        net = NetworkParams((AffineMap(weights, [-0.0, 0.25]), AffineMap([[1.0, -1.0]], [0.0])))
        path = tmp_path / "net.json"
        save_network(net, path)
        back = load_network(path)
        assert_same_csr(net, back)
        assert back.layers[0].weights.nnz == 4
        xs = np.random.default_rng(2).normal(size=(50, 2))
        assert np.array_equal(eval_network(net, xs), eval_network(back, xs))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_compiled_network_file_scales_with_nonzeros(self, tmp_path, dim):
        target = interpolate(resolve_function("sin").factory(dim), 1.0, 0.8, dim)
        net = compile_pwl(target)
        doc = network_to_dict(net)
        for item, layer in zip(doc["layers"], net.layers):
            assert len(item["data"]) == len(item["indices"]) == layer.weights.nnz
            assert item["shape"] == [layer.out_dim, layer.in_dim]
        path = tmp_path / "net.json"
        save_network(net, path)
        assert path.read_text() == json.dumps(doc)
        back = load_network(path)
        assert_same_csr(net, back)
        xs = np.random.default_rng(dim).uniform(-1.5, 1.5, size=(200, dim))
        assert np.array_equal(eval_network(net, xs), eval_network(back, xs))

    @pytest.mark.parametrize("entries", [3, networks.SAVE_SLICE])
    def test_saved_bytes_are_the_json_dumps_of_the_document(self, monkeypatch, tmp_path, entries):
        # arrays of 70,000 entries, longer than one slice; a layer with no stored entry; and
        # values whose shortest repr json keeps: -0.0, the least subnormal and exponents
        monkeypatch.setattr(networks, "SAVE_SLICE", entries)
        rng, wide, values = np.random.default_rng(9), 70_000, [-0.0, 5e-324, 1e-05, 1e16, 1e22]
        net = NetworkParams((
            AffineMap(CSRMatrix((rng.normal(size=wide), np.zeros(wide, dtype=int),
                                 np.arange(wide + 1)), (wide, 1)), rng.normal(size=wide)),
            AffineMap(CSRMatrix(([], [], np.zeros(6, dtype=int)), (5, wide)), values),
            AffineMap(CSRMatrix((values, range(5), [0, 5]), (1, 5)), [-0.0]),
        ))
        save_network(net, tmp_path / "net.json")
        assert (tmp_path / "net.json").read_bytes() == json.dumps(network_to_dict(net)).encode()
        assert_same_csr(net, load_network(tmp_path / "net.json"))

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_compiled_networks_save_as_the_json_dumps_of_their_document(self, tmp_path, dim):
        # the tree layers are kron(I_N, T_l), whose data is written a block at a time: after
        # a forward pass has found their copies, and after a reload, when saving finds them
        net = compiled_network(dim, 2) if dim < 4 else sparse_network(dim, 2)
        text = json.dumps(network_to_dict(net)).encode()
        eval_network(net, np.zeros(dim))
        assert net.layers[1].weights.copies > 1
        save_network(net, tmp_path / "net.json")
        assert (tmp_path / "net.json").read_bytes() == text
        loaded = load_network(tmp_path / "net.json")
        assert "copies" not in vars(loaded.layers[1].weights)
        save_network(loaded, tmp_path / "again.json")
        assert "copies" in vars(loaded.layers[1].weights)
        assert (tmp_path / "again.json").read_bytes() == text

    @pytest.mark.parametrize("entries,floats", [(3, 38), (5, 34), (networks.SAVE_SLICE, 28)])
    def test_a_repeated_block_is_encoded_once(self, monkeypatch, tmp_path, entries, floats):
        # data blocks of 3, 4 and 6 entries; the first layer's bias repeats 1 entry, the
        # third's 3; the second's copies differ in the sign of a zero.  A block of at most
        # SAVE_SLICE entries is encoded once, anything else entry by entry, so the floats
        # encoded are, for each layer, data and bias:
        #   SAVE_SLICE 3:  3 + 1,  8 + 4,  12 + 3,  6 + 1
        #   SAVE_SLICE 5:  3 + 1,  4 + 4,  12 + 3,  6 + 1
        #   default:       3 + 1,  4 + 4,   6 + 3,  6 + 1   (every entry: 53)
        monkeypatch.setattr(networks, "SAVE_SLICE", entries)
        rng = np.random.default_rng(14)
        net = NetworkParams((
            kron_layer(rng, 4, 1, 3),
            kron_layer(rng, 2, 2, 2, bias=[0.0, 1.5, -0.0, 1.5]),
            kron_layer(rng, 2, 3, 2),
            AffineMap(rng.normal(size=(1, 6)), rng.normal(size=1)),
        ))
        assert [layer.weights.copies for layer in net.layers] == [4, 2, 2, 1]
        text = json.dumps(network_to_dict(net)).encode()
        encoded, dumps = [], json.dumps

        def counted(obj, *args, **kwargs):
            if obj and all(isinstance(v, float) for v in obj):
                encoded.append(len(obj))
            return dumps(obj, *args, **kwargs)

        monkeypatch.setattr(json, "dumps", counted)
        save_network(net, tmp_path / "net.json")
        assert sum(encoded) == floats and max(encoded) <= entries
        assert (tmp_path / "net.json").read_bytes() == text
        assert_same_csr(net, load_network(tmp_path / "net.json"))

    def test_a_layer_whose_block_is_over_the_budget_saves(self, tmp_path):
        # saving reads the copies, never the dense block, which would take 80 GB
        weights = over_budget_weights()
        net = NetworkParams((AffineMap(weights, np.zeros(weights.shape[0])),))
        with pytest.raises(ValueError, match="over the budget"):
            weights.block
        save_network(net, tmp_path / "net.json")
        assert (tmp_path / "net.json").read_bytes() == json.dumps(network_to_dict(net)).encode()

    def test_save_and_load_hold_a_slice_and_a_layer_of_python_objects(self, tmp_path):
        # 8 layers of kron(I_1024, B), B a random dense 4 x 4: a 4.1 MiB file.  The whole
        # document as Python lists, and its text, peaked at 19.3 MiB to save; to load, its
        # text, all of its lists and the arrays peaked at 14.6 MiB.  A slice of one array
        # at a time takes 2.3 MiB; the text, one layer's lists and the arrays take 8.3 MiB
        rng = np.random.default_rng(12)
        net = NetworkParams(tuple(
            AffineMap(_kron(CSRMatrix.identity(1024), CSRMatrix.from_dense(rng.normal(size=(4, 4)))),
                      rng.normal(size=4096))
            for _ in range(8)
        ))
        path = tmp_path / "net.json"
        assert traced_peak(lambda: save_network(net, path)) < 4 * 2**20
        assert traced_peak(lambda: load_network(path)) < 11 * 2**20
        assert_same_csr(net, load_network(path))

    def test_document_shape(self):
        doc = network_to_dict(min_tree_network(2))
        assert doc["input_dim"] == 2
        assert [len(layer["bias"]) for layer in doc["layers"]] == [4, 1]
        assert network_from_dict(json.loads(json.dumps(doc))).layer_widths == (2, 4, 1)

    def test_declared_input_dim_checked(self):
        doc = network_to_dict(min_tree_network(2))
        doc["input_dim"] = 3
        with pytest.raises(ValueError):
            network_from_dict(doc)


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def min2_document() -> dict:
    return json.loads(json.dumps(network_to_dict(min_tree_network(2))))


def without(doc: dict, key: str) -> dict:
    return {k: v for k, v in doc.items() if k != key}


class TestLoadChecks:
    """A network file comes from outside the program: every CSR fault is
    rejected with a ValueError naming the layer, never evaluated."""

    @pytest.mark.parametrize(
        "fault,message",
        [
            (lambda layer: layer["indices"].__setitem__(0, 7), "indices must be < 2"),
            (lambda layer: layer["indices"].__setitem__(0, 2**32), "indices must be < 2"),
            (lambda layer: layer["indices"].__setitem__(0, 1.5), "lists of integers"),
            (lambda layer: layer["indptr"].__setitem__(1, 5), "non-decreasing"),
            (lambda layer: layer.update(indptr=[0, 1, 0, 0, 0], indices=[], data=[]),
             "non-decreasing"),
            (lambda layer: layer["indptr"].__setitem__(4, 7), "end at the number of stored"),
            (lambda layer: layer["indptr"].__setitem__(4, 2**32 + 8),
             "end at the number of stored"),
            (lambda layer: layer["indptr"].__setitem__(1, 2**32 + 2), "non-decreasing"),
            (lambda layer: layer["indptr"].append(8), "index pointer size 6 should be 5"),
            (lambda layer: layer["data"].pop(), "indices and data should have the same size"),
            (lambda layer: layer.update(shape=5), "'int' object is not iterable"),
            (lambda layer: layer.update(data={}), "float() argument must be"),
            (lambda layer: layer.update(bias=[1.0]), "4 weight rows but 1 bias entries"),
            # JSON integers past the float range
            (lambda layer: layer["data"].__setitem__(0, 10**400),
             "field 'data': int too large to convert to float"),
            (lambda layer: layer["bias"].__setitem__(3, -(10**400)),
             "field 'bias': int too large to convert to float"),
        ],
        ids=[
            "index-out-of-range",
            "index-past-int32",
            "non-integer-index",
            "decreasing-indptr",
            "decreasing-indptr-no-entries",
            "indptr-short-of-entries",
            "indptr-end-past-int32",
            "indptr-entry-past-int32",
            "indptr-length",
            "data-length",
            "shape-a-number",
            "data-an-object",
            "bias-length",
            "data-past-float",
            "bias-past-float",
        ],
    )
    def test_malformed_csr_names_the_layer(self, tmp_path, fault, message):
        # as a document and as a file, whose layers' lists load_network turns into arrays
        doc = min2_document()
        fault(doc["layers"][0])
        (tmp_path / "net.json").write_text(json.dumps(doc))
        for load in (lambda: network_from_dict(doc), lambda: load_network(tmp_path / "net.json")):
            with pytest.raises(ValueError, match="layer 1: ") as info:
                load()
            assert message in str(info.value)

    @pytest.mark.parametrize(
        "fault,message",
        [
            (lambda doc: [], "a network document is a JSON object, not list"),
            (lambda doc: {**doc, "layers": [1]},
             "layer 1 is not an object with the fields shape, indptr, indices, data, bias"),
            (lambda doc: {**doc, "layers": [doc["layers"][0], without(doc["layers"][1], "bias")]},
             "layer 2 is not an object with the fields shape, indptr, indices, data, bias"),
            (lambda doc: without(doc, "input_dim"), "field 'input_dim' is missing"),
            (lambda doc: {**doc, "layers": {}}, "field 'layers' is not a list of layers"),
        ],
        ids=["document-a-list", "layer-a-number", "layer-without-bias", "no-input-dim",
             "layers-an-object"],
    )
    def test_malformed_document_names_the_fault(self, tmp_path, fault, message):
        doc = fault(min2_document())
        (tmp_path / "net.json").write_text(json.dumps(doc))
        for load in (lambda: network_from_dict(doc), lambda: load_network(tmp_path / "net.json")):
            with pytest.raises(ValueError) as info:
                load()
            assert str(info.value) == message

    @pytest.mark.parametrize("found", [None, "csr-2", "dense"])
    def test_missing_or_unknown_format_is_rejected(self, found):
        doc = min2_document()
        if found is None:
            del doc["format"]
        else:
            doc["format"] = found
        with pytest.raises(ValueError, match=f"format is {found!r}, not 'csr-1'"):
            network_from_dict(doc)

    def test_dense_document_asks_for_recompiling(self):
        net = min_tree_network(2)
        dense = {
            "input_dim": 2,
            "layers": [
                {"weights": layer.weights.toarray().tolist(), "bias": layer.bias.tolist()}
                for layer in net.layers
            ],
        }
        with pytest.raises(ValueError, match="must be recompiled"):
            network_from_dict(dense)


def assert_same_csr(net: NetworkParams, back: NetworkParams) -> None:
    """The loaded layers hold the saved CSR arrays and biases exactly."""
    assert len(back.layers) == len(net.layers)
    for ours, theirs in zip(net.layers, back.layers):
        assert theirs.weights.shape == ours.weights.shape
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(theirs.weights, name), getattr(ours.weights, name))
        assert np.array_equal(np.signbit(theirs.weights.data), np.signbit(ours.weights.data))
        assert np.array_equal(theirs.bias, ours.bias)
        assert np.array_equal(np.signbit(theirs.bias), np.signbit(ours.bias))
