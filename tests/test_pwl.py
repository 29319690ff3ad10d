import hashlib
import itertools
import json
import math
import re
import tracemalloc
from collections import Counter
from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp

from reluflow import (
    AffineMap,
    CSRMatrix,
    KuhnGrid,
    NetworkParams,
    PWLFunction,
    SimplexRef,
    barycentric,
    compile_pwl,
    compiled_complexity,
    compiled_depth,
    compiled_layers,
    eval_network,
    eval_network_batched,
    eval_pwl,
    interpolate,
    load_pwl,
    locate,
    min_tree_network,
    network_to_dict,
    pwl_from_dict,
    pwl_to_dict,
    resolve_function,
    save_pwl,
    simplex_vertices,
)
from reluflow.cli import main
from reluflow.pwl import _origin_nodal_coefficients, complexity, eval_pwl_bytes
from test_kuhn import barycentric_oracle
from test_networks import scipy_csr


def hat_1d() -> PWLFunction:
    return PWLFunction.from_vertices(KuhnGrid(1), 1.0, [[0]], [[1.0]])


def random_listing(rng, dim, cells, out_dim=1, sparsity=0.2):
    """Random values at a random subset of the vertices of [-cells, cells]^d."""
    vertices, values = [], []
    for coords in itertools.product(range(-cells, cells + 1), repeat=dim):
        if rng.uniform() < sparsity:
            continue  # absent vertices read as zero
        vertices.append(coords)
        values.append(rng.normal(size=out_dim))
    if not vertices:
        vertices.append((0,) * dim)
        values.append(rng.normal(size=out_dim))
    return np.array(vertices), np.array(values)


def random_pwl(rng, dim, cells, h, out_dim=1, sparsity=0.2) -> PWLFunction:
    listing = random_listing(rng, dim, cells, out_dim, sparsity)
    return PWLFunction.from_vertices(KuhnGrid(dim, h), cells * h, *listing)


def sparse_d3_with_a_zero_component(rng) -> PWLFunction:
    vertices, values = random_listing(rng, 3, 2, out_dim=3, sparsity=0.3)
    values = np.where(rng.uniform(size=values.shape) < 0.2, 0.0, values)
    values[:, 1] = 0.0
    return PWLFunction.from_vertices(KuhnGrid(3, 0.5), 1.0, vertices, values)


def no_values(dim, out_dim):
    return np.zeros((0, dim), dtype=np.int64), np.zeros((0, out_dim))


def hat_network(grid: KuhnGrid, vertex) -> NetworkParams:
    """The compiled PWL function with value 1 at ``vertex`` alone."""
    vertex = np.array([vertex], dtype=np.int64)
    radius = (np.abs(vertex).max() + 1) * grid.cell_size
    return compile_pwl(PWLFunction.from_vertices(grid, radius, vertex, np.ones((1, 1))))


def from_scipy(matrix) -> CSRMatrix:
    matrix = matrix.tocsr()
    return CSRMatrix((matrix.data, matrix.indices, matrix.indptr), matrix.shape)


def per_vertex_network(f: PWLFunction) -> NetworkParams:
    """The compiler's result assembled with plain scipy from one hat
    network per nonzero vertex value, for comparison weight by weight.  An
    identically zero component has no neurons: every stack starts empty."""
    d, m = f.grid.dim, f.output_dim
    tree = min_tree_network(f.grid.simplices_per_vertex)
    depth = compiled_depth(d)
    components = []
    for j in range(m):
        firsts, signs = [], []
        for vertex, value in zip(f.vertices, f.values):
            c = float(value[j])
            if c == 0.0:
                continue
            pieces = hat_network(f.grid, vertex).layers[0]
            scaled = from_scipy(abs(c) * scipy_csr(pieces.weights))
            firsts.append(AffineMap(scaled, abs(c) * pieces.bias))
            signs.append(math.copysign(1.0, c))
        layers = [
            AffineMap(
                from_scipy(
                    sp.vstack([sp.csr_matrix((0, d))] + [scipy_csr(a.weights) for a in firsts])
                ),
                np.concatenate([np.zeros(0)] + [a.bias for a in firsts]),
            )
        ]
        for layer in tree.layers[:-1]:
            blocks = [sp.csr_matrix((0, 0))] + [scipy_csr(layer.weights)] * len(firsts)
            layers.append(
                AffineMap(from_scipy(sp.block_diag(blocks)), np.zeros(len(firsts) * layer.out_dim))
            )
        last = scipy_csr(tree.layers[-1].weights)
        signed = sp.hstack([sp.csr_matrix((1, 0))] + [s * last for s in signs])
        layers.append(AffineMap(from_scipy(signed), np.zeros(1)))
        components.append(layers)
    # the components share the input, then run side by side
    joins = [sp.vstack] + [sp.block_diag] * (depth - 1)
    return NetworkParams(
        tuple(
            AffineMap(
                from_scipy(join([scipy_csr(layers[l].weights) for layers in components])),
                np.concatenate([layers[l].bias for layers in components]),
            )
            for l, join in enumerate(joins)
        )
    )


EPS = np.finfo(np.float64).eps


def sparse_cases(seed):
    """Sparse PWL functions for d = 1-3 and m = 1-3: absent interior
    vertices, zero values, a zero component (m > 1), and for each d the
    all-zero function listed as zero values and with no vertex at all.
    Each comes with the number of vertices it was built from."""
    rng = np.random.default_rng(seed)
    cases = []
    for dim, cells in ((1, 8), (2, 4), (3, 2)):
        build = partial(PWLFunction.from_vertices, KuhnGrid(dim, 0.5), cells * 0.5)
        for out_dim in (1, 2, 3):
            vertices, values = random_listing(rng, dim, cells, out_dim=out_dim, sparsity=0.3)
            values = np.where(rng.uniform(size=values.shape) < 0.2, 0.0, values)
            if out_dim > 1:
                values[:, 1] = 0.0
            cases.append((build(vertices, values), len(vertices)))
        cases.append((build(vertices, np.zeros_like(values)), len(vertices)))
        cases.append((build(*no_values(dim, 2)), 0))
    return cases


def probe_points(rng, f, count=300) -> np.ndarray:
    """Uniform points reaching past the cube, lattice vertices, points on
    cell faces and points on the faces between the simplices of a cell."""
    d, h, r = f.grid.dim, f.grid.cell_size, f.cube_radius
    cells = round(r / h)
    spread = rng.uniform(-r - 2 * h, r + 2 * h, size=(count, d))
    vertices = h * rng.integers(-cells - 1, cells + 2, size=(count, d)).astype(float)
    faces = spread.copy()
    axis = rng.integers(d)
    faces[:, axis] = h * np.round(faces[:, axis] / h)
    diagonals = h * (np.floor(spread / h) + rng.uniform(size=(count, 1)))
    return np.concatenate([spread, vertices, faces, diagonals])


def eval_pwl_reference(f: PWLFunction, x) -> np.ndarray:
    """eval_pwl composed from the grid functions, as it was before its kernel was fused:
    clip, locate, barycentric and simplex_vertices, then each corner's value row by its
    index in the cube, zero outside it."""
    c, d = f.cells, f.grid.dim
    bound = f.cube_radius + 2.0 * f.grid.cell_size
    x = np.clip(x, -bound, bound)
    ref = locate(f.grid, x)[0]
    weights = barycentric(f.grid, ref, x, tol=1e-6)
    corners = simplex_vertices(f.grid, ref)
    index = np.ravel_multi_index(np.moveaxis(corners + c, -1, 0), (2 * c + 1,) * d, mode="clip")
    rows = f.values[index]
    rows[np.any(np.abs(corners) > c, axis=-1)] = 0.0
    return (weights[..., None] * rows).sum(axis=-2)


def compare_on_points(f, net, points) -> float:
    gaps = eval_network_batched(net, points) - eval_pwl(f, points)
    return float(np.linalg.norm(gaps, axis=1).max())


class TestEvalPwl:
    def test_hat_interpolates(self):
        assert eval_pwl(hat_1d(), [0.5]) == np.array([0.5])

    def test_stored_vertex_value(self):
        rng = np.random.default_rng(0)
        f = random_pwl(rng, 2, 2, 0.5)
        point = f.vertices[0] * f.grid.cell_size
        assert np.abs(eval_pwl(f, point) - f.values[0]).max() <= 1e-12

    def test_square_samples(self):
        vertices = [[i] for i in range(-2, 3)]
        values = [[(0.5 * i) ** 2] for [i] in vertices]
        f = PWLFunction.from_vertices(KuhnGrid(1, 0.5), 1.0, vertices, values)
        assert abs(eval_pwl(f, [0.25])[0] - 0.125) <= 1e-12

    def test_zero_outside_support(self):
        assert eval_pwl(hat_1d(), [5.0]) == np.array([0.0])

    @pytest.mark.parametrize("out_dim", [1, 2, 3])
    def test_batch_matches_linear_system_oracle(self, out_dim):
        rng = np.random.default_rng(70 + out_dim)
        for dim, cells, h in [(1, 4, 0.25), (2, 2, 0.5), (3, 1, 1.0)]:
            f = random_pwl(rng, dim, cells, h, out_dim=out_dim)
            stored = {tuple(v): c for v, c in zip(f.vertices.tolist(), f.values)}
            r = f.cube_radius
            points = rng.uniform(-r - 2 * h, r + 2 * h, size=(300, dim))
            got = eval_pwl(f, points)
            assert got.shape == (300, out_dim)
            for x, row in zip(points, got):
                ref, _ = locate(f.grid, x)
                corners = map(tuple, simplex_vertices(f.grid, ref).tolist())
                expected = sum(
                    w * stored.get(v, np.zeros(out_dim))
                    for w, v in zip(barycentric_oracle(f.grid, ref, x), corners)
                )
                assert np.abs(row - expected).max() <= 1e-12
            # every simplex vertex of these points lies outside the cube
            beyond = np.abs(points).max(axis=1) > r + h
            assert beyond.any() and np.all(got[beyond] == 0.0)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    @pytest.mark.parametrize("vector", [False, True], ids=["m=1", "m=d"])
    def test_equals_the_grid_functions_bit_for_bit(self, dim, vector):
        rng = np.random.default_rng(90 + dim)
        f = random_pwl(rng, dim, 2, 0.5, out_dim=dim if vector else 1)
        # signs of zero show in a sum of zero terms: a corner outside the cube adds +0, and
        # one of weight 0 adds 0 with its row's sign.  So the values include -0.0, and two
        # value sets give sums of zeros: one of -0.0 and +-1, one negative everywhere
        shape = f.values.shape
        signed = np.where(rng.uniform(size=shape) < 0.2, -0.0, f.values)
        for values in (signed, rng.choice([-0.0, -1.0, 1.0], size=shape), -np.abs(signed)):
            g = PWLFunction(f.grid, f.cube_radius, values)
            # the same values on cells of 1e-300: points of size 1 lie 1e300 cells away
            tiny = PWLFunction(KuhnGrid(dim, 1e-300), 2e-300, values)
            far = 1e300 * f.grid.cell_size * np.eye(dim)[rng.integers(dim, size=40)]
            cases = [
                (g, probe_points(rng, f)),  # inside and outside, on vertices and faces
                (g, np.concatenate([far, -far, far + rng.uniform(-1.0, 1.0, size=(40, dim))])),
                (tiny, np.concatenate([1e-300 * probe_points(rng, f, 50), np.sign(far)])),
                (g, rng.uniform(-1.5, 1.5, size=(2, 3, dim))),
                (g, rng.uniform(-1.0, 1.0, size=dim)),
                (g, np.zeros((0, dim))),
            ]
            for h, points in cases:
                got, expected = eval_pwl(h, points), eval_pwl_reference(h, points)
                assert got.shape == expected.shape == points.shape[:-1] + (h.output_dim,)
                assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    def test_cube_with_more_lattice_points_than_an_int64_counts(self, tmp_path, capsys):
        # (2^22 + 1)^3 lattice points: a value matrix of 1.2e21 bytes, refused before allocating
        small = random_pwl(np.random.default_rng(11), 3, 1, 1.0, out_dim=2)
        need = 8 * (2**22 + 1) ** 3 * 2
        message = f"4194305^3 lattice points of the cube would need {need} bytes, over the budget"
        with pytest.raises(ValueError, match=re.escape(message)):
            PWLFunction.from_vertices(small.grid, 2.0**21, [[0, 0, 0]], [[1.0, 2.0]])
        doc = {**pwl_to_dict(small), "r": 2.0**21}
        (tmp_path / "f.json").write_text(json.dumps(doc))
        (tmp_path / "exp.cfg").write_text(f"pwl_file = {tmp_path / 'f.json'}\n")
        argv = ["compile", "--config", str(tmp_path / "exp.cfg"), "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot load PWL file ")
        assert message in err[0] and not (tmp_path / "out").exists()

    # eval_pwl against the dense forward pass of the compiled network, which adds
    # rounding from the pieces of every vertex, so the bound grows with V
    # (measured: at most 0.29 of it)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_sparse_functions(self, seed):
        rng = np.random.default_rng(100 + seed)
        for f, listed in sparse_cases(seed):
            points = probe_points(rng, f)
            got = eval_pwl(f, points)
            assert got.shape == (len(points), f.output_dim)
            scale = 1.0 + f.max_value_norm
            dense = eval_network(compile_pwl(f), points)
            assert np.abs(got - dense).max() <= EPS * max(listed, 1) * scale
            if f.degrees_of_freedom == 0:
                assert np.all(got == 0.0)
            one = eval_pwl(f, points[0])
            assert one.shape == (f.output_dim,) and np.array_equal(one, got[0])

    @pytest.mark.parametrize("dim,delta", [(1, 1 / 256), (2, 1 / 8)])
    def test_interpolant_with_many_vertices(self, dim, delta):
        rng = np.random.default_rng(7)
        f = interpolate(np.sin, 4.0, delta * math.sqrt(dim), dim)
        points = probe_points(rng, f, count=50)
        scale = 1.0 + f.max_value_norm
        dense = eval_network_batched(compile_pwl(f), points)
        assert np.abs(eval_pwl(f, points) - dense).max() <= EPS * len(f.vertices) * scale

    def test_outside_the_cube_is_zero(self):
        f = random_pwl(np.random.default_rng(3), 2, 2, 0.5, out_dim=2)
        points = np.array([[5.0, 0.0], [-1.6, 0.2], [0.3, 1.51], [-40.0, 40.0]])
        assert np.all(eval_pwl(f, points) == 0.0)

    def test_far_points_read_zero_without_overflow(self):
        # 1e300 cells away: a cell index past int64, were the points not clipped to r + 2h
        grid = KuhnGrid(2, 1e-300)
        f = PWLFunction.from_vertices(grid, 2e-300, [[0, 0], [2, -2]], [[1.0], [2.0]])
        points = np.array([[1.0, 0.0], [-1.0, 1e-300], [0.0, 4e-300], [2e-300, -2e-300], [0, 0]])
        got = eval_pwl(f, points)
        assert np.array_equal(got, [[0.0], [0.0], [0.0], [2.0], [1.0]])
        assert not np.signbit(got).any()

    @pytest.mark.parametrize("dim,words", [(2, 20), (3, 35)])
    def test_memory_peak_per_point(self, dim, words):
        # traced over 100,000 points: 30.4 and 53.5 words a point when the outside
        # corners' rows were copied by np.where, 25.3 and 44.1 with them zeroed in place,
        # 18.4 and 32.5 with each temporary released once read
        f = interpolate(np.sin, 1.0, 0.5, dim)
        points = np.random.default_rng(0).uniform(-2.0, 2.0, size=(100_000, dim))
        tracemalloc.start()
        try:
            eval_pwl(f, points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * words * len(points)

    @pytest.mark.parametrize("dim,out_dim", [(1, 1), (2, 1), (2, 2), (3, 3), (4, 1), (4, 4)])
    def test_eval_pwl_bytes_bound_the_traced_peak(self, dim, out_dim):
        f = random_pwl(np.random.default_rng(dim), dim, 2, 0.5, out_dim=out_dim)
        points = np.random.default_rng(0).uniform(-2.0, 2.0, size=(20_000, dim))
        tracemalloc.start()
        try:
            eval_pwl(f, points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= eval_pwl_bytes(dim, out_dim) * len(points)


class TestClosedFormCounts:
    def per_layer(self, net):
        return net.layer_widths[1:], tuple(
            int(layer.weights.count_nonzero() + np.count_nonzero(layer.bias))
            for layer in net.layers
        )

    def test_equal_to_the_compiled_network(self):
        cases = [f for f, _ in sparse_cases(0) + sparse_cases(1)]
        cases.append(interpolate(np.cos, 2.0, 0.3, 2))
        # the first value's weights |c| G / h underflow to zero, its biases do not
        underflow = PWLFunction.from_vertices(
            KuhnGrid(2, 2.0), 4.0, [[0, 0], [1, 0]], [[5e-324], [1.0]]
        )
        assert np.count_nonzero(compile_pwl(underflow).layers[0].weights.toarray()[:6]) == 0
        cases.append(underflow)
        units = 0
        for f in cases:
            net = compile_pwl(f)
            assert compiled_complexity(f) == complexity(net)
            assert compiled_layers(f) == self.per_layer(net)
            if f.degrees_of_freedom:
                # the pieces of a live vertex with G v = 1 have zero biases
                hat = hat_network(KuhnGrid(f.grid.dim), (0,) * f.grid.dim)
                live = np.any(f.values != 0.0, axis=1)
                units += np.count_nonzero(f.vertices[live] @ hat.layers[0].weights.toarray().T == 1)
        assert units > 0

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_tree_sizes_equal_the_built_tree(self, dim):
        # one live value: the layers after the first are the min tree's own
        f = PWLFunction.from_vertices(KuhnGrid(dim), 1.0, np.zeros((1, dim)), [[2.0]])
        tree = min_tree_network(math.factorial(dim + 1))
        nonzeros = tuple(int(layer.weights.count_nonzero()) for layer in tree.layers)
        widths, got = compiled_layers(f)
        assert (widths, got[1:]) == (tree.layer_widths, nonzeros)


class TestNodalBasisNetwork:
    def test_values_at_vertices(self):
        for dim in (1, 2, 3):
            grid = KuhnGrid(dim, 0.5)
            vertex = (0,) * dim
            net = hat_network(grid, vertex)
            assert net.depth == compiled_depth(dim)
            assert abs(eval_network(net, np.zeros(dim))[0] - 1.0) <= 1e-12
            for offset in itertools.product((-1, 0, 1), repeat=dim):
                if all(o == 0 for o in offset):
                    continue
                point = grid.cell_size * np.asarray(offset, dtype=float)
                assert abs(eval_network(net, point)[0]) <= 1e-12

    def test_d1_hat_values(self):
        net = hat_network(KuhnGrid(1), (0,))
        assert abs(eval_network(net, [0.5])[0] - 0.5) <= 1e-12
        assert abs(eval_network(net, [2.0])[0]) <= 1e-12

    def test_matches_hat_everywhere(self):
        net = hat_network(KuhnGrid(1), (0,))
        xs = np.linspace(-2.5, 2.5, 1001).reshape(-1, 1)
        hat = np.maximum(0.0, 1.0 - np.abs(xs[:, 0]))
        assert np.abs(eval_network_batched(net, xs)[:, 0] - hat).max() <= 1e-12

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_gradient_table_is_the_origin_hat_on_each_simplex(self, dim):
        # row k belongs to the k-th simplex around the origin: cell -b, perm low + high
        simplices = [
            (np.negative(bits), low + high)
            for bits in itertools.product((0, 1), repeat=dim)
            for low in itertools.permutations([i for i in range(dim) if not bits[i]])
            for high in itertools.permutations([i for i in range(dim) if bits[i]])
        ]
        table = _origin_nodal_coefficients(dim)
        assert table.shape == (math.factorial(dim + 1), dim) and not table.flags.writeable
        assert set(np.unique(table)) <= {-1.0, 0.0, 1.0}
        for (cell, perm), g in zip(simplices, table):
            corners = simplex_vertices(KuhnGrid(dim), SimplexRef(cell, perm))
            hat = 1.0 + corners @ g
            assert np.array_equal(hat, np.all(corners == 0, axis=1).astype(float))
            assert hat.sum() == 1.0  # the origin is a corner of the simplex
        counts = Counter(map(tuple, table.tolist()))
        assert len(counts) == dim * (dim + 1)
        assert set(counts.values()) == {math.factorial(dim - 1)}

    def test_origin_hat_closed_form(self):
        # the unit-grid hat at the origin: max(0, 1 - max(max z, 0) + min(min z, 0))
        rng = np.random.default_rng(9)
        for dim in (1, 2, 3, 4):
            net = hat_network(KuhnGrid(dim), (0,) * dim)
            z = rng.uniform(-1.5, 1.5, size=(10_000, dim))
            top, bottom = np.maximum(z.max(axis=1), 0.0), np.minimum(z.min(axis=1), 0.0)
            hat = np.maximum(0.0, 1.0 - top + bottom)
            assert np.abs(eval_network(net, z)[:, 0] - hat).max() <= 1e-12


class TestCompile:
    def test_hat_matches_oracle(self):
        rng = np.random.default_rng(1)
        f = hat_1d()
        net = compile_pwl(f)
        points = rng.uniform(-2.0, 2.0, size=(1000, 1))
        assert compare_on_points(f, net, points) <= 1e-9

    def test_zero_function(self):
        rng = np.random.default_rng(2)
        f = PWLFunction.from_vertices(KuhnGrid(2), 1.0, *no_values(2, 1))
        net = compile_pwl(f)
        assert net.depth == compiled_depth(2)
        assert complexity(net).free_weights == 0
        points = rng.uniform(-3.0, 3.0, size=(100, 2))
        assert np.abs(eval_network_batched(net, points)).max() == 0.0

    def test_depth_formula(self):
        rng = np.random.default_rng(3)
        for dim, expected in [(1, 3), (2, 5), (3, 7)]:
            f = random_pwl(rng, dim, 1, 1.0)
            assert compile_pwl(f).depth == expected
            assert compiled_depth(dim) == expected

    @pytest.mark.parametrize("dim,cells,h", [(1, 4, 0.25), (2, 2, 0.5), (3, 1, 1.0)])
    def test_random_functions_match_oracle(self, dim, cells, h):
        rng = np.random.default_rng(40 + dim)
        for _ in range(3):
            f = random_pwl(rng, dim, cells, h)
            net = compile_pwl(f)
            r = f.cube_radius
            points = rng.uniform(-r - 1.0, r + 1.0, size=(2000, dim))
            tolerance = 1e-9 * (1.0 + f.max_value_norm)
            assert compare_on_points(f, net, points) <= tolerance

    def test_vector_valued_outputs(self):
        rng = np.random.default_rng(5)
        f = random_pwl(rng, 2, 1, 1.0, out_dim=3)
        net = compile_pwl(f)
        assert net.output_dim == 3
        assert net.depth == compiled_depth(2)
        points = rng.uniform(-2.0, 2.0, size=(500, 2))
        assert compare_on_points(f, net, points) <= 1e-9 * (1.0 + f.max_value_norm)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("out_dim", [1, 2, 3])
    def test_same_weights_as_per_vertex_construction(self, dim, out_dim):
        rng = np.random.default_rng(60 + 10 * dim + out_dim)
        cells = 2 if dim < 3 else 1
        vertices, listed = random_listing(rng, dim, cells, out_dim=out_dim, sparsity=0.4)
        build = partial(PWLFunction.from_vertices, KuhnGrid(dim, 0.5), cells * 0.5)
        values = []
        for value in listed:
            value = np.where(rng.uniform(size=out_dim) < 0.3, 0.0, value)
            if out_dim > 1:
                value[1] = 0.0  # a component that is identically zero
            values.append(value)
        cases = [build(vertices, listed), build(vertices, values), build(*no_values(dim, out_dim))]
        for case in cases:
            net, expected = compile_pwl(case), per_vertex_network(case)
            assert net.depth == expected.depth
            for got, want in zip(net.layers, expected.layers):
                assert got.weights.shape == want.weights.shape
                assert got.weights.nnz == want.weights.nnz
                assert np.array_equal(got.weights.toarray(), want.weights.toarray())
                assert np.array_equal(got.bias, want.bias)
                assert np.array_equal(np.signbit(got.bias), np.signbit(want.bias))

    @pytest.mark.parametrize("case,digest", [
        (lambda: interpolate(np.sin, 1.0, 0.5, 2),
         "f3275537097bc0f431fba4fc407577d7126ae4650317cb212d09a57869c31c04"),
        (lambda: sparse_d3_with_a_zero_component(np.random.default_rng(15)),
         "31d9fd29063b3fb971f13a416cdb9b222548883f7ced047b1d42b9b5ea328753"),
    ])
    def test_network_document_is_pinned(self, case, digest):
        # the csr-1 document keeps each layer's CSR arrays in stored order,
        # so a construction that reorders them changes the file
        text = json.dumps(network_to_dict(compile_pwl(case())))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_memory_peak_within_the_csr_budget(self):
        # cli.cmd_compile budgets 12 bytes per row and per entry of the layers
        f = interpolate(np.sin, 1.0, 0.3, 3)
        widths, nonzeros = compiled_layers(f)
        tracemalloc.start()
        try:
            compile_pwl(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 12 * (sum(widths) + sum(nonzeros))

    def test_builds_no_lattice(self):
        # two live values on a cube of 101^3 vertices: the (V, d) lattice alone is 24.7 MB
        f = PWLFunction.from_vertices(
            KuhnGrid(3, 0.02), 1.0, [[3, -4, 5], [0, 0, 0]], [[1.5], [-0.5]]
        )
        tracemalloc.start()
        try:
            net = compile_pwl(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(f.values) == 1_030_301 and peak < 2**20
        rng = np.random.default_rng(9)
        points = np.concatenate([
            rng.uniform(-0.15, 0.15, size=(2000, 3)),  # around both live vertices
            rng.uniform(-2.0, 2.0, size=(500, 3)),
        ])
        assert compare_on_points(f, net, points) <= 1e-9 * (1.0 + f.max_value_norm)

    def test_output_coordinate_identically_zero(self):
        f = PWLFunction.from_vertices(KuhnGrid(1), 1.0, [[0]], [[1.0, 0.0]])
        net = compile_pwl(f)
        assert net.output_dim == 2
        xs = np.linspace(-2.0, 2.0, 101).reshape(-1, 1)
        out = eval_network_batched(net, xs)
        assert np.abs(out[:, 1]).max() == 0.0
        assert np.abs(out[:, 0] - np.maximum(0.0, 1.0 - np.abs(xs[:, 0]))).max() <= 1e-12

    def test_free_weight_budget(self):
        rng = np.random.default_rng(6)
        for dim in (1, 2):
            f = random_pwl(rng, dim, 2, 0.5, out_dim=2, sparsity=0.4)
            net = compile_pwl(f)
            report = complexity(net)
            k_t = f.grid.simplices_per_vertex
            budget = f.output_dim * (dim + 1) * k_t * f.degrees_of_freedom
            assert report.free_weights <= budget

    def test_partition_of_unity(self):
        rng = np.random.default_rng(7)
        grid = KuhnGrid(2)
        nets = [
            hat_network(grid, coords)
            for coords in itertools.product(range(-1, 2), repeat=2)
        ]
        points = rng.uniform(-1.0, 1.0, size=(1000, 2))
        total = sum(eval_network_batched(net, points)[:, 0] for net in nets)
        assert np.abs(total - 1.0).max() <= 1e-9

    def test_bounded_by_max_vertex_value(self):
        rng = np.random.default_rng(8)
        f = random_pwl(rng, 2, 2, 0.5)
        net = compile_pwl(f)
        points = rng.uniform(-3.0, 3.0, size=(5000, 2))
        peak = np.abs(eval_network_batched(net, points)).max()
        assert peak <= f.max_value_norm + 1e-9


class TestInterpolate:
    def test_linear_function_is_exact(self):
        f = interpolate(lambda x: x, 1.0, 0.3, 1)
        xs = np.linspace(-1.0, 1.0, 2001)
        worst = np.abs(eval_pwl(f, xs[:, None])[:, 0] - xs).max()
        assert worst <= 1e-12

    def test_abs_with_origin_vertex_is_exact(self):
        f = interpolate(lambda x: np.abs(x), 1.0, 0.5, 1)
        xs = np.linspace(-1.0, 1.0, 2001)
        worst = np.abs(eval_pwl(f, xs[:, None])[:, 0] - np.abs(xs)).max()
        assert worst <= 1e-12

    def test_square_error_h_half(self):
        f = interpolate(lambda x: x**2, 1.0, 0.5, 1)
        assert f.grid.cell_size == 0.5
        xs = np.linspace(-1.0, 1.0, 10_001)
        worst = np.abs(eval_pwl(f, xs[:, None])[:, 0] - xs * xs).max()
        assert abs(worst - 0.0625) <= 1e-6

    def test_sin_modulus_bound_and_monotonicity(self):
        xs = np.linspace(-1.0, 1.0, 5001)
        errors = []
        for delta in (0.5, 0.25, 0.125):
            f = interpolate(lambda x: np.sin(x), 1.0, delta, 1)
            worst = np.abs(eval_pwl(f, xs[:, None])[:, 0] - np.sin(xs)).max()
            assert worst <= delta
            errors.append(worst)
        assert errors[0] > errors[1] > errors[2]

    def test_vertex_count_formula(self):
        for dim, r, delta in [(1, 1.0, 0.25), (2, 2.0, 0.8), (3, 1.0, 1.0)]:
            f = interpolate(lambda x: np.sin(x), r, delta, dim)
            cells = math.ceil(math.sqrt(dim) * r / delta)
            assert f.grid.cell_size == r / cells
            assert len(f.values) == (2 * cells + 1) ** dim

    def test_fineness_does_not_exceed_delta(self):
        for dim, delta in [(1, 0.3), (2, 0.7), (3, 0.4)]:
            f = interpolate(lambda x: np.cos(x), 1.5, delta, dim)
            assert f.grid.fineness <= delta + 1e-12

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            interpolate(lambda x: x, -1.0, 0.5, 1)
        with pytest.raises(ValueError):
            interpolate(lambda x: x, 1.0, 0.0, 1)


class TestRegistry:
    def test_known_names(self):
        for name in ("zero", "sin", "cos", "tanh"):
            spec = resolve_function(name)
            f = spec.factory(2)
            out = f(np.array([0.3, -0.4]))
            assert out.shape == (2,)

    def test_polynomial(self):
        spec = resolve_function("poly:0,0,1")  # x^2
        f = spec.factory(1)
        assert abs(f(np.array([0.5]))[0] - 0.25) <= 1e-12
        assert spec.lipschitz(1, 1.0) >= 2.0

    def test_bad_specs(self):
        with pytest.raises(ValueError):
            resolve_function("nope")
        with pytest.raises(ValueError):
            resolve_function("poly:1,a")
        for spec in ("poly:nan", "poly:1,inf", "poly:-inf,0"):
            with pytest.raises(ValueError, match="must be finite"):
                resolve_function(spec)


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        f = random_pwl(rng, 2, 2, 0.5, out_dim=2)
        path = tmp_path / "f.json"
        save_pwl(f, path)
        back = load_pwl(path)
        assert back.grid.dim == 2 and back.grid.cell_size == 0.5
        assert np.array_equal(back.vertices, f.vertices)
        assert np.array_equal(back.values, f.values)

    def test_dict_shape(self):
        doc = pwl_to_dict(hat_1d())
        assert doc["dim"] == 1 and doc["h"] == 1.0 and doc["r"] == 1.0
        assert doc["values"] == [{"vertex": [0], "value": [1.0]}]
        assert pwl_from_dict(doc).degrees_of_freedom == 1

    @pytest.mark.parametrize(
        "values,listed",
        [([[0.0, -0.0], [0.0, 0.0], [2.0, 0.0]], [[-1, -1], [1, 1]]),
         ([[0.0, 0.0]] * 3, [[-1, -1]])],
        ids=["negative-zero-row", "all-zero"],
    )
    def test_lists_the_rows_with_a_nonzero_bit_and_round_trips_them(self, tmp_path, values,
                                                                    listed):
        f = PWLFunction.from_vertices(KuhnGrid(2, 0.5), 0.5, [[-1, -1], [0, 0], [1, 1]], values)
        assert [item["vertex"] for item in pwl_to_dict(f)["values"]] == listed
        path = tmp_path / "f.json"
        save_pwl(f, path)
        back = load_pwl(path)
        assert np.array_equal(back.values.view(np.int64), f.values.view(np.int64))

    def test_writes_no_lattice(self, tmp_path):
        # two live values on a cube of 101^3 vertices: a file of every vertex takes 44 MB
        f = PWLFunction.from_vertices(
            KuhnGrid(3, 0.02), 1.0, [[3, -4, 5], [0, 0, 0]], [[1.5], [-0.5]]
        )
        path = tmp_path / "f.json"
        tracemalloc.start()
        try:
            save_pwl(f, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert json.loads(path.read_text())["values"] == [
            {"vertex": [0, 0, 0], "value": [-0.5]}, {"vertex": [3, -4, 5], "value": [1.5]}
        ]
        assert np.array_equal(load_pwl(path).values, f.values)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            pwl_from_dict({"dim": 1, "h": 1.0, "r": 1.0, "values": []})

    @pytest.mark.parametrize(
        "change,message",
        [({"values": None}, "field 'values' is missing"),
         ({"h": None}, "field 'h' is missing"),
         ({"r": None}, "field 'r' is missing"),
         ({"values": 3}, "field 'values' is 3, not a list of vertex values"),
         ({"h": "1"}, "field 'h' is '1', not a number"),
         ({"values": [5]}, "vertex value 0 is not an object with the fields vertex, value"),
         ({"values": [{"vertex": [0]}]}, "vertex value 0 is not an object with the fields"),
         ({"values": [{"vertex": [0], "value": ["x"]}]}, "field 'values': could not convert"),
         ({"values": [{"vertex": ["a"], "value": [1.0]}]}, "vertex coordinates of <U1 are not"),
         ({"values": [{"vertex": [0], "value": [1.0]}, {"vertex": [1, 0], "value": [1.0]}]},
          "field 'values': setting an array element with a sequence"),
         # JSON integers past the float range
         ({"h": 10**400}, "field 'h' is an integer past the float range, not a number"),
         ({"r": -(10**400)}, "field 'r' is an integer past the float range, not a number"),
         ({"values": [{"vertex": [0], "value": [10**400]}]},
          "field 'values': int too large to convert to float"),
         ({"h": 1e-308, "r": 1e308}, "cube radius over cell size overflows the float range"),
         # a file's text, which json.dumps cannot nest that deep either
         ("[" * 100_000 + "]" * 100_000, "the document nests too deeply to parse")],
        ids=["no-values", "no-h", "no-r", "values-3", "h-string", "entry-5",
             "no-value", "value-string", "vertex-string", "ragged", "h-past-float",
             "r-past-float", "value-past-float", "cells-past-float", "nested-too-deep"],
    )
    def test_a_malformed_document_raises_value_error_naming_its_fault(
        self, tmp_path, change, message
    ):
        # as a document and as a file
        path = tmp_path / "f.json"
        if isinstance(change, str):
            path.write_text(change)
            loads = [partial(load_pwl, path)]
        else:
            doc = {**pwl_to_dict(hat_1d()), **change}
            doc = {key: value for key, value in doc.items() if value is not None}
            path.write_text(json.dumps(doc))
            loads = [partial(pwl_from_dict, doc), partial(load_pwl, path)]
        for load in loads:
            with pytest.raises(ValueError, match=re.escape(message)):
                load()

    def test_a_document_that_is_not_an_object_is_refused(self):
        with pytest.raises(ValueError, match="a PWL document is a JSON object, not list"):
            pwl_from_dict([])

    def test_rejects_a_non_integral_dimension(self):
        doc = pwl_to_dict(hat_1d())
        doc["dim"] = 1.6
        with pytest.raises(ValueError, match="field 'dim' is 1.6, not an integer"):
            pwl_from_dict(doc)

    def test_file_is_one_json_dumps_string(self, tmp_path):
        f = random_pwl(np.random.default_rng(3), 2, 2, 0.5, out_dim=2)
        path = tmp_path / "f.json"
        save_pwl(f, path)
        assert path.read_text() == json.dumps(pwl_to_dict(f))


class TestPWLValidation:
    def test_cube_must_align_with_grid(self):
        with pytest.raises(ValueError, match="multiple"):
            PWLFunction.from_vertices(KuhnGrid(1, 0.4), 1.0, [[0]], [[1.0]])

    @pytest.mark.parametrize("h,r", [(1e-308, 1e308), (5e-324, 1.0)])
    def test_refuses_a_cube_of_more_cells_than_a_float_counts(self, h, r):
        # r / h is inf: rounding it used to raise OverflowError
        message = "cube radius over cell size overflows the float range"
        with pytest.raises(ValueError, match=message):
            PWLFunction(KuhnGrid(1, h), r, np.ones((3, 1)))
        with pytest.raises(ValueError, match=message):
            PWLFunction.from_vertices(KuhnGrid(1, h), r, [[0]], [[1.0]])

    def test_vertices_must_lie_in_cube(self):
        with pytest.raises(ValueError, match="outside"):
            PWLFunction.from_vertices(KuhnGrid(1), 1.0, [[2]], [[1.0]])

    def test_rejects_non_integer_coordinate(self):
        with pytest.raises(ValueError, match="integer"):
            PWLFunction.from_vertices(KuhnGrid(1), 1.0, [[0.5]], [[1.0]])
        doc = {"dim": 1, "h": 1.0, "r": 1.0, "values": [{"vertex": [0.5], "value": [1.0]}]}
        with pytest.raises(ValueError, match="integer"):
            pwl_from_dict(doc)

    def test_rejects_repeated_vertex(self):
        with pytest.raises(ValueError, match="more than once"):
            PWLFunction.from_vertices(
                KuhnGrid(2), 1.0, [[0, 1], [1, 0], [0, 1]], [[1.0], [2.0], [3.0]]
            )
        item = {"vertex": [0], "value": [1.0]}
        with pytest.raises(ValueError, match="more than once"):
            pwl_from_dict({"dim": 1, "h": 1.0, "r": 1.0, "values": [item, item]})

    def test_rejects_vertex_width_other_than_dim(self):
        with pytest.raises(ValueError, match="vertex array shape"):
            PWLFunction.from_vertices(KuhnGrid(2), 1.0, [[0]], [[1.0]])
        with pytest.raises(ValueError, match="vertex array shape"):
            PWLFunction.from_vertices(KuhnGrid(1), 1.0, [[0, 0]], [[1.0]])

    def test_rejects_row_count_mismatch(self):
        with pytest.raises(ValueError, match="value matrix shape"):
            PWLFunction.from_vertices(KuhnGrid(1), 1.0, [[0], [1]], [[1.0]])

    def test_rejects_non_finite_value(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                PWLFunction.from_vertices(KuhnGrid(1), 1.0, [[0], [1]], [[1.0], [bad]])

    def test_arrays_are_sorted_and_read_only(self):
        vertices = np.array([[1], [-1], [0]])
        f = PWLFunction.from_vertices(KuhnGrid(1), 1.0, vertices, [[1.0], [2.0], [3.0]])
        assert f.vertices.tolist() == [[-1], [0], [1]]
        assert f.values.tolist() == [[2.0], [3.0], [1.0]]
        with pytest.raises(ValueError, match="read-only"):
            f.values[0, 0] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            f.vertices[0, 0] = 0
        vertices[0, 0] = 0  # the caller's array is not frozen

    def test_constructor_takes_the_values_of_every_cube_vertex(self):
        values = np.array([[1.0], [2.0], [3.0]])
        f = PWLFunction(KuhnGrid(1), 1.0, values)
        assert f.vertices.tolist() == [[-1], [0], [1]] and not f.values.flags.writeable
        values[0, 0] = 0.0  # the caller's array is not frozen
        with pytest.raises(ValueError, match=re.escape("value matrix shape (1, 1) is not (3, m > 0)")):
            PWLFunction(KuhnGrid(1), 1.0, [[1.0]])

    def test_shuffled_full_lattice_gives_the_interpolant_bit_for_bit(self):
        f = interpolate(np.sin, 1.0, 0.3, 3)
        order = np.random.default_rng(4).permutation(len(f.values))
        g = PWLFunction.from_vertices(f.grid, f.cube_radius, f.vertices[order], f.values[order])
        assert g.values.tobytes() == f.values.tobytes()

    def test_listed_zero_row_reads_as_an_unlisted_vertex(self):
        listed = PWLFunction.from_vertices(KuhnGrid(2), 1.0, [[0, 0], [1, 0]], [[1.0], [0.0]])
        unlisted = PWLFunction.from_vertices(KuhnGrid(2), 1.0, [[0, 0]], [[1.0]])
        assert listed.values.tobytes() == unlisted.values.tobytes()
        assert pwl_to_dict(listed) == pwl_to_dict(unlisted)
        assert compiled_layers(listed) == compiled_layers(unlisted)
        points = np.random.default_rng(5).uniform(-2.0, 2.0, size=(200, 2))
        assert np.array_equal(eval_pwl(listed, points), eval_pwl(unlisted, points))

    def test_degrees_of_freedom_counts_nonzero(self):
        f = PWLFunction.from_vertices(KuhnGrid(1), 2.0, [[0], [1]], [[1.0], [0.0]])
        assert f.degrees_of_freedom == 1
        assert f.max_value_norm == 1.0


@pytest.mark.parametrize(
    "refused,message",
    [
        (lambda: PWLFunction(KuhnGrid(1), 0.0, [[1.0]]),
         "cube radius must be a positive finite real"),
        (lambda: PWLFunction(KuhnGrid(1), -1.0, [[0.0], [1.0], [0.0]]),
         "cube radius must be a positive finite real"),
        (lambda: resolve_function("poly:0,1").lipschitz(1, math.inf),
         "polynomial constants need a finite radius"),
        (lambda: resolve_function("poly:0,1").bound(1, math.inf),
         "polynomial constants need a finite radius"),
        # "poly:" splits into one empty coefficient, not into none
        (lambda: resolve_function("poly:"), "bad polynomial coefficients in 'poly:'"),
    ],
    ids=["radius-zero", "radius-negative", "poly-lipschitz-unbounded", "poly-bound-unbounded",
         "poly-no-coefficient"],
)
def test_each_refusal_names_its_fault(refused, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        refused()
