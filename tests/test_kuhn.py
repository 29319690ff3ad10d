import math

import numpy as np
import pytest

from reluflow import (
    KuhnGrid,
    SimplexRef,
    barycentric,
    locate,
    simplex_vertices,
)


def barycentric_oracle(grid, s, x):
    """Solve the full (d+1)x(d+1) interpolation system directly."""
    verts = grid.cell_size * np.array(simplex_vertices(grid, s), dtype=float)
    system = np.vstack([verts.T, np.ones(len(verts))])
    rhs = np.concatenate([np.asarray(x, dtype=float), [1.0]])
    return np.linalg.solve(system, rhs)


class TestLocate:
    def test_sorted_fracs(self):
        ref, local = locate(KuhnGrid(2), [0.2, 0.7])
        assert ref.cell.dtype == ref.perm.dtype == np.int64
        assert np.array_equal(ref.cell, [0, 0]) and np.array_equal(ref.perm, [0, 1])
        assert np.allclose(local, [0.2, 0.7])

    def test_negative_cell(self):
        ref, local = locate(KuhnGrid(2), [1.3, -0.2])
        assert np.array_equal(ref.cell, [1, -1])
        assert np.allclose(local, [0.3, 0.8])

    def test_tie_break_by_index(self):
        ref, _ = locate(KuhnGrid(2), [0.5, 0.5])
        assert np.array_equal(ref.perm, [0, 1])

    def test_scaled_grid(self):
        ref, local = locate(KuhnGrid(1, 0.25), [0.6])
        assert np.array_equal(ref.cell, [2])
        assert np.allclose(local, [0.4])

    def test_point_lies_in_returned_simplex(self):
        rng = np.random.default_rng(0)
        for d in (1, 2, 3, 4):
            grid = KuhnGrid(d, 0.5)
            for x in rng.uniform(-3.0, 3.0, size=(500, d)):
                ref, _ = locate(grid, x)
                weights = barycentric(grid, ref, x)
                assert weights.min() >= -1e-9
                assert abs(weights.sum() - 1.0) <= 1e-12
                verts = grid.cell_size * np.array(simplex_vertices(grid, ref), dtype=float)
                assert np.abs(weights @ verts - x).max() <= 1e-9 * grid.cell_size


class TestSimplexVertices:
    def test_d2_example(self):
        verts = simplex_vertices(KuhnGrid(2), SimplexRef((0, 0), (0, 1)))
        assert verts.dtype == np.int64
        assert np.array_equal(verts, [(0, 0), (0, 1), (1, 1)])

    def test_d1_cell(self):
        assert np.array_equal(simplex_vertices(KuhnGrid(1), SimplexRef((3,), (0,))), [(3,), (4,)])

    def test_vertex_count(self):
        for d in (1, 2, 3, 4):
            ref, _ = locate(KuhnGrid(d), np.full(d, 0.3))
            assert len(simplex_vertices(KuhnGrid(d), ref)) == d + 1


    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_equal_to_the_cumulative_unit_vectors(self, d):
        # the former formula: the corner, then the running sums of the unit
        # vectors e_j in reverse permutation order, held as one-hot arrays
        def cumulative(s):
            base = np.asarray(s.cell, dtype=np.int64)[..., None, :]
            units = np.eye(base.shape[-1], dtype=np.int64)[np.asarray(s.perm)[..., ::-1]]
            return np.concatenate([base, base + np.cumsum(units, axis=-2)], axis=-2)

        rng = np.random.default_rng(30 + d)
        grid = KuhnGrid(d, 0.5)
        cells = rng.integers(-50, 50, size=(3, 40, d))
        perms = rng.permuted(np.broadcast_to(np.arange(d), (3, 40, d)), axis=-1)
        refs = SimplexRef(cells, perms)
        got = simplex_vertices(grid, refs)
        assert got.dtype == np.int64 and got.shape == (3, 40, d + 1, d)
        assert np.array_equal(got, cumulative(refs))
        for i in range(40):
            one = SimplexRef(cells[1, i], perms[1, i])
            assert np.array_equal(simplex_vertices(grid, one), cumulative(one))
            assert np.array_equal(simplex_vertices(grid, one), got[1, i])


class TestBarycentric:
    def test_vertex_gets_unit_weight(self):
        grid = KuhnGrid(2)
        ref = SimplexRef((0, 0), (0, 1))
        for i, vert in enumerate(simplex_vertices(grid, ref)):
            weights = barycentric(grid, ref, grid.cell_size * np.asarray(vert, dtype=float))
            expected = np.zeros(3)
            expected[i] = 1.0
            assert np.abs(weights - expected).max() <= 1e-12

    def test_centroid_is_uniform(self):
        grid = KuhnGrid(3, 0.5)
        ref = SimplexRef((1, -2, 0), (2, 0, 1))
        verts = grid.cell_size * np.array(simplex_vertices(grid, ref), dtype=float)
        weights = barycentric(grid, ref, verts.mean(axis=0))
        assert np.abs(weights - 0.25).max() <= 1e-12

    def test_matches_linear_system_oracle(self):
        rng = np.random.default_rng(1)
        for d in (1, 2, 3, 4):
            grid = KuhnGrid(d, 0.75)
            for _ in range(50):
                x = rng.uniform(-2.0, 2.0, size=d)
                ref, _ = locate(grid, x)
                ours = barycentric(grid, ref, x)
                oracle = barycentric_oracle(grid, ref, x)
                assert np.abs(ours - oracle).max() <= 1e-9

    def test_rejects_outside_point(self):
        grid = KuhnGrid(2)
        with pytest.raises(ValueError, match="outside"):
            barycentric(grid, SimplexRef((0, 0), (0, 1)), [0.9, 0.1])


class TestBatch:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_rows_equal_single_point_calls(self, d):
        rng = np.random.default_rng(10 + d)
        grid = KuhnGrid(d, 0.5)
        points = rng.uniform(-3.0, 3.0, size=(240, d))
        points[:40] = grid.cell_size * rng.integers(-6, 6, size=(40, d))  # exact vertices
        # ties between coordinates, as in [0.5, 0.5], in positive and negative cells
        points[40:80] = grid.cell_size * (rng.integers(-6, 6, size=(40, 1)) + 0.5)
        points[80:120, 0] = points[80:120, -1]
        refs, local = locate(grid, points)
        weights = barycentric(grid, refs, points)
        corners = simplex_vertices(grid, refs)
        assert refs.cell.shape == refs.perm.shape == local.shape == (240, d)
        assert weights.shape == (240, d + 1) and corners.shape == (240, d + 1, d)
        assert (refs.cell < 0).any() and (refs.cell >= 0).any()
        for i, x in enumerate(points):
            ref, loc = locate(grid, x)
            assert np.array_equal(refs.cell[i], ref.cell)
            assert np.array_equal(refs.perm[i], ref.perm)
            assert np.array_equal(local[i], loc)
            assert np.array_equal(weights[i], barycentric(grid, ref, x))
            assert np.array_equal(corners[i], simplex_vertices(grid, ref))
        # leading axes of any shape, as long as the last one is d
        stacked = points.reshape(4, 60, d)
        refs3, _ = locate(grid, stacked)
        assert np.array_equal(refs3.perm, refs.perm.reshape(4, 60, d))
        assert np.array_equal(barycentric(grid, refs3, stacked), weights.reshape(4, 60, d + 1))
        assert np.array_equal(simplex_vertices(grid, refs3), corners.reshape(4, 60, d + 1, d))

    def test_rejects_first_outside_point(self):
        grid = KuhnGrid(2)
        refs = SimplexRef(np.zeros((3, 2), dtype=np.int64), np.array([[0, 1]] * 3))
        points = np.array([[0.1, 0.5], [0.9, 0.1], [0.8, 0.0]])
        message = r"point \[0.9 0.1\] lies outside simplex SimplexRef\(cell=\(0, 0\), perm=\(0, 1\)\)"
        with pytest.raises(ValueError, match=message):
            barycentric(grid, refs, points)


class TestNeighborhood:
    def test_grid_reports_count(self):
        assert KuhnGrid(2).simplices_per_vertex == 6
        assert KuhnGrid(3).simplices_per_vertex == 24


class TestFineness:
    def test_max_vertex_distance_is_h_sqrt_d(self):
        rng = np.random.default_rng(4)
        for d, h in [(1, 1.0), (2, 0.5), (3, 0.25), (4, 2.0)]:
            grid = KuhnGrid(d, h)
            worst = 0.0
            for x in rng.uniform(-2.0, 2.0, size=(50, d)):
                ref, _ = locate(grid, x)
                verts = grid.cell_size * np.array(simplex_vertices(grid, ref), dtype=float)
                for i in range(len(verts)):
                    for j in range(i + 1, len(verts)):
                        worst = max(worst, float(np.linalg.norm(verts[i] - verts[j])))
            assert math.isclose(worst, grid.fineness, rel_tol=1e-12)
            assert math.isclose(grid.fineness, h * math.sqrt(d), rel_tol=1e-15)


class TestValidation:
    def test_bad_grid_params(self):
        with pytest.raises(ValueError):
            KuhnGrid(0)
        with pytest.raises(ValueError):
            KuhnGrid(2, 0.0)
        with pytest.raises(ValueError):
            KuhnGrid(2, math.inf)
        # a bool or a non-integral dimension is refused by name, not counted as 1 or failed later
        for dim in (True, 2.5, math.nan):
            message = f"^grid dimension must be a positive integer, not {dim!r}$"
            with pytest.raises(ValueError, match=message):
                KuhnGrid(dim)
        with pytest.raises(ValueError, match="^grid dimension must be positive$"):
            KuhnGrid(0.0)
        grid = KuhnGrid(np.int64(2), 0.5)
        assert type(grid.dim) is int and grid.simplices_per_vertex == 6
