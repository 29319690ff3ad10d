import math
import warnings

import numpy as np
import pytest

from reluflow import RhsSpec, Trajectory, reference_solve


def sin_rhs(scale=1.0, bound=1.0, lipschitz=1.0, pieces=None, shift=False) -> RhsSpec:
    def f(t, x):
        return scale * np.sin(x + t) if shift else scale * np.sin(x)

    return RhsSpec(f, 1, bound, lipschitz, piecewise_constant_pieces=pieces)


class TestTrajectoryAt:
    times = np.array([0.0, 0.25, 0.5, 0.8])
    states = np.array([[1.0, -2.0], [0.3, 0.7], [-1.1, 4.0], [2.5, 0.0]])

    def test_exact_at_mesh_points(self):
        traj = Trajectory(self.times, self.states)
        for t, state in zip(self.times, self.states):
            assert np.array_equal(traj.at(t), state)

    @pytest.mark.parametrize("i", [0, 1, 2])
    def test_linear_between_mesh_points(self, i):
        traj = Trajectory(self.times, self.states)
        lo, hi = self.times[i], self.times[i + 1]
        for theta in (0.1, 0.5, 0.9):
            t = lo + theta * (hi - lo)
            expected = self.states[i] + theta * (self.states[i + 1] - self.states[i])
            assert np.allclose(traj.at(t), expected, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("t", [-1e-12, 0.8 + 1e-12, 1.0])
    def test_rejects_times_outside_the_mesh(self, t):
        with pytest.raises(ValueError, match="outside"):
            Trajectory(self.times, self.states).at(t)


@pytest.mark.parametrize("y", [-2.0, 0.5, 3.0])
def test_reference_solve_matches_the_closed_form_for_sin(y):
    traj = reference_solve(sin_rhs(), [y], 1e-10)
    exact = 2.0 * np.arctan(np.exp(traj.times) * math.tan(y / 2.0))
    assert np.max(np.abs(traj.states[:, 0] - exact)) <= 1e-11


class TestSpotCheck:
    def test_true_constants_pass_silently(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sin_rhs().spot_check() == []

    def test_understated_bound_warns(self):
        with pytest.warns(UserWarning, match="declared bound exceeded"):
            issues = sin_rhs(scale=2.0, bound=1.0, lipschitz=2.0).spot_check()
        assert [m.split(" by ")[0] for m in issues] == ["declared bound exceeded"]

    def test_time_dependent_rhs_declared_piecewise_constant_warns(self):
        with pytest.warns(UserWarning, match="piecewise-constant structure violated"):
            issues = sin_rhs(pieces=2, shift=True).spot_check()
        assert [m.split(" by ")[0] for m in issues] == [
            "declared piecewise-constant structure violated"
        ]
