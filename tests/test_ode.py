import math
import random
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from scipy.integrate import solve_ivp

from reluflow import OracleConvergenceError, RhsSpec, Trajectory, euler_solve, ode, reference_solve


def sin_rhs(scale=1.0, bound=1.0, lipschitz=1.0, pieces=None, shift=False) -> RhsSpec:
    def f(t, x):
        return scale * np.sin(x + t) if shift else scale * np.sin(x)

    return RhsSpec(f, 1, bound, lipschitz, piecewise_constant_pieces=pieces)


class TestTrajectoryAt:
    times = np.array([0.0, 1 / 3, 2 / 3, 1.0])  # the uniform mesh of 3 steps
    states = np.array([[1.0, -2.0], [0.3, 0.7], [-1.1, 4.0], [2.5, 0.0]])

    def test_exact_at_mesh_points(self):
        traj = Trajectory(self.states)
        assert np.array_equal(traj.times, self.times)
        for t, state in zip(self.times, self.states):
            assert np.array_equal(traj.at(t), state)

    @pytest.mark.parametrize("i", [0, 1, 2])
    def test_linear_between_mesh_points(self, i):
        traj = Trajectory(self.states)
        lo, hi = self.times[i], self.times[i + 1]
        for theta in (0.1, 0.5, 0.9):
            t = lo + theta * (hi - lo)
            expected = self.states[i] + theta * (self.states[i + 1] - self.states[i])
            assert np.allclose(traj.at(t), expected, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("t", [-1e-12, 1.0 + 1e-12, math.inf, math.nan])
    def test_rejects_times_outside_the_mesh(self, t):
        with pytest.raises(ValueError, match=re.escape("outside [0, 1]")):
            Trajectory(self.states).at(t)
        with pytest.raises(ValueError, match=f"time {t} outside"):
            Trajectory(self.states).at(np.array([0.0, t, 0.5]))

    def test_times_array_equals_the_scalar_calls(self):
        batch = np.stack([self.states, -2.0 * self.states, self.states[::-1]], axis=1)
        times = np.array([[0.0, 0.1, 0.25, 0.3], [0.5, 0.65, 0.8, 1e-300]])
        for states in (self.states, batch):
            traj = Trajectory(states)
            got = traj.at(times)
            assert got.shape == times.shape + states.shape[1:]
            for index, t in np.ndenumerate(times):
                assert np.array_equal(got[index], traj.at(float(t)))

    def test_holds_its_result_and_the_temporaries_of_one_state(self):
        # a time off the mesh is interpolated in place, one state at a time
        states = np.random.default_rng(0).normal(size=(9, 10_000, 2))
        traj, times = Trajectory(states), np.linspace(0.0, 1.0, 33)
        tracemalloc.start()
        try:
            traj.at(times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= times.size * states[0].nbytes + 2 * states[0].nbytes + 2**12


def sin_closed_form(times, y):
    return 2.0 * np.arctan(np.exp(times) * np.tan(y / 2.0))


def componentwise(g, dim=2) -> RhsSpec:
    return RhsSpec(lambda t, x: g(x), dim, math.sqrt(dim), 1.0)


def test_euler_solve_steps_an_rhs_spec_as_its_bare_function():
    rhs, ys, n = sin_rhs(), np.array([[-2.0], [0.5], [3.0]]), 3
    spec, bare = euler_solve(rhs, ys, n), euler_solve(rhs.f, ys, n)
    assert np.array_equal(spec.states, bare.states)
    assert bare.times.tolist() == [0.0, 1 / 3, 2 / 3, 1.0]
    x = ys
    for i, (lo, hi) in enumerate(zip(bare.times, bare.times[1:])):
        x = x + (hi - lo) * np.sin(x)
        assert np.array_equal(bare.states[i + 1], x)


@pytest.mark.parametrize("y", [-2.0, 0.5, 3.0])
def test_reference_solve_matches_the_closed_form_for_sin(y):
    traj = reference_solve(sin_rhs(), [y], 1e-10)
    exact = sin_closed_form(traj.times, y)
    assert np.max(np.abs(traj.states[:, 0] - exact)) <= 1e-11


@pytest.mark.parametrize(
    "g,flow,dim",
    [(np.tanh, lambda t, y: np.arcsinh(np.sinh(y) * np.exp(t)), 1),
     (np.cos, lambda t, y: np.arctan(np.sinh(np.arcsinh(np.tan(y)) + t)), 1),
     (np.sin, sin_closed_form, 2)],
    ids=["tanh", "cos", "sin-d2"],
)
def test_reference_solve_matches_the_closed_form_flows(g, flow, dim):
    tol = 1e-8
    axis = np.linspace(-1.0, 1.0, 9)
    ys = np.stack(np.meshgrid(*([axis] * dim), indexing="ij"), -1).reshape(-1, dim)
    times = np.linspace(0.0, 1.0, 17)
    traj = reference_solve(componentwise(g, dim), ys, tol, initial_steps=16)
    exact = flow(times[:, None, None], ys)
    assert np.abs(traj.at(times) - exact).max() <= tol


class TestBatchedReferenceSolve:
    points = np.random.default_rng(4).uniform(-2.0, 2.0, size=(7, 2))

    def test_batch_agrees_with_the_per_point_solves(self):
        tol = 1e-9
        rhs = componentwise(np.sin)
        batch = reference_solve(rhs, self.points, tol, initial_steps=4)
        assert batch.states.shape == batch.times.shape + self.points.shape
        for i, y in enumerate(self.points):
            single = reference_solve(rhs, y, tol, initial_steps=4)
            times = np.linspace(0.0, 1.0, 9)
            assert np.abs(batch.at(times)[:, i] - single.at(times)).max() <= tol

    @pytest.mark.parametrize("g", [np.sin, np.tanh])
    def test_agrees_with_scipy_dop853(self, g):
        tol = 1e-9
        times = np.linspace(0.0, 1.0, 5)
        traj = reference_solve(componentwise(g), self.points, tol, initial_steps=4)
        # the rhs acts componentwise, so the flattened batch is one ODE
        ivp = solve_ivp(
            lambda t, y: g(y), (0.0, 1.0), self.points.ravel(), method="DOP853",
            t_eval=times, rtol=1e-12, atol=1e-12,
        )
        assert ivp.success
        expected = ivp.y.T.reshape(times.shape + self.points.shape)
        assert np.abs(traj.at(times) - expected).max() <= tol

    def test_rk4_is_fourth_order(self):
        ys = np.array([[-2.0], [0.5], [3.0]])
        rhs, exact = componentwise(np.sin, 1), sin_closed_form(1.0, ys)
        errors = [np.abs(ode._rk4_path(rhs, ys, n)[-1] - exact).max() for n in (4, 8, 16, 32)]
        ratios = [a / b for a, b in zip(errors, errors[1:])]
        assert all(14.0 < r < 18.0 for r in ratios), ratios

    def test_memory_budget_stops_the_halving_before_it_allocates(self, monkeypatch):
        # a small budget, so that the guard trips after a few halvings
        monkeypatch.setattr(ode, "ORACLE_STATE_BYTES", 2**16)
        meshes = []
        rk4 = ode._rk4_path

        def recording_rk4(rhs, y0, n):
            meshes.append((n + 1) * y0.nbytes)
            return rk4(rhs, y0, n)

        monkeypatch.setattr(ode, "_rk4_path", recording_rk4)
        # a tolerance below the rounding of the states never converges
        message = r"would need 114800 bytes of states for 1024 steps \(budget 65536\)"
        with pytest.raises(OracleConvergenceError, match=message):
            reference_solve(componentwise(np.sin), self.points, 1e-17, initial_steps=8)
        # 7 points x 2 components x 8 bytes per time row; 8 .. 512 steps fit
        assert meshes == [(8 * 2**i + 1) * 112 for i in range(7)]

    def test_budget_tripped_before_two_meshes_are_compared_says_so(self, monkeypatch):
        # the 8-step mesh (1,008 bytes) fits, the 16-step mesh (1,904 bytes) does not
        monkeypatch.setattr(ode, "ORACLE_STATE_BYTES", 1500)
        message = (r"would need 1904 bytes of states for 16 steps \(budget 1500\); "
                   r"no two meshes compared yet \(target 1\.000e-10\)$")
        with pytest.raises(OracleConvergenceError, match=message):
            reference_solve(componentwise(np.sin), self.points, 1e-9, initial_steps=8)

    @pytest.mark.parametrize("steps,pieces", [(3, None), (8, None), (3, 2)])
    def test_times_are_the_mesh_of_the_last_step_count(self, monkeypatch, steps, pieces):
        # bench/tracing.py reads the step count and the halvings off len(times) - 1
        meshes = []
        rk4 = ode._rk4_path

        def recording_rk4(rhs, y0, n):
            meshes.append(n)
            return rk4(rhs, y0, n)

        monkeypatch.setattr(ode, "_rk4_path", recording_rk4)
        rhs = RhsSpec(lambda t, x: np.sin(x), 2, math.sqrt(2), 1.0, pieces)
        traj = reference_solve(rhs, self.points, 1e-9, initial_steps=steps)
        n = meshes[-1]
        assert len(traj.times) - 1 == n == len(traj.states) - 1
        assert traj.times.tolist() == [i / n for i in range(n + 1)]
        assert meshes == [math.lcm(steps, pieces or 1) * 2**i for i in range(len(meshes))]

    @pytest.mark.parametrize("steps", [0, -1])
    def test_a_step_count_below_one_is_refused(self, steps):
        with pytest.raises(ValueError, match="initial step count must be positive"):
            reference_solve(componentwise(np.sin), self.points, 1e-9, initial_steps=steps)


class TestUniforms:
    @pytest.mark.parametrize("count", [0, 1, 7, 10_000])
    def test_shape_and_range(self, count):
        u = ode.uniforms(random.Random(3), count)
        assert u.shape == (count,) and u.dtype == np.float64
        assert np.all((u >= 0.0) & (u < 1.0))

    def test_each_value_is_the_top_53_bits_of_its_little_endian_word(self):
        bits = random.Random(7).getrandbits(64 * 5)
        words = [(bits >> (64 * i)) & (2**64 - 1) for i in range(5)]
        expected = [(w >> 11) * 2.0**-53 for w in words]
        assert ode.uniforms(random.Random(7), 5).tolist() == expected

    def test_same_seed_same_draws_other_seed_other_draws(self):
        first, again = (ode.uniforms(random.Random(1), 100) for _ in range(2))
        assert np.array_equal(first, again)
        assert not np.any(first == ode.uniforms(random.Random(2), 100))

    @pytest.mark.parametrize("count,piece", [(10_000, 4_096), (100_001, 65_536), (10, 3)])
    def test_successive_draws_are_one_draw(self, count, piece):
        rng = random.Random(5)
        parts = [ode.uniforms(rng, min(piece, count - i)) for i in range(0, count, piece)]
        assert np.array_equal(np.concatenate(parts), ode.uniforms(random.Random(5), count))


def test_an_output_not_shaped_like_the_points_is_refused():
    # the RK4 stages check f's results themselves, with RhsSpec's message: a broadcastable
    # result would otherwise pass through the stage buffers unnoticed
    x = np.zeros((5, 2))
    for out in (np.zeros((1, 2)), np.zeros(2)):
        rhs = RhsSpec(lambda t, y, out=out: out, 2, 1.0, 1.0)
        message = f"returned shape {out.shape} for points of shape (5, 2)"
        with pytest.raises(ValueError, match=re.escape(message)):
            rhs(0.0, x)
        with pytest.raises(ValueError, match=re.escape(message)):
            reference_solve(rhs, x, 1e-8)


@pytest.mark.parametrize(
    "convert",
    [lambda a: a.astype(np.float32), lambda a: a.tolist(), lambda a: a.astype(">f8")],
    ids=["float32", "list", "big-endian"],
)
def test_a_result_not_a_float64_array_is_converted_as_rhs_converts_it(convert):
    ys = np.array([[0.5, -1.0], [2.0, 0.25], [-3.0, 1e-300]])
    given = RhsSpec(lambda t, x: convert(np.cos(x + t)), 2, math.sqrt(2), 1.0)
    converted = RhsSpec(lambda t, x: np.asarray(convert(np.cos(x + t)), np.float64), 2,
                        math.sqrt(2), 1.0)
    for n in (1, 5):
        path = ode._rk4_path(given, ys, n)
        assert np.array_equal(path.view(np.int64), ode._rk4_path(converted, ys, n).view(np.int64))
    got, expected = (reference_solve(rhs, ys, 1e-6).states for rhs in (given, converted))
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("pieces", [None, 2])
def test_rk4_calls_f_four_times_a_step_and_never_through_the_spec(monkeypatch, pieces):
    def refused(self, t, x):
        raise AssertionError("RK4 stage called through RhsSpec.__call__")

    calls, meshes = [], []
    rhs = RhsSpec(lambda t, x: calls.append(t) or np.sin(x), 2, math.sqrt(2), 1.0, pieces)
    monkeypatch.setattr(RhsSpec, "__call__", refused)
    for n in (1, 4, 7):
        calls.clear()
        ode._rk4_path(rhs, np.zeros((3, 2)), n)
        assert len(calls) == 4 * n
    rk4 = ode._rk4_path

    def recording_rk4(rhs, y0, n):
        meshes.append(n)
        return rk4(rhs, y0, n)

    monkeypatch.setattr(ode, "_rk4_path", recording_rk4)
    calls.clear()
    reference_solve(rhs, np.ones((3, 2)), 1e-8, initial_steps=4)
    assert len(meshes) >= 2 and len(calls) == 4 * sum(meshes)


class TestSpotCheck:
    def test_true_constants_pass_silently(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sin_rhs().spot_check() == []

    def test_understated_bound_warns(self):
        with pytest.warns(UserWarning, match="declared bound exceeded"):
            issues = sin_rhs(scale=2.0, bound=1.0, lipschitz=2.0).spot_check()
        assert [m.split(" by ")[0] for m in issues] == ["declared bound exceeded"]

    def test_understated_lipschitz_constant_warns(self):
        with pytest.warns(UserWarning, match="declared Lipschitz constant exceeded"):
            issues = sin_rhs(lipschitz=0.5).spot_check()
        assert [m.split(" by ")[0] for m in issues] == ["declared Lipschitz constant exceeded"]

    @pytest.mark.parametrize("samples,radius", [(0, 5.0), (10, math.inf), (10, -1.0)])
    def test_no_samples_or_a_radius_outside_zero_to_inf_is_refused(self, samples, radius):
        with pytest.raises(ValueError, match="spot check needs samples >= 1 and 0 < radius < inf"):
            sin_rhs().spot_check(radius=radius, samples=samples)

    def test_time_dependent_rhs_declared_piecewise_constant_warns(self):
        with pytest.warns(UserWarning, match="piecewise-constant structure violated"):
            issues = sin_rhs(pieces=2, shift=True).spot_check()
        assert [m.split(" by ")[0] for m in issues] == [
            "declared piecewise-constant structure violated"
        ]

    @pytest.mark.parametrize("pieces,calls", [(None, 10), (2, 20)])
    def test_samples_are_batched_over_a_fixed_number_of_times(self, pieces, calls):
        seen = []

        def f(t, x):
            seen.append(x.shape)
            return np.sin(x)

        rhs = RhsSpec(f, 2, math.sqrt(2.0), 1.0, piecewise_constant_pieces=pieces)
        assert rhs.spot_check(samples=1000) == []
        assert len(seen) == calls
        assert sum(rows for rows, _ in seen) == (2000 if pieces is None else 3000)


def test_each_node_time_lies_in_its_own_piece():
    # int(i/n * n) undershoots i at some node times, as at 15/22 for n = 22 (it is 14)
    assert int(15 / 22 * 22) == 14
    for n in range(1, 301):
        assert [ode._piece_of(i / n, n) for i in range(n + 1)] == [*range(n), n - 1]


def test_a_time_whose_guess_overshoots_its_piece_is_corrected_down():
    # t is the float just below 5/6, but t * 6 rounds up to 5.0: the guess is piece 5
    t = math.nextafter(5 / 6, 0)
    assert t < 5 / 6 and int(t * 6) == 5
    assert ode._piece_of(t, 6) == 4


@pytest.mark.parametrize(
    "refused,message",
    [
        (lambda: RhsSpec(np.sin, 0, 1.0, 1.0), "state dimension must be positive"),
        (lambda: RhsSpec(np.sin, 1, -1.0, 1.0), "declared bound must be nonnegative"),
        (lambda: RhsSpec(np.sin, 1, 1.0, math.inf),
         "declared Lipschitz constant must be finite and nonnegative"),
        (lambda: RhsSpec(np.sin, 1, 1.0, 1.0, piecewise_constant_pieces=1.5),
         "piecewise-constant piece count must be a positive integer"),
        (lambda: RhsSpec(np.sin, 2.5, 1.0, 1.0),
         "state dimension must be a positive integer, not 2.5"),
        (lambda: RhsSpec(np.sin, True, 1.0, 1.0),
         "state dimension must be a positive integer, not True"),
        (lambda: RhsSpec(np.sin, 1, 1.0, 1.0, piecewise_constant_pieces=True),
         "piecewise-constant piece count must be a positive integer, not True"),
        (lambda: RhsSpec(np.sin, 1, 1.0, 1.0, piecewise_constant_pieces=0),
         "piecewise-constant piece count must be a positive integer"),
        (lambda: Trajectory([[0.0]]), "a trajectory needs at least two states"),
        (lambda: Trajectory([[0.0], [math.inf]]), "trajectory states must be finite"),
        (lambda: euler_solve(lambda t, x: x, [1.0], 0), "an Euler solve needs at least one step"),
        (lambda: euler_solve(lambda t, x: x, [1.0], 2.5),
         "Euler step count must be a positive integer, not 2.5"),
        (lambda: euler_solve(lambda t, x: x, [1.0], True),
         "Euler step count must be a positive integer, not True"),
        (lambda: reference_solve(sin_rhs(), [1.0], 0.0), "oracle tolerance must be positive"),
        (lambda: reference_solve(sin_rhs(), [1.0], 1e-8, initial_steps=2.5),
         "initial step count must be a positive integer, not 2.5"),
        (lambda: reference_solve(sin_rhs(), [1.0], 1e-8, initial_steps=True),
         "initial step count must be a positive integer, not True"),
        (lambda: ode.perturbed_euler_bound(-1.0, 1.0, 4, 1.0),
         "eps, bound and Lipschitz weight must be nonnegative"),
        (lambda: ode.perturbed_euler_bound(0.1, 1.0, 2.5, 1.0),
         "step count must be a positive integer"),
        (lambda: ode.perturbed_euler_bound(0.1, 1.0, True, 1.0),
         "step count must be a positive integer, not True"),
        (lambda: ode.perturbed_euler_bound(0.1, 1.0, math.nan, 1.0),
         "step count must be a positive integer, not nan"),
    ],
    ids=["rhs-dim", "rhs-bound", "rhs-lipschitz", "rhs-pieces", "rhs-dim-fraction",
         "rhs-dim-bool", "rhs-pieces-bool", "rhs-pieces-zero", "trajectory-lengths",
         "trajectory-states", "euler-points", "euler-fraction", "euler-bool", "oracle-tol",
         "oracle-fraction", "oracle-bool", "bound-sign", "bound-steps", "bound-bool",
         "bound-nan"],
)
def test_each_refusal_names_its_fault(refused, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        refused()


def test_an_rhs_spec_stores_its_counts_as_ints():
    rhs = RhsSpec(np.sin, np.int64(2), 1.0, 1.0, piecewise_constant_pieces=3.0)
    assert (rhs.dim, rhs.piecewise_constant_pieces) == (2, 3)
    assert type(rhs.dim) is int and type(rhs.piecewise_constant_pieces) is int


# The solvers write their stages into buffers of their own; what the rhs returns may be its
# input, one array returned on every call (kept read-only here, so a write into it raises)
# or anything else, and is never written into.
CONSTANT = np.array([[0.3, -0.2], [1.5, 0.25], [-0.5, 2.0]])
CONSTANT.setflags(write=False)
SAME_ARRAY_RHS = {
    "input": RhsSpec(lambda t, x: x, 2, math.inf, 1.0),
    "constant": RhsSpec(lambda t, x: CONSTANT, 2, 2.0, 0.0),
    "piecewise": RhsSpec(
        lambda t, x: (1 + ode._piece_of(t, 3)) * np.cos(x), 2, 3 * math.sqrt(2), 3.0,
        piecewise_constant_pieces=3,
    ),
}


def rk4_reference(rhs, y0, n):
    """The RK4 path of the plain formulas, every term a new array."""
    p = rhs.piecewise_constant_pieces
    states, x, h = [y0], y0, 1.0 / n
    for i in range(n):
        t0 = i / n
        if p is not None and n % p == 0:
            ta = tb = tc = (i * p // n) / p
        else:
            ta, tb, tc = t0, t0 + 0.5 * h, t0 + h
        k1 = rhs(ta, x)
        k2 = rhs(tb, x + 0.5 * h * k1)
        k3 = rhs(tb, x + 0.5 * h * k2)
        k4 = rhs(tc, x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(x)
    return np.array(states)


@pytest.mark.parametrize("n", [1, 3, 8, 24])
@pytest.mark.parametrize("name", SAME_ARRAY_RHS)
def test_rk4_and_euler_equal_the_plain_formulas_bit_for_bit(name, n):
    rhs = SAME_ARRAY_RHS[name]
    ys = np.array([[0.5, -1.0], [2.0, 0.25], [-3.0, 1e-300]])
    given = ys.copy()
    path = ode._rk4_path(rhs, ys, n)
    assert np.array_equal(path.view(np.int64), rk4_reference(rhs, ys, n).view(np.int64))
    mesh = [i / n for i in range(n + 1)]
    x, expected = ys, [ys]
    for lo, hi in zip(mesh, mesh[1:]):
        x = x + (hi - lo) * rhs(lo, x)
        expected.append(x)
    for f in (rhs, rhs.f):
        got = euler_solve(f, ys, n).states
        assert np.array_equal(got.view(np.int64), np.array(expected).view(np.int64))
    assert np.array_equal(ys, given)


def test_rk4_of_x_prime_equals_x_reaches_e():
    # stages sharing one buffer gave 2.830 here: the rhs returned the buffer, and the next
    # stage's input overwrote the slope it still had to read
    path = ode._rk4_path(RhsSpec(lambda t, x: x, 1, math.inf, 1.0), np.array([1.0]), 8)
    assert abs(path[-1, 0] - math.e) < 1e-5
