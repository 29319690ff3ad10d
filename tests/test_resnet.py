import itertools
import math
import re
from functools import partial

import numpy as np
import pytest

from reluflow import (
    PWLFunction,
    ResNetParams,
    RhsSpec,
    build_resnet,
    build_shared_resnet,
    compile_pwl,
    euler_solve,
    eval_network,
    eval_network_batched,
    eval_resnet,
    networks,
    perturbed_euler_bound,
    pwl,
    resnet,
    resnet_as_rhs,
    resnet_node_states,
)


def autonomous_sin(dim, pieces=None) -> RhsSpec:
    return RhsSpec(
        lambda t, x: np.sin(x), dim, math.sqrt(dim), 1.0, piecewise_constant_pieces=pieces
    )


def two_piece_rhs(dim) -> RhsSpec:
    return RhsSpec(
        lambda t, x: np.sin(x) if t < 0.5 else 0.5 * np.cos(x),
        dim,
        math.sqrt(dim),
        1.0,
        piecewise_constant_pieces=2,
    )


def three_piece_rhs(dim) -> RhsSpec:
    """sin, then sin / 2, then sin / 3 on the thirds of [0, 1]."""
    return RhsSpec(
        lambda t, x: np.sin(x) / (1 + min(int(3 * t), 2)),
        dim,
        math.sqrt(dim),
        1.0,
        piecewise_constant_pieces=3,
    )


def sample_points(dim, count=9) -> np.ndarray:
    axis = np.linspace(-1.0, 1.0, count)
    mesh = np.meshgrid(*([axis] * dim), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def assert_same_block(a: PWLFunction, b: PWLFunction) -> None:
    assert (a.grid, a.cube_radius) == (b.grid, b.cube_radius)
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(np.signbit(a.values), np.signbit(b.values))


def one_block(f, lipschitz, bound, r, eps, dim=1) -> PWLFunction:
    """The block of a one-step ``build_resnet`` of the autonomous rhs f on [-r, r]^dim."""
    net, _ = build_resnet(RhsSpec(lambda t, x: f(x), dim, bound, lipschitz), 1, r, eps)
    return net.pool[0]


class TestBuildBlocks:
    def test_depth_d1(self):
        assert pwl.compiled_complexity(one_block(np.sin, 1.0, 1.0, 1.0, 0.5)).depth == 3

    def test_sin_sup_error(self):
        net = compile_pwl(one_block(np.sin, 1.0, 1.0, 1.0, 0.1))
        xs = np.linspace(-1.0, 1.0, 10_001).reshape(-1, 1)
        got = eval_network_batched(net, xs)[:, 0]
        assert np.abs(got - np.sin(xs[:, 0])).max() <= 0.1

    def test_sin_stays_bounded(self):
        net = compile_pwl(one_block(np.sin, 1.0, 1.0, 1.0, 0.1))
        xs = np.linspace(-5.0, 5.0, 10_001).reshape(-1, 1)
        assert np.abs(eval_network_batched(net, xs)).max() <= 1.0

    def test_constant_function(self):
        net = compile_pwl(one_block(lambda x: np.full_like(x, 0.7), 0.0, 0.7, 2.0, 0.01))
        xs = np.linspace(-2.0, 2.0, 101).reshape(-1, 1)
        assert np.abs(eval_network_batched(net, xs)[:, 0] - 0.7).max() <= 1e-12

    def test_neuron_scaling_as_eps_halves(self):
        for dim in (1, 2):
            counts = [
                pwl.compiled_complexity(one_block(np.sin, 1.0, dim**0.5, 1.0, eps, dim)).neurons
                for eps in (0.4, 0.2, 0.1)
            ]
            for a, b in zip(counts, counts[1:]):
                assert b / a <= 2**dim + 1

    def test_declared_bound_spot_warning(self):
        with pytest.warns(UserWarning, match="declared bound"):
            one_block(np.sin, 1.0, 0.1, 2.0, 0.5)

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError, match="target accuracy must be positive"):
            one_block(lambda x: x, 1.0, 1.0, 1.0, 0.0)


class TestBuildResnet:
    @pytest.mark.parametrize("dim,n", [(1, 8), (2, 5)])
    def test_declared_single_piece_compiles_one_block(self, dim, n):
        declared, declared_bound = build_resnet(
            autonomous_sin(dim, pieces=1), n, 2.0, block_accuracy=0.5
        )
        per_step, per_step_bound = build_resnet(autonomous_sin(dim), n, 2.0, block_accuracy=0.5)
        assert len(declared.pool) == 1
        assert declared.block_refs == (0,) * n
        assert len(per_step.pool) == n
        ys = sample_points(dim)
        assert np.array_equal(resnet_node_states(declared, ys), resnet_node_states(per_step, ys))
        for block in per_step.pool:
            assert_same_block(block, declared.pool[0])
        # one declared piece holds every step, so only the undeclared rhs pays the drift L/n
        c, lipschitz = math.sqrt(dim), 1.0
        assert declared_bound == perturbed_euler_bound(0.5, c, n, lipschitz)
        assert per_step_bound == perturbed_euler_bound(
            0.5 + lipschitz / n, c, n, lipschitz
        )

    @pytest.mark.parametrize("n,drift", [(3, 1 / 3), (4, 0.0), (6, 0.0)])
    def test_drift_is_kept_only_where_a_step_crosses_a_piece(self, n, drift):
        rhs = two_piece_rhs(1)
        net, bound = build_resnet(rhs, n, 2.0, block_accuracy=0.5)
        assert len(net.pool) == 2
        assert bound == perturbed_euler_bound(
            0.5 + drift, rhs.bound_c, n, rhs.lipschitz_L
        )

    @pytest.mark.parametrize("pieces,calls", [(1, 1), (2, 2)])
    def test_calls_the_rhs_once_per_pool_block(self, pieces, calls):
        # the builder interpolates f once per block and never samples it beyond that
        times = []

        def f(t, x):
            times.append(t)
            return np.sin(x)

        net, _ = build_resnet(RhsSpec(f, 2, math.sqrt(2.0), 1.0, pieces), 4, 2.0, 0.5)
        assert len(net.pool) == calls
        assert times == [i / pieces for i in range(pieces)]

    @pytest.mark.parametrize("n", [8, 10])
    def test_eval_at_node_times_equals_node_states(self, n):
        net, _ = build_resnet(autonomous_sin(2, pieces=1), n, 2.0, block_accuracy=0.5)
        ys = sample_points(2)
        states = resnet_node_states(net, ys)
        for k in range(n + 1):
            assert np.array_equal(eval_resnet(net, k / n, ys), states[k])

    def test_never_builds_or_runs_a_dense_network(self, monkeypatch):
        def dense(*args, **kwargs):
            raise AssertionError("dense network built or evaluated")

        for module, name in ((networks, "eval_network"), (resnet, "eval_network"),
                             (pwl, "compile_pwl")):
            monkeypatch.setattr(module, name, dense)
        net, _ = build_resnet(two_piece_rhs(2), 4, 2.0, block_accuracy=0.5)
        eval_resnet(net, np.linspace(0.0, 1.0, 5), sample_points(2, count=3))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_never_builds_the_min_tree(self, monkeypatch, dim):
        def tree(*args, **kwargs):
            raise AssertionError("min tree built")

        monkeypatch.setattr(pwl, "min_tree_network", tree)
        net, _ = build_resnet(two_piece_rhs(dim), 2, 2.0, block_accuracy=0.5)
        shared, _ = build_shared_resnet(two_piece_rhs(dim), 1, 2.0)
        ys = sample_points(dim, count=3)
        for built in (net, shared):
            assert eval_resnet(built, np.linspace(0.0, 1.0, 3), ys).shape == (3,) + ys.shape
        pwl.compiled_complexity(net.pool[0])  # sizing a block builds no tree either


def hat() -> PWLFunction:
    """The 1-D hat of height 1 on [-1, 1]: a pool entry R -> R."""
    return PWLFunction(pwl.KuhnGrid(1), 1.0, [[0.0], [1.0], [0.0]])


@pytest.mark.parametrize(
    "refused,message",
    [
        (lambda: ResNetParams((), (0,), 1), "parameter pool must not be empty"),
        (lambda: ResNetParams((hat(),), (), 1), "a residual network needs at least one block"),
        (lambda: ResNetParams((hat(),), (0,), 2),
         "pool entry 0 maps 1 -> 1, blocks must map 2 -> 2"),
        (lambda: ResNetParams((hat(),), (0, 1), 1), "block reference 1 outside the pool"),
        (lambda: ResNetParams((hat(),), (0.5, 0.9), 1), "block reference 0.5 is not an integer"),
        (lambda: ResNetParams((hat(),), (0, True), 1), "block reference True is not an integer"),
        (lambda: build_resnet(autonomous_sin(1), 1.5, 2.0, 0.5),
         "block count must be a positive integer"),
        (lambda: build_resnet(autonomous_sin(1), 2, 0.0, 0.5),
         "approximation cube radius must be positive"),
        (lambda: build_shared_resnet(autonomous_sin(1), 1, 2.0),
         "right-hand side is not declared piecewise constant in time"),
        (lambda: build_shared_resnet(autonomous_sin(1, pieces=2), 0, 2.0),
         "replication factor must be a positive integer"),
        (lambda: resnet.shared_accuracy(RhsSpec(np.sin, 1, math.inf, 1.0, 1), 1),
         "shared build needs a finite declared bound"),
    ],
    ids=["empty-pool", "no-blocks", "pool-dimension", "reference-outside", "reference-0.5",
         "reference-True", "build-n", "build-radius", "shared-undeclared", "shared-k",
         "shared-unbounded"],
)
def test_each_refusal_names_its_fault(refused, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        refused()


def test_a_per_step_resnet_uses_block_15_at_node_time_15_over_22():
    # each step has its own block, block k interpolating f(k/n, .) = k/n; the step function
    # at 15/22 reads block 15, though int(15/22 * 22) is 14
    rhs = RhsSpec(lambda t, x: np.full_like(x, t), 1, 1.0, 0.0)
    net, _ = build_resnet(rhs, 22, 1.0, 0.5)
    assert net.block_refs == tuple(range(22))
    x = np.zeros((1, 1))
    assert resnet_as_rhs(net)(15 / 22, x).tolist() == [[15 / 22]]
    assert resnet_node_states(net, x)[16, 0, 0] - resnet_node_states(net, x)[15, 0, 0] > 0.0


def interpolated_states(net, times, ys) -> np.ndarray:
    """Node states, then linear in t: j = min(int(t n), n - 1)."""
    states = resnet_node_states(net, ys)
    n = net.n
    rows = []
    for t in times:
        j = min(int(t * n), n - 1)
        t_lo, t_hi = j / n, (j + 1) / n
        if t == t_lo:
            rows.append(states[j])
        elif t == t_hi:
            rows.append(states[j + 1])
        else:
            theta = (t - t_lo) / (t_hi - t_lo)
            rows.append(states[j] + theta * (states[j + 1] - states[j]))
    return np.stack(rows)


class TestEvalResnet:
    @pytest.mark.parametrize("n", [6, 8])
    def test_times_array_interpolates_the_node_states(self, n):
        net, _ = build_resnet(two_piece_rhs(2), n, 2.0, block_accuracy=0.5)
        ys = sample_points(2, count=5)
        times = [i / 10 for i in range(11)] + [1 / n, 0.37, 1.0 - 1e-12, 1e-300]
        got = eval_resnet(net, np.array(times), ys)
        assert got.shape == (len(times),) + ys.shape
        assert np.array_equal(got, interpolated_states(net, times, ys))
        for i, t in enumerate(times):
            assert np.array_equal(eval_resnet(net, t, ys), got[i])
        assert eval_resnet(net, 0.37, ys[0]).shape == (2,)

    @pytest.mark.parametrize("bad", [-1e-9, 1.5, math.nan])
    def test_time_outside_the_unit_interval_anywhere_is_rejected(self, bad):
        net, _ = build_resnet(two_piece_rhs(1), 4, 2.0, block_accuracy=0.5)
        with pytest.raises(ValueError, match="outside"):
            eval_resnet(net, np.array([0.0, 0.5, bad, 1.0]), sample_points(1))
        with pytest.raises(ValueError, match="outside"):
            eval_resnet(net, bad, sample_points(1))

    @pytest.mark.parametrize("shape", [(3,), (4, 3), (4, 1), (2, 4, 2)])
    def test_initial_value_of_the_wrong_shape_is_rejected(self, shape):
        net, _ = build_resnet(two_piece_rhs(2), 4, 2.0, block_accuracy=0.5)
        message = re.escape(f"initial value shape {shape} is not (2,) or (P, 2)")
        for evaluate in (partial(eval_resnet, net, 0.5), partial(resnet_node_states, net)):
            with pytest.raises(ValueError, match=message):
                evaluate(np.zeros(shape))


class TestSharedBuild:
    @pytest.mark.parametrize("k", [1, 3])
    def test_is_the_plain_build_of_k_times_p_steps(self, k):
        # p pool entries, entry j referenced by the k steps of piece j
        for p, rhs in [(1, autonomous_sin(1, pieces=1)), (2, two_piece_rhs(1)),
                       (3, three_piece_rhs(1))]:
            shared, bound = build_shared_resnet(rhs, k, 2.0)
            target = resnet.shared_accuracy(rhs, k)
            assert target == rhs.bound_c * (rhs.bound_c + rhs.lipschitz_L) / (p * k)
            plain, plain_bound = build_resnet(rhs, p * k, 2.0, target)
            refs = tuple(j for j in range(p) for _ in range(k))
            assert shared.block_refs == plain.block_refs == refs
            assert len(shared.pool) == len(plain.pool) == shared.distinct_parameter_count == p
            for a, b in zip(shared.pool, plain.pool):
                assert_same_block(a, b)
            ys = sample_points(1)
            assert np.array_equal(resnet_node_states(shared, ys), resnet_node_states(plain, ys))
            assert bound == plain_bound == perturbed_euler_bound(
                target, rhs.bound_c, p * k, rhs.lipschitz_L
            )

    def test_zero_rhs_defaults_to_unit_accuracy(self):
        zero = RhsSpec(lambda t, x: np.zeros_like(x), 1, 0.0, 0.0, piecewise_constant_pieces=2)
        net, bound = build_shared_resnet(zero, 2, 1.0)
        assert resnet.shared_accuracy(zero, 2) == 1.0
        assert net.block_refs == (0, 0, 1, 1)
        assert bound == perturbed_euler_bound(1.0, 0.0, 4, 0.0)
        plain, plain_bound = build_resnet(zero, 4, 1.0, 1.0)
        assert bound == plain_bound and net.block_refs == plain.block_refs
        for a, b in zip(net.pool, plain.pool, strict=True):
            assert_same_block(a, b)
        ys = sample_points(1)
        assert np.array_equal(resnet_node_states(net, ys), resnet_node_states(plain, ys))


class TestInducedRhs:
    @pytest.mark.parametrize("n", [4, 6])
    def test_euler_solve_of_the_induced_rhs_is_the_recursion(self, n):
        net, _ = build_resnet(two_piece_rhs(2), n, 2.0, block_accuracy=0.5)
        rhs = resnet_as_rhs(net)
        ys = sample_points(2, count=4)
        states = resnet_node_states(net, ys)
        for i, y in enumerate(ys):
            traj = euler_solve(rhs, y, n)
            assert np.max(np.abs(traj.states - states[:, i])) <= 1e-12

    @pytest.mark.parametrize("dim,count", [(1, 9), (2, 9), (3, 3)])
    def test_node_states_are_the_recursion_on_the_compiled_blocks(self, dim, count):
        # A step evaluates its block within delta = eps V (1 + max |c|) of the dense
        # pass of the block's compiled network (test_pwl's bound).  The blocks
        # interpolate sin and cos / 2 componentwise, so they are 1-Lipschitz in the
        # max norm and a step grows a gap by at most 1 + 1/n: after n steps it is
        # below ((1 + 1/n)^n - 1) delta < (e - 1) delta, and the bound e delta leaves
        # delta for rounding the n state updates.  Measured: at most 0.06 delta.
        n = 4
        net, _ = build_resnet(two_piece_rhs(dim), n, 2.0, block_accuracy=0.5)
        ys = sample_points(dim, count)
        x, recursion = ys, [ys]
        for ref, steps in itertools.groupby(net.block_refs):
            dense = compile_pwl(net.pool[ref])  # one at a time: about 0.3 GB at d = 3
            for _ in steps:
                x = x + (1 / n) * eval_network(dense, x)
                recursion.append(x)
        vertices = max(len(block.vertices) for block in net.pool)
        scale = 1.0 + max(block.max_value_norm for block in net.pool)
        delta = np.finfo(np.float64).eps * vertices * scale
        assert np.abs(resnet_node_states(net, ys) - np.stack(recursion)).max() <= math.e * delta
