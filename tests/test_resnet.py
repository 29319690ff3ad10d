import math

import numpy as np
import pytest

from reluflow import (
    ResNetParams,
    RhsSpec,
    build_resnet,
    eval_resnet,
    load_resnet,
    resnet_as_rhs,
    resnet_from_dict,
    resnet_node_states,
    resnet_to_dict,
    save_resnet,
)


def autonomous_sin(dim, pieces=None) -> RhsSpec:
    return RhsSpec(
        lambda t, x: np.sin(x), dim, math.sqrt(dim), 1.0, piecewise_constant_pieces=pieces
    )


def sample_points(dim, count=9) -> np.ndarray:
    axis = np.linspace(-1.0, 1.0, count)
    mesh = np.meshgrid(*([axis] * dim), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


class TestBuildResnet:
    @pytest.mark.parametrize("dim,n", [(1, 8), (2, 5)])
    def test_declared_single_piece_compiles_one_block(self, dim, n):
        declared, declared_report = build_resnet(
            autonomous_sin(dim, pieces=1), n, 2.0, block_accuracy=0.5
        )
        per_step, per_step_report = build_resnet(autonomous_sin(dim), n, 2.0, block_accuracy=0.5)
        assert len(declared.pool) == 1
        assert declared.block_refs == (0,) * n
        assert len(per_step.pool) == n
        ys = sample_points(dim)
        assert np.array_equal(resnet_node_states(declared, ys), resnet_node_states(per_step, ys))
        assert declared_report == per_step_report

    @pytest.mark.parametrize("n", [8, 10])
    def test_eval_at_node_times_equals_node_states(self, n):
        net, _ = build_resnet(autonomous_sin(2, pieces=1), n, 2.0, block_accuracy=0.5)
        ys = sample_points(2)
        states = resnet_node_states(net, ys)
        for k in range(n + 1):
            assert np.array_equal(eval_resnet(net, k / n, ys), states[k])


class TestFileFormat:
    def test_round_trip_keeps_declared_constants(self, tmp_path):
        built, _ = build_resnet(autonomous_sin(1, pieces=2), 4, 2.0, block_accuracy=0.5)
        net = ResNetParams(built.pool, built.block_refs, built.dim, bound_c=1.0, lipschitz_L=1.0)
        path = tmp_path / "resnet.json"
        save_resnet(net, path)
        back = load_resnet(path)
        assert (back.bound_c, back.lipschitz_L) == (1.0, 1.0)
        assert back.block_refs == net.block_refs
        ys = sample_points(1)
        assert np.array_equal(resnet_node_states(back, ys), resnet_node_states(net, ys))
        rhs = resnet_as_rhs(back)
        assert (rhs.bound_c, rhs.lipschitz_L) == (1.0, 1.0)

    def test_files_without_constants_load_them_as_none(self):
        net, _ = build_resnet(autonomous_sin(1, pieces=1), 2, 2.0, block_accuracy=0.5)
        doc = resnet_to_dict(net)
        del doc["bound_c"], doc["lipschitz_L"]
        back = resnet_from_dict(doc)
        assert back.bound_c is None and back.lipschitz_L is None
