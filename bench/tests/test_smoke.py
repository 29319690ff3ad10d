"""Smoke test of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bench import run, worker

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "convergence-d1": run.Workload(
        "convergence",
        {"rhs": "sin", "dim": 1, "n_list": "8,16", "time_samples": 5, "space_samples": 5},
        2,
        2,
    ),
    "shared-d2": run.Workload(
        "shared",
        {"rhs": "sin", "dim": 2, "pieces": 1, "k_list": "2,4", "space_samples": 3, "time_samples": 3},
        2,
        2,
    ),
    "compile-d2": run.Workload(
        "compile", {"function": "sin", "dim": 2, "radius": 1, "eps": 1.0, "samples": 200}, 1, 2
    ),
}


def test_tiny_workloads_mirror_the_benchmark_workloads():
    assert set(TINY) == set(run.WORKLOADS) == {w["name"] for w in SPEC["workloads"]}
    for name, tiny in TINY.items():
        assert tiny.command == run.WORKLOADS[name].command


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_is_printed_with_its_unit(name, trace, tmp_path, monkeypatch, capsys):
    argv = ["--workload", name, "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    assert run.main(argv, workloads=TINY, workdir=tmp_path) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= TINY[name].operations
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for m in expected:
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
        assert f"{name} {m['name']} = " in "\n".join(lines)
    assert any(line.startswith(f"{name} fail_frac = 0/") for line in lines)


def test_a_child_over_its_cap_is_killed_and_counted_as_failed(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "CHILD_CAP_S", 0.01)
    argv = ["--workload", "convergence-d1", "--seed", "3", "--seconds", "1", "--trace", "0"]
    assert run.main(argv, workloads=TINY, workdir=tmp_path) == 0
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert result["attempted"] == result["failed"] == TINY["convergence-d1"].operations
    assert not result["correct"]
    assert "failed: timeout after" in out


def test_tampered_network_file_counts_as_a_failed_operation(tmp_path, monkeypatch):
    from reluflow import cli

    config = tmp_path / "experiment.cfg"
    config.write_text("".join(f"{k} = {v}\n" for k, v in TINY["compile-d2"].config.items()))
    save = cli.save_network

    def save_then_tamper(net, path):
        save(net, path)
        doc = json.loads(Path(path).read_text())
        doc["layers"][-1]["bias"][0] += 1e-3
        Path(path).write_text(json.dumps(doc))

    monkeypatch.setattr(cli, "save_network", save_then_tamper)
    cfg = cli.load_config(config, "compile")
    result = worker.run_experiment("compile", str(config), cfg, tmp_path / "out", 3)
    assert result["exit"] == 0
    assert len(result["failures"]) == 1 and "round trip" in result["failures"][0]
    summary = run.summarize([{**result, "trace": False}], trace=False)
    assert (summary["attempted"], summary["failed"], summary["correct"]) == (1, 1, False)


def test_metrics_come_only_from_children_whose_operations_all_passed():
    good = {"trace": False, "failures": [None, None], "work_s": 2.0, "setup_s": 0.3,
            "peak_rss_mb": 90.0, "sup_error": 0.1, "output_bytes": 100}
    # an experiment that stops early is fast; its time must not be reported
    early = {**good, "failures": [None, "exit code 3"], "work_s": 0.1, "setup_s": 0.1}
    summary = run.summarize([good, early, good], trace=False)
    assert (summary["attempted"], summary["failed"], summary["correct"]) == (6, 1, False)
    assert summary["metrics"]["work_s"]["value"] == 2.0
    assert summary["metrics"]["setup_s"]["value"] == 0.3


def test_host_factor_scales_by_the_yardstick_chunks_inside_the_span():
    slow = run.REFERENCE_CHUNK_S * 2
    records = [(0.0, 1.0, run.REFERENCE_CHUNK_S), (1.0, 2.0, slow), (2.0, 3.0, slow)]
    assert run.host_factor(records, 1.0, 3.0) == 0.5
    assert run.host_factor(records, 0.0, 3.0) == pytest.approx(0.6)
    assert run.host_factor(records, 5.0, 6.0) is None


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    argv = [sys.executable, "-m", "bench.run", "--workload", "shared-d2", "--seed", "1",
            "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "metrics" not in done.stdout
