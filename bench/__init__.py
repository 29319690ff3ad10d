"""Benchmark of the reluflow experiment harness; see bench.run."""
