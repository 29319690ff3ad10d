"""Every name a module declares public, and every attribute the benchmark's
tracer rebinds (``bench/tracing.py`` ``SITES``), resolves; the CLI imports
no private name of any module of the package; and the package
runs without scipy, which only the tests use, and on one thread without
numpy.random or concurrent.futures."""

import ast
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import reluflow

MODULES = [m.name for m in pkgutil.iter_modules(reluflow.__path__) if not m.name.startswith("_")]


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_resolves(name):
    module = importlib.import_module(f"reluflow.{name}")
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


def test_every_tracer_site_resolves(monkeypatch):
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("tracing_under_test", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look themselves up
    spec.loader.exec_module(tracing)
    sites = [site.split(".") for group in tracing.SITES.values() for site in group]
    assert sites
    missing = [
        ".".join(site) for site in sites
        if not hasattr(importlib.import_module(f"reluflow.{site[0]}"), site[1])
    ]
    assert missing == []


def test_cli_imports_no_private_name_of_any_module():
    # each memory estimate lives in the module that makes the allocation, and cli only
    # compares its bytes with the budget; it draws through public names too
    path = Path(reluflow.__file__).resolve().parent / "cli.py"
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "reluflow")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


# one tiny config for each subcommand, run in a fresh interpreter
NO_SCIPY = """
import sys
from pathlib import Path
import numpy
preloaded = set(sys.modules)  # numpy 1.x imports numpy.random itself; numpy 2 on first use
import reluflow
from reluflow.cli import main
assert "scipy" not in sys.modules, "import reluflow"
tmp = Path(sys.argv[1])
for command, text in [
    ("convergence", "rhs = sin\\nn_list = 2,4\\ntime_samples = 5\\nspace_samples = 5\\n"),
    ("complexity", "rhs = sin\\nn_list = 2,4\\n"),
    ("compile", "function = sin\\ndim = 2\\nradius = 1\\neps = 0.5\\nsamples = 200\\n"),
    ("shared", "rhs = cos\\npieces = 2\\nk_list = 1,2\\ntime_samples = 5\\nspace_samples = 5\\n"),
]:
    config = tmp / f"{command}.cfg"
    config.write_text(text)
    argv = [command, "--config", str(config), "--out", str(tmp / command), "--threads", "1"]
    assert main(argv) == 0, command
    loaded = {"scipy", "numpy.random", "concurrent.futures"} & (set(sys.modules) - preloaded)
    assert not loaded, (command, loaded)
"""


def test_no_subcommand_imports_scipy(tmp_path):
    src = Path(reluflow.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", NO_SCIPY, str(tmp_path)], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "compile" / "network.json").is_file()
