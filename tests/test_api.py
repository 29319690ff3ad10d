"""Every name a module declares public, and every attribute the benchmark's
tracer rebinds (``bench/tracing.py`` ``SITES``), resolves; each class and
function the package exports is listed by the module that defines it; the
CLI and the compiler (``pwl``) import no private name of any module of the
package; the package runs without scipy, which only the tests use, and on
one thread without numpy.random or concurrent.futures; and ``python -m
reluflow`` runs the CLI."""

import ast
import importlib
import importlib.util
import inspect
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

    def home(obj):
        return obj.__module__ if inspect.isclass(obj) or inspect.isfunction(obj) else None

    # a class or function is listed where it is defined, and the package root exports no
    # class or function of this module that its __all__ leaves out
    listed = {attr: home(getattr(module, attr)) for attr in module.__all__}
    assert {attr: at for attr, at in listed.items() if at not in (None, module.__name__)} == {}
    rooted = {attr for attr, obj in vars(reluflow).items() if home(obj) == module.__name__}
    assert sorted(rooted - listed.keys()) == []


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


def private_imports(name: str) -> list:
    """The private names that module ``name`` of the package imports from the package."""
    path = Path(reluflow.__file__).resolve().parent / f"{name}.py"
    return [
        f"{node.module}.{alias.name}"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "reluflow")
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_cli_imports_no_private_name_of_any_module():
    # each memory estimate lives in the module that makes the allocation, and cli only
    # compares its bytes with the budget; it draws through public names too
    assert private_imports("cli") == []


def test_pwl_imports_no_private_name_of_any_module():
    # the compiler builds on the network's public operations (CSRMatrix.kron, its
    # constructors and the byte model); the construction's own layout lives in pwl
    assert private_imports("pwl") == []


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


def test_python_dash_m_reluflow_prints_its_usage(tmp_path):
    # the module entry point (__main__.py) runs the CLI and exits with its code
    src = Path(reluflow.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-m", "reluflow", "-h"], env=env, capture_output=True, text=True,
        cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: reluflow ")
    assert "convergence, complexity, compile or shared" in done.stdout
