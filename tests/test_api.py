"""Every name a module declares public, and every attribute the benchmark's
tracer rebinds (``bench/tracing.py`` ``SITES``), resolves."""

import importlib
import importlib.util
import pkgutil
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
