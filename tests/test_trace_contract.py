"""The benchmark tracer (perfbench/tracing.py) still fits the library.

The tracer wraps named library functions and methods at every place they
are bound.  A library change that renames, moves or merges one of them
breaks ``perfbench/run.py --trace 1``; these tests catch that without
running the benchmark.  They read perfbench/ and never change it.
"""

import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import balancelat

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def import_every_module():
    for info in pkgutil.iter_modules(balancelat.__path__):
        importlib.import_module(f"balancelat.{info.name}")


def bindings():
    """Every module-level and class-level binding in the package, by location."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name != "balancelat" and not name.startswith("balancelat."):
            continue
        for attr, value in vars(module).items():
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for member, inner in vars(value).items():
                    out[(name, attr, member)] = inner
    return out


@pytest.fixture
def tracing(monkeypatch):
    import_every_module()
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def test_every_boundary_resolves(tracing):
    tracing.Tracer()  # raises RuntimeError naming a boundary that no longer exists


def test_install_wraps_every_boundary_and_uninstall_restores_it(tracing):
    before = bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        installed = bindings()
        for _, mod, path, *_ in tracing.SPANS + tracing.COUNTS:
            module = sys.modules[f"balancelat.{mod}"]
            key = (module.__name__, *path.split("."))
            assert installed[key] is not before[key], f"{mod}.{path} was not wrapped"
    finally:
        tracer.uninstall()
    after = bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
