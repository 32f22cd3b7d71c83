"""The benchmark tracer (perfbench/tracing.py) still fits the library.

The tracer wraps named library functions and methods at every place they
are bound.  A library change that renames, moves or merges one of them
breaks ``perfbench/run.py --trace 1``; these tests catch that without
running the benchmark.  They read perfbench/ and never change it.
"""

import contextlib
import importlib
import importlib.util
import io
import pkgutil
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import balancelat

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_tracing():
    """perfbench/tracing.py as a module of its own, read from the file."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING = load_tracing()
# (boundary or counter name, module, attribute path) of every wrapped call
BOUNDARIES = [row[:3] for row in TRACING.SPANS + TRACING.COUNTS]


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


@pytest.mark.parametrize("mod, path", [b[1:] for b in BOUNDARIES], ids=[b[0] for b in BOUNDARIES])
def test_boundary_names_a_function_of_the_package(mod, path):
    """Each boundary is a function defined under its own name, so a rename
    or a merge fails here with the boundary named."""
    owner = importlib.import_module(f"balancelat.{mod}")
    for attr in path.split("."):
        assert attr in vars(owner), f"balancelat.{mod} has no {path}"
        owner = vars(owner)[attr]
    assert callable(owner) and owner.__qualname__ == path


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


@pytest.mark.parametrize("workload", ["solve", "lattice", "to-nbp", "to-minkowski"])
def test_smallest_ops_leave_no_designated_boundary_silent(tracing, workload, tmp_path):
    """``--trace 1`` exits 1 when a designated boundary records no call.

    Catches, for example, a certificate that stops calling ``gram_schmidt``.
    One op per op kind and id tag (to-minkowski's natural and rounded
    ellipsoids share a kind but take different branches), the smallest, runs
    under an installed tracer; every boundary designated for the workload
    must record a call.
    """
    workloads = importlib.import_module("workloads")
    from balancelat import cli, generators, geometry

    lib = SimpleNamespace(cli=cli, generators=generators, geometry=geometry)
    smallest = {}
    for op in workloads.build(workload, 1, lib, tmp_path):
        key = (op.kind, op.id.split("/")[0])
        if key not in smallest or op.size < smallest[key].size:
            smallest[key] = op
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for op in smallest.values():
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(op.argv + ["--out", str(tmp_path / "report")]) == 0, op.id
    finally:
        tracer.uninstall()
    assert tracer.silent_boundaries(workload) == []
