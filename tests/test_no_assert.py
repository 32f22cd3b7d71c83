"""Tooling guard: the library raises its own errors instead of using ``assert``.

``python -O`` strips assert statements, so a proof-backed check written as an
assert would silently vanish; checks raise InternalContradiction or
OracleContractViolation instead, never a bare AssertionError either.
"""

import ast
from pathlib import Path

import pytest

import balancelat

MODULES = sorted(Path(balancelat.__file__).parent.glob("*.py"))


def test_package_has_modules():
    assert len(MODULES) > 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements at lines {lines}"


def _raises_assertion_error(node) -> bool:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_raise_assertion_error(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Raise) and node.exc is not None
             and _raises_assertion_error(node)]
    assert lines == [], f"{path.name} raises AssertionError at lines {lines}"
