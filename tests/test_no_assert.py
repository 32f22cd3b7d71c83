"""Tooling guard: the library raises its own errors instead of using ``assert``.

``python -O`` strips assert statements, so a proof-backed check written as an
assert would silently vanish; checks raise InternalContradiction or
OracleContractViolation instead.
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
