"""Tooling guard: every public member of the exact vector, matrix, ellipsoid and
transform types has a caller in the library.

A method that only tests call belongs in a test-side reference
(``linalg_helpers``), not in src/.  For RVector, RMatrix, Ellipsoid and
UnimodularTransform, each public method must be called somewhere in
src/balancelat as ``.name(...)``, and each property read as ``.name``,
outside the member's own definition.  The scan matches names, not types: a
call of a same-named method of another class also counts.
"""

import ast
from pathlib import Path

import pytest

import balancelat
from balancelat.geometry import Ellipsoid
from balancelat.lattice import UnimodularTransform
from balancelat.linalg import RMatrix, RVector

MODULES = sorted(Path(balancelat.__file__).parent.glob("*.py"))
CLASSES = [RVector, RMatrix, Ellipsoid, UnimodularTransform]


def public_members(cls):
    """(name, kind) of each public method and property defined on cls itself."""
    for name, value in vars(cls).items():
        if name.startswith("_"):
            continue
        if isinstance(value, property):
            yield name, "property"
        elif isinstance(value, (staticmethod, classmethod)) or callable(value):
            yield name, "method"


MEMBERS = [(cls.__name__, name, kind) for cls in CLASSES for name, kind in public_members(cls)]


def references(source: str) -> list[tuple[str, str, tuple[str, ...]]]:
    """(attribute, kind, enclosing class and def names) of each ``.attr`` in source.

    kind is "method" for the callee of a call ``x.attr(...)`` and "property"
    for every attribute reference, called or not.
    """
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            found.append((node.func.attr, "method", scope))
        if isinstance(node, ast.Attribute):
            found.append((node.attr, "property", scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def is_referenced(refs, owner: str, name: str, kind: str) -> bool:
    """Some reference of the member's kind lies outside owner.name's own definition."""
    return any(attr == name and ref_kind == kind and (owner, name) not in zip(scope, scope[1:])
               for attr, ref_kind, scope in refs)


LIBRARY_REFS = [ref for path in MODULES for ref in references(path.read_text())]


def test_members_are_listed():
    ids = {f"{owner}.{name}" for owner, name, _ in MEMBERS}
    assert {"RVector.dot", "RMatrix.matvec", "RMatrix.rows", "RMatrix.identity",
            "RMatrix.from_ints", "Ellipsoid.quad", "Ellipsoid.dim",
            "UnimodularTransform.apply"} <= ids


def test_own_definition_does_not_count():
    refs = references(
        "class V:\n"
        "    def unit(self):\n"
        "        return self.unit()\n"
        "    @property\n"
        "    def size(self):\n"
        "        return self.other.size\n"
        "def f(v):\n"
        "    return v.unit\n"
    )
    assert not is_referenced(refs, "V", "unit", "method")  # read, never called outside
    assert not is_referenced(refs, "V", "size", "property")
    assert is_referenced(refs, "W", "size", "property")


@pytest.mark.parametrize("owner, name, kind", MEMBERS, ids=[f"{o}.{n}" for o, n, _ in MEMBERS])
def test_member_has_a_library_caller(owner, name, kind):
    assert is_referenced(LIBRARY_REFS, owner, name, kind), (
        f"{owner}.{name} is not referenced in src/balancelat outside its own definition; "
        "move it to a test-side reference"
    )
