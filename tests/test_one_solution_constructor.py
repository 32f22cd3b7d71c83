"""Tooling guard: an NbpSolution is built only by nbp.verify.

An NbpSolution is a verified solution: every balancing-point reply is read
by nbp.verify, in the handle or route that owns the claim, and callers read
the NbpSolution it returns.  So the one call ``NbpSolution(...)`` under
src/balancelat is the one in verify; a layer that built its own would hand
on an error that no check computed.
"""

import ast
from pathlib import Path

import balancelat

LIBRARY = sorted(Path(balancelat.__file__).parent.glob("*.py"))


def calls_of(source: str, name: str) -> list[tuple[str, ...]]:
    """The enclosing class and def names of each call ``name(...)`` or ``m.name(...)``."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Call):
            func = node.func
            if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == name:
                found.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_calls_are_found():
    source = (
        "def f(x):\n"
        "    return NbpSolution(x, 1, 0)\n"
        "class C:\n"
        "    def g(self, x):\n"
        "        return nbp.NbpSolution(x, 1, 0), NbpSolution\n"
    )
    assert calls_of(source, "NbpSolution") == [("f",), ("C", "g")]


def test_only_verify_builds_a_solution():
    built = [(path.stem, *scope) for path in LIBRARY
             for scope in calls_of(path.read_text(), "NbpSolution")]
    assert built == [("nbp", "verify")]
