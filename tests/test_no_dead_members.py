"""Tooling guard: every public member of the exact vector, matrix, ellipsoid and
transform types, of the balancing instance and of the reduction records has a
reader.

A method that only tests call belongs in a test-side reference
(``linalg_helpers``), not in src/, and a record field that only tests read
should not be computed.  Each public method must be called somewhere as
``.name(...)``, and each property read as ``.name``, outside the member's own
definition.  Each field of a record (a dataclass) must be read as ``.name``:
an assignment to it, an item assignment into it (``r.f[k] = v``) and a call
on it whose result is dropped (``r.f.update(...)``) write the field and do
not count.  The readers are src/balancelat and the benchmark under
perfbench/, which reads the records it traces.  The scan matches names, not
types: a reference to a same-named member of another class also counts.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

import balancelat
from balancelat.geometry import Ellipsoid, WellRoundResult
from balancelat.lattice import UnimodularTransform
from balancelat.linalg import RMatrix, RVector
from balancelat.nbp import NbpInstance, NbpSolution
from balancelat.reduce_to_minkowski import MinkowskiFromNbpResult
from balancelat.reduce_to_nbp import HalveOutcome, ReductionResult

REPO = Path(__file__).resolve().parent.parent
MODULES = sorted(Path(balancelat.__file__).parent.glob("*.py")) + sorted(
    (REPO / "perfbench").glob("*.py")
)
CLASSES = [RVector, RMatrix, Ellipsoid, UnimodularTransform, NbpInstance,
           NbpSolution, ReductionResult, HalveOutcome, WellRoundResult, MinkowskiFromNbpResult]


def public_members(cls):
    """(name, kind) of each public field, method and property defined on cls itself."""
    if dataclasses.is_dataclass(cls):
        yield from ((f.name, "field") for f in dataclasses.fields(cls))
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

    kind is "method" for the callee of a call ``x.attr(...)``, "property"
    for every attribute reference, called or not, and "field" for a
    reference that reads the attribute's value: loaded, and neither indexed
    for an assignment nor the receiver of a call whose result is dropped.
    """
    found = []
    written = set()  # ids of attribute references whose value is only written into

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            found.append((node.func.attr, "method", scope))
        if (isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Attribute)):
            written.add(id(node.value))
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Attribute)
                and isinstance(node.value.func.value, ast.Attribute)):
            written.add(id(node.value.func.value))
        if isinstance(node, ast.Attribute):
            found.append((node.attr, "property", scope))
            if isinstance(node.ctx, ast.Load) and id(node) not in written:
                found.append((node.attr, "field", scope))
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
            "UnimodularTransform.apply", "NbpInstance.ints", "NbpInstance.restrict",
            "NbpSolution.coeff_bound", "ReductionResult.formula",
            "ReductionResult.bound_satisfied", "HalveOutcome.branch",
            "WellRoundResult.cert", "MinkowskiFromNbpResult.rho_star"} <= ids


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


def test_writes_are_not_reads():
    refs = references(
        "def f(r, d):\n"
        "    r.details.update(d)\n"
        "    r.details['k'] = 3\n"
        "    r.counts['k'] += 1\n"
        "    r.formula = 'patched'\n"
        "    return r.solution.x, r.log.append(1)\n"
    )
    assert not is_referenced(refs, "R", "details", "field")
    assert not is_referenced(refs, "R", "counts", "field")
    assert not is_referenced(refs, "R", "formula", "field")
    assert is_referenced(refs, "R", "solution", "field")
    assert is_referenced(refs, "R", "log", "field")  # the call's result is used


@pytest.mark.parametrize("owner, name, kind", MEMBERS, ids=[f"{o}.{n}" for o, n, _ in MEMBERS])
def test_member_has_a_library_caller(owner, name, kind):
    assert is_referenced(LIBRARY_REFS, owner, name, kind), (
        f"{owner}.{name} is not read in src/balancelat or perfbench/ outside its own "
        "definition; move it to a test-side reference or stop computing it"
    )
