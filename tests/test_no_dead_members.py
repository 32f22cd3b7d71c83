"""Tooling guard: every module-level name of the library, and every public
member of the exact vector, matrix, ellipsoid and transform types, of the
balancing instance and of the reduction records, has a reader.

A module-level function, class or constant of src/balancelat must be read,
as a loaded name or an attribute, somewhere in src/balancelat outside its
own definition, or in perfbench/.  An import is not a read.  Every name a
module of src/balancelat imports is read in that module, as a loaded name.

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
from collections import Counter
from pathlib import Path

import pytest

import balancelat
from balancelat.geometry import WellRoundResult
from balancelat.lattice import LatticeBasis, UnimodularTransform
from balancelat.linalg import RMatrix, RVector
from balancelat.nbp import NbpInstance, NbpSolution
from balancelat.reduce_to_minkowski import MinkowskiFromNbpResult
from balancelat.reduce_to_nbp import HalveOutcome, ReductionResult

REPO = Path(__file__).resolve().parent.parent
LIBRARY = sorted(Path(balancelat.__file__).parent.glob("*.py"))
MODULES = LIBRARY + sorted((REPO / "perfbench").glob("*.py"))
CLASSES = [RVector, RMatrix, LatticeBasis, UnimodularTransform, NbpInstance,
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
            "RMatrix.from_ints", "LatticeBasis.quad", "LatticeBasis.n",
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


def name_reads(node: ast.AST) -> Counter:
    """How often each name is read under node, as a loaded name or an attribute."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            found[sub.attr] += 1
    return found


def module_names(tree: ast.Module):
    """(name, definition) of each module-level function, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((t.id, node) for t in targets
                        if isinstance(t, ast.Name) and not t.id.startswith("__"))


def unread_names(sources: dict[str, str], library: list[str]) -> list[str]:
    """module.name of each module-level name of the library modules that no
    source reads outside the name's own definition."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = sum((name_reads(tree) for tree in trees.values()), Counter())
    return [f"{module}.{name}" for module in library
            for name, node in module_names(trees[module])
            if reads[name] <= name_reads(node)[name]]


def test_unread_module_names_are_found():
    sources = {
        "lib": "from math import isqrt\n"
               "Alias = int\n"
               "LIMIT = 3\n"
               "def walk(n):\n"
               "    return walk(n - 1) if n > LIMIT else isqrt(n)\n"
               "def used():\n"
               "    return 1\n",
        "__init__": "from .lib import Alias, walk, used\n__all__ = ['Alias', 'walk']\n",
        "bench": "import lib\nlib.used()\n",
    }
    assert unread_names(sources, ["lib", "__init__"]) == ["lib.Alias", "lib.walk"]


def test_every_module_name_has_a_reader():
    sources = {f"{path.parent.name}.{path.stem}": path.read_text() for path in MODULES}
    unread = unread_names(sources, [f"balancelat.{path.stem}" for path in LIBRARY])
    assert unread == [], (
        f"{unread} are not read in src/balancelat outside their own definition or in "
        "perfbench/; delete them"
    )


def unread_imports(source: str) -> list[str]:
    """Each name source binds by an import and never reads as a loaded name,
    annotations included; ``from __future__ import annotations`` is exempt."""
    tree = ast.parse(source)
    reads = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
               and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")]
    bound = [alias.asname or alias.name.split(".")[0] for node in imports for alias in node.names]
    return [name for name in bound if name not in reads]


def test_unread_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import json as js\n"
              "from math import isqrt, floor\n"
              "from .lib import Alias, walk\n"
              "__all__ = ['walk']\n"
              "def f(n: Alias) -> int:\n"
              "    return isqrt(n) + os.sep.count('/')\n")
    assert unread_imports(source) == ["js", "floor", "walk"]


def test_every_import_is_read():
    unread = {path.name: names for path in LIBRARY if (names := unread_imports(path.read_text()))}
    assert unread == {}, f"{unread} are imported and never read; drop the imports"
