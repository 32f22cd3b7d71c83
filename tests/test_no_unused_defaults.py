"""Tooling guard: every default of the library is a real choice of the program.

A parameter with a default that no library or benchmark call ever passes is
a knob only the tests turn: it widens what the tests must cover without
changing what the program does.  For each module-level function and each
method of a module-level class in src/balancelat, every parameter with a
default must be passed, by position or by keyword, at some call to a
function or method of that name in src/balancelat or perfbench/.  Nested
closures are exempt: their defaults bind loop variables.  A call that
spreads ``*args`` passes every position, and one that spreads ``**kwargs``
every keyword.  The scan matches names, not objects, as test_no_dead_members
does.

The other way round, a dataclass field default that every library and
benchmark construction overrides is a value no program path uses: it only
lets a test leave the field out.  So each field default of a module-level
dataclass must be left unset by some construction of that class there.
Fields with ``init=False`` are not constructor arguments and are exempt.
"""

import ast
from pathlib import Path

import pytest

import balancelat

REPO = Path(__file__).resolve().parent.parent
LIBRARY = sorted(Path(balancelat.__file__).parent.glob("*.py"))
CALLERS = LIBRARY + sorted((REPO / "perfbench").glob("*.py"))


def defaulted_parameters(source: str, module: str):
    """(id, function name, positional index or None, parameter name) of each
    defaulted parameter of a module-level function or method in source."""
    tree = ast.parse(source)
    defs = [(None, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        defs += [(cls.name, node) for node in cls.body if isinstance(node, ast.FunctionDef)]
    for owner, fn in defs:
        positional = fn.args.posonlyargs + fn.args.args
        bound = owner is not None and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
        offset = 1 if bound else 0  # self or cls is not written at the call
        qualified = f"{module}.{owner + '.' if owner else ''}{fn.name}"
        first = len(positional) - len(fn.args.defaults)
        for index in range(first, len(positional)):
            name = positional[index].arg
            yield f"{qualified}({name})", fn.name, index - offset, name
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                yield f"{qualified}({arg.arg})", fn.name, None, arg.arg


def calls(source: str):
    """(callee name, positional count, keyword names, spreads *, spreads **) of each call."""
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name is None:
            continue
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        keywords = {k.arg for k in node.keywords if k.arg is not None}
        spread = any(k.arg is None for k in node.keywords)
        yield name, len(node.args), keywords, starred, spread


def is_passed(call_list, fn_name: str, index, param: str) -> bool:
    for name, npos, keywords, starred, spread in call_list:
        if name != fn_name:
            continue
        if param in keywords or spread:
            return True
        if index is not None and (npos > index or starred):
            return True
    return False


def is_dataclass(cls: ast.ClassDef) -> bool:
    targets = (d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list)
    return any(getattr(t, "id", None) == "dataclass" for t in targets)


def defaulted_fields(source: str, module: str):
    """(id, class name, positional index, field name) of each field default of
    a module-level dataclass in source; init=False fields are skipped."""
    tree = ast.parse(source)
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        if not is_dataclass(cls):
            continue
        fields = [node for node in cls.body
                  if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)]
        init_fields = [f for f in fields if not (
            isinstance(f.value, ast.Call) and any(
                k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False
                for k in f.value.keywords))]
        for index, f in enumerate(init_fields):
            if f.value is not None:
                name = f.target.id
                yield f"{module}.{cls.name}.{name}", cls.name, index, name


def is_left_unset(call_list, cls_name: str, index: int, field: str) -> bool:
    """Some construction of cls_name passes the field neither by position nor by keyword."""
    return any(not (field in keywords or spread or npos > index or starred)
               for name, npos, keywords, starred, spread in call_list if name == cls_name)


PARAMETERS = [p for path in LIBRARY
              for p in defaulted_parameters(path.read_text(), path.stem)]
CALLS = [c for path in CALLERS for c in calls(path.read_text())]
FIELDS = [f for path in LIBRARY for f in defaulted_fields(path.read_text(), path.stem)]


def test_parameters_are_listed():
    ids = {pid for pid, *_ in PARAMETERS}
    assert {"generators.gen_nbp(precision_bits)", "linalg.RMatrix.from_ints(den)",
            "reduce_to_minkowski.generalized_nbp(Q_override)",
            "lattice.svp_exact_linf(search_bound)"} <= ids


def test_scanner_reads_positions_keywords_and_spreads():
    params = list(defaulted_parameters(
        "def f(a, b=1, *, c=2):\n"
        "    def inner(x, _k=a):\n"
        "        return x\n"
        "class C:\n"
        "    def m(self, d=3):\n"
        "        pass\n"
        "    @staticmethod\n"
        "    def s(e=4):\n"
        "        pass\n", "mod"))
    assert [p[0] for p in params] == ["mod.f(b)", "mod.f(c)", "mod.C.m(d)", "mod.C.s(e)"]
    (_, _, b_index, _), _, (_, _, d_index, _), (_, _, e_index, _) = params
    assert (b_index, d_index, e_index) == (1, 0, 0)
    found = list(calls("f(1)\nobj.m(5)\ns(**opts)\nf(*args)\n"))
    assert not is_passed(found[:1], "f", 1, "b")
    assert is_passed(found, "f", 1, "b")  # f(*args)
    assert not is_passed(found, "f", None, "c")
    assert is_passed(found, "m", 0, "d")
    assert is_passed(found, "s", 0, "e")  # s(**opts)


@pytest.mark.parametrize("pid, fn_name, index, param", PARAMETERS,
                         ids=[p[0] for p in PARAMETERS])
def test_defaulted_parameter_has_a_caller_that_sets_it(pid, fn_name, index, param):
    assert is_passed(CALLS, fn_name, index, param), (
        f"{pid} is never passed in src/balancelat or perfbench/; only tests set it, "
        "so drop the parameter and keep its default"
    )


def test_fields_are_listed():
    assert "geometry.WellRoundResult.point" in {fid for fid, *_ in FIELDS}


def test_scanner_reads_dataclass_fields_and_constructions():
    fields = list(defaulted_fields(
        "from dataclasses import dataclass, field\n"
        "@dataclass(frozen=True)\n"
        "class D:\n"
        "    a: int\n"
        "    d: int = field(init=False)\n"
        "    b: str = 'x'\n"
        "    c: int = field(default=0)\n"
        "class Plain:\n"
        "    e: int = 1\n", "mod"))
    assert fields == [("mod.D.b", "D", 1, "b"), ("mod.D.c", "D", 2, "c")]
    found = list(calls("D(1, 'y')\nD(1, c=2)\n"))
    assert not is_left_unset(found[:1], "D", 1, "b")
    assert is_left_unset(found, "D", 1, "b")
    assert is_left_unset(found[:1], "D", 2, "c") and not is_left_unset(found[1:], "D", 2, "c")
    assert not is_left_unset(found, "Unbuilt", 0, "b")


@pytest.mark.parametrize("fid, cls_name, index, field", FIELDS, ids=[f[0] for f in FIELDS])
def test_dataclass_default_is_kept_by_some_construction(fid, cls_name, index, field):
    assert is_left_unset(CALLS, cls_name, index, field), (
        f"{fid} is set by every construction in src/balancelat and perfbench/; "
        "its default only lets tests leave it out, so make the field required"
    )
