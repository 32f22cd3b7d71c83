"""Tooling guard: every defaulted parameter of the library is set by some caller.

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


PARAMETERS = [p for path in LIBRARY
              for p in defaulted_parameters(path.read_text(), path.stem)]
CALLS = [c for path in CALLERS for c in calls(path.read_text())]


def test_parameters_are_listed():
    ids = {pid for pid, *_ in PARAMETERS}
    assert {"generators.gen_nbp(precision_bits)", "linalg.RMatrix.from_ints(den)",
            "nbp.pigeonhole_solve(N)", "lattice.svp_exact_linf(search_bound)"} <= ids


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
