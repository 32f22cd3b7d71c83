"""Property test: a bad document never escapes the CLI as a traceback.

Each example takes a valid seeded document of one command, mutates one
field (or the whole document), and runs ``cli.main`` in process on it.
Whatever the mutation, the command must exit 0, 2 or 3 without raising,
and an exit 3 must come with exactly one stderr line that starts
``error: ``.  The mutations are the kinds of bad input the CLI has to
refuse: a wrong type, a huge or negative integer, deep nesting, odd
strings ("1/0", "nan", 5 000 digits, Unicode digits), a missing key, a
top level that is not an object, and bytes that are not UTF-8.
"""

import contextlib
import functools
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from balancelat.cli import main

SENTINEL = "\x00mutation\x00"

# raw JSON text put in place of one value
FRAGMENTS = [
    "[]", "{}", "true", "null", "1.5", '"abc"', "-5", "-1000000000000000000000000000000",
    "1" + "0" * 400, '"1' + "0" * 400 + '"', "[" * 5000 + "]" * 5000,
    '"1/0"', '"nan"', '"NaN"', '"-inf"', '"' + "7" * 5000 + '"', '"١٢"',
    '"１/２"', '"½"', '"1e999999"', "9" * 5000,
]


def _generate(*argv: str) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "doc.json")
        assert main([*argv, "--out", out]) == 0
        with open(out, encoding="utf-8") as fh:
            return json.load(fh)


@functools.cache
def documents() -> dict:
    """The valid seeded document of each kind, generated on first use."""
    with tempfile.TemporaryDirectory() as tmp:
        inst = _generate("gen", "nbp", "--n", "9", "--seed", "5")
        path = os.path.join(tmp, "i.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(inst, fh)
        solution = _generate("solve", "--algo", "mitm", "--input", path)["solution"]
    return {
        "instance": inst,
        "solution": solution,
        "basis": _generate("gen", "basis", "--n", "3", "--seed", "1"),
        "ellipsoid": _generate("gen", "ellipsoid", "--n", "2", "--seed", "3"),
    }


# (argv with each document slot named by its kind, the slot the mutation hits)
COMMANDS = [
    (["solve", "--algo", "mitm", "--input", "instance"], "instance"),
    (["verify", "--instance", "instance", "--solution", "solution"], "instance"),
    (["verify", "--instance", "instance", "--solution", "solution"], "solution"),
    (["lll", "--input", "basis"], "basis"),
    (["reduce", "to-nbp", "--oracle", "exact-svp", "--k", "2", "--input", "instance"],
     "instance"),
    (["reduce", "to-nbp", "--oracle", "exact-mink", "--full", "--input", "instance"],
     "instance"),
    (["reduce", "to-minkowski", "--oracle", "mitm", "--Q", "16", "--input", "ellipsoid"],
     "ellipsoid"),
]


def _locations(value, path=()):
    """Every path to a value inside a parsed document, the root included."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _locations(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _locations(item, path + (i,))


def _replace(doc, path, new):
    if not path:
        return new
    head, rest = path[0], path[1:]
    if isinstance(doc, dict):
        return {**doc, head: _replace(doc[head], rest, new)}
    return [_replace(item, rest, new) if i == head else item for i, item in enumerate(doc)]


def _drop(doc, path):
    head, rest = path[0], path[1:]
    if not rest:
        if isinstance(doc, dict):
            return {key: item for key, item in doc.items() if key != head}
        return [item for i, item in enumerate(doc) if i != head]
    if isinstance(doc, dict):
        return {**doc, head: _drop(doc[head], rest)}
    return [_drop(item, rest) if i == head else item for i, item in enumerate(doc)]


@st.composite
def mutated_cases(draw):
    """(argv template, the mutated slot, the mutated document's bytes)."""
    argv, slot = draw(st.sampled_from(COMMANDS))
    doc = documents()[slot]
    path = draw(st.sampled_from(list(_locations(doc))))
    kind = draw(st.sampled_from(["fragment", "drop", "not-utf-8"]))
    if kind == "drop" and path:
        text = json.dumps(_drop(doc, path))
    else:
        text = json.dumps(_replace(doc, path, SENTINEL)).replace(
            json.dumps(SENTINEL), draw(st.sampled_from(FRAGMENTS)))
    data = text.encode("utf-8")
    if kind == "not-utf-8":
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + data[cut:]
    return argv, slot, data


@settings(max_examples=150, deadline=3000, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(mutated_cases())
def test_a_mutated_document_exits_with_a_code_and_one_line(monkeypatch, case):
    monkeypatch.setenv("BALANCELAT_BUDGET", "20000")  # the same for every example
    argv, slot, data = case
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"out": os.path.join(tmp, "out.json")}
        for kind, doc in documents().items():
            paths[kind] = os.path.join(tmp, f"{kind}.json")
            with open(paths[kind], "wb") as fh:
                fh.write(data if kind == slot else json.dumps(doc).encode("utf-8"))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([paths.get(a, a) for a in argv] + ["--out", paths["out"]])
    assert code in (0, 2, 3)
    if code == 3:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()[:300]
