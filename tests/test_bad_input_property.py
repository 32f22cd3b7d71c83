"""Property tests: a bad document or flag value never escapes the CLI as a
traceback.

Each document example takes a valid seeded document of one command, mutates
one field (or the whole document), and runs ``cli.main`` in process on it.
Each flag example runs one command, ``gen`` and ``bench`` included, on
valid seeded documents, with flag values drawn in and out of range: integers
for the integer flags (a value that is not one is argparse's usage error),
and lists with empty, repeated, unknown or out-of-range items for
``--sizes`` and ``--algos``.
Whatever the input, the command must exit 0, 2 or 3 without raising, and an
exit 3 must come with exactly one stderr line that starts ``error: ``.  The
mutations are the kinds of bad input the CLI has to refuse: a wrong type, a
huge or negative integer, deep nesting, odd strings ("1/0", "nan", 5 000
digits, Unicode digits), a missing key, a top level that is not an object,
and bytes that are not UTF-8.  The flag values stay small enough that every
run ends well inside the deadline: n <= 16 for instances, n <= 4 for
ellipsoids, and ``--Q`` from a short list, never the paper's 2^(4n).
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


@functools.cache
def sized_documents() -> dict:
    """Valid seeded instances at n <= 16 and ellipsoids at n <= 4, by slot name."""
    docs = {f"instance-{n}": _generate("gen", "nbp", "--n", str(n), "--seed", "5", "--signed")
            for n in (1, 2, 4, 9, 16)}
    docs.update({f"ellipsoid-{n}": _generate("gen", "ellipsoid", "--n", str(n), "--seed", "3")
                 for n in (1, 2, 3, 4)})
    return docs


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


def _run(argv: list[str], files: dict[str, bytes]) -> tuple[int, str]:
    """cli.main on argv, each file slot replaced by a path holding its bytes,
    with output to a scratch file; returns (exit code, stderr)."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"out": os.path.join(tmp, "out.json")}
        for slot, data in files.items():
            paths[slot] = os.path.join(tmp, f"{slot.lstrip('@')}.json")
            with open(paths[slot], "wb") as fh:
                fh.write(data)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([paths.get(a, a) for a in argv] + ["--out", paths["out"]])
    return code, err.getvalue()


def _assert_exit_and_message(code: int, err: str) -> None:
    assert code in (0, 2, 3)
    if code == 3:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err[:300]


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
    files = {kind: json.dumps(doc).encode("utf-8") for kind, doc in documents().items()}
    _assert_exit_and_message(*_run(argv, {**files, slot: data}))


def _ints(*values: int) -> list[str]:
    return [str(v) for v in values]


# each list leads with a valid value, which hypothesis draws most often, so
# that a command with several flags still often runs to its end
SEEDS = _ints(7, -1, 0, 1, 2**64 + 3)
K = _ints(1, -2, 0, 2, 3)
BITS = _ints(30, -3, 0, 1, 2, 64, 20_000)
SIZES = ["4", "", ",", "0", "-4", "1", "2", "16", "1,4,9", "16,-1", "2,,3", "9,9"]
ALGOS = ["kk", "", ",", ",,", "nope", "kk,nope", "mitm,pigeonhole", "brute-force,reduce-mink",
         "kk,mitm,pigeonhole,brute-force,reduce-mink"]

# (argv with a document slot named "@instance" or "@ellipsoid", {flag: values});
# a None value leaves the flag out, so its default runs, and True gives a switch
FLAG_COMMANDS = [
    (["gen", "nbp"], {"--n": _ints(9, -1, 0, 1, 2, 16), "--seed": SEEDS,
                      "--precision-bits": [None] + BITS, "--signed": [None, True]}),
    (["gen", "basis"], {"--n": _ints(4, -1, 0, 1, 2, 6), "--seed": SEEDS,
                        "--span": [None] + _ints(-1, 0, 1, 2, 99, 10**6)}),
    (["gen", "ellipsoid"], {"--n": _ints(3, -1, 0, 1, 2, 4), "--seed": SEEDS}),
    (["solve", "--input", "@instance"], {
        "--algo": ["brute-force", "mitm", "pigeonhole", "kk"], "--k": [None] + K,
        "--pigeons": [None] + _ints(-1, 0, 1, 2, 64, 4096)}),
    (["reduce", "to-nbp", "--input", "@instance"], {
        "--oracle": ["exact-mink", "exact-svp", "lll"], "--k": [None] + K}),
    (["reduce", "to-minkowski", "--input", "@ellipsoid"], {
        "--oracle": ["mitm", "kk", "pigeonhole"],
        "--Q": _ints(16, -4, 0, 1, 2, 3, 4, 6, 8)}),
    (["bench"], {"--sizes": SIZES, "--seeds": [None] + _ints(1, -1, 0, 2), "--algos": ALGOS,
                 "--k": [None] + K, "--precision-bits": [None] + BITS}),
]


@st.composite
def flag_cases(draw):
    """(argv, document files by slot) for one command with drawn flag values."""
    prefix, flags = draw(st.sampled_from(FLAG_COMMANDS))
    argv = list(prefix)
    for flag, values in flags.items():
        value = draw(st.sampled_from(values))
        if value is not None:
            argv += [flag] if value is True else [flag, value]
    files = {}
    for kind, sizes in (("instance", (1, 2, 4, 9, 16)), ("ellipsoid", (1, 2, 3, 4))):
        if f"@{kind}" in argv:
            doc = sized_documents()[f"{kind}-{draw(st.sampled_from(sizes))}"]
            files[f"@{kind}"] = json.dumps(doc).encode("utf-8")
    return argv, files


@settings(max_examples=150, deadline=3000, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(flag_cases())
def test_a_flag_value_exits_with_a_code_and_one_line(monkeypatch, case):
    monkeypatch.setenv("BALANCELAT_BUDGET", "20000")
    _assert_exit_and_message(*_run(*case))
