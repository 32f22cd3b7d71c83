#!/usr/bin/env python3
"""Which checks and refusals in src/ does the Tier-1 suite reach?

Copies the repository (without .git) to a temporary directory.  Then, one
site at a time, it replaces a ``raise InternalContradiction(...)``,
``raise OracleContractViolation(...)`` or ``raise PreconditionFailed(...)``
statement of the copy's src/ by ``pass`` and runs the suite on the copy
with ``-x``: first the test files whose source imports the mutated module,
then the rest, so that most mutants fail early.  A mutant that the suite
still passes is a survivor: no test reaches that check.  The working tree
is never edited.  Standard library only.

    python3 tools/check_survivors.py

Prints one line per site and the survivors at the end.  A survivor is
accepted when its (enclosing function, message prefix) is in ACCEPTED, a key
that outlives line moves.  Exits 1 when the unmutated copy fails the suite
or any survivor is not accepted, else 0.  A sweep takes minutes: the suite
runs once per site, stopping at its first failure; a run that takes longer
than TIMEOUT seconds (a mutant may loop forever) counts as killed.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CHECKS = {"InternalContradiction", "OracleContractViolation", "PreconditionFailed"}
TIMEOUT = 300  # seconds; one unmutated Tier-1 run takes about 22
LABELS = {"pass": "SURVIVED", "fail": "killed", "timeout": "killed (timeout)"}
# Survivors known and argued for: (enclosing function, message prefix).  The
# recombination identity holds for every y by construction, so no reply can
# reach it; it guards against an edit of the recombination arithmetic.
ACCEPTED = {("extended_range_balance", "recombination identity failed")}
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".perfbench_work",
                                ".hypothesis", "*.pyc")


def sites(src: Path) -> list[tuple[Path, ast.Raise, str]]:
    """Every ``raise <check>(...)`` statement under src with the name of its
    innermost enclosing function ("" at module level), in file and line order."""
    found = []

    def visit(path: Path, node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                and isinstance(node.exc.func, ast.Name) and node.exc.func.id in CHECKS):
            found.append((path, node, function))
        for child in ast.iter_child_nodes(node):
            visit(path, child, function)

    for path in sorted(src.rglob("*.py")):
        visit(path, ast.parse(path.read_bytes(), str(path)), "")
    return sorted(found, key=lambda s: (str(s[0]), s[1].lineno))


def message_prefix(node: ast.Raise) -> str:
    """The literal text that the raised check's message starts with: a string
    argument whole, an f-string up to its first replacement field."""
    args = node.exc.args
    parts = args[0].values if args and isinstance(args[0], ast.JoinedStr) else args[:1]
    prefix = ""
    for part in parts:
        if not (isinstance(part, ast.Constant) and isinstance(part.value, str)):
            break
        prefix += part.value
    return prefix


def accepted(function: str, prefix: str) -> bool:
    return any(function == f and prefix.startswith(p) for f, p in ACCEPTED)


def mutate(source: bytes, node: ast.Raise) -> bytes:
    """source with the raise statement replaced by ``pass``; line numbers stay put.

    ast column offsets count UTF-8 bytes, so the splice works on bytes.
    """
    lines = source.splitlines(keepends=True)
    start = sum(map(len, lines[:node.lineno - 1])) + node.col_offset
    end = sum(map(len, lines[:node.end_lineno - 1])) + node.end_col_offset
    return source[:start] + b"pass" + b"\n" * (node.end_lineno - node.lineno) + source[end:]


def imported_modules(path: Path) -> set[str]:
    """The balancelat modules that the source at path imports by name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_bytes(), str(path))):
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names if a.name.startswith("balancelat.")}
        elif isinstance(node, ast.ImportFrom) and node.module == "balancelat":
            found |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("balancelat."):
            found.add(node.module.split(".")[1])
    return found


def test_order(tests: Path, module: str) -> list[Path]:
    """Every test file under tests: those that import module first, test_<module>.py
    leading them, then the rest."""
    files = sorted(tests.rglob("test_*.py"))
    return sorted(files, key=lambda f: (module not in imported_modules(f),
                                        f.stem != f"test_{module}"))


def suite_passes(copy: Path, files: list[Path] | None = None) -> str:
    """'pass', 'fail' or 'timeout' for the Tier-1 suite run on the copy with -x,
    over the test files in the given order (default: pytest's own)."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    cmd += [str(f) for f in files or []]
    try:
        done = subprocess.run(cmd, cwd=copy, env=env, timeout=TIMEOUT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "pass" if done.returncode == 0 else "fail"


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="check_survivors_") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORE)
        if suite_passes(copy) != "pass":
            print("the unmutated suite does not pass; no sweep", file=sys.stderr)
            return 1
        todo = sites(copy / "src")
        survivors = []
        for i, (path, node, function) in enumerate(todo, 1):
            where = f"{path.relative_to(copy)}:{node.lineno} {function}: {message_prefix(node)!r}"
            original = path.read_bytes()
            path.write_bytes(mutate(original, node))
            try:
                outcome = suite_passes(copy, test_order(copy / "tests", path.stem))
            finally:
                path.write_bytes(original)
            if outcome == "pass":
                survivors.append((where, accepted(function, message_prefix(node))))
            print(f"[{i}/{len(todo)}] {where}: {LABELS[outcome]}", flush=True)
    print(f"{len(survivors)} of {len(todo)} checks survived:")
    for where, ok in survivors:
        print(f"  {where}{' (accepted)' if ok else ''}")
    new = [where for where, ok in survivors if not ok]
    if new:
        print(f"{len(new)} survivor(s) not in ACCEPTED", file=sys.stderr)
    return 1 if new else 0


if __name__ == "__main__":
    sys.exit(main())
