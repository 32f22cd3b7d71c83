"""External re-verification of balancelat reports, in exact arithmetic.

Nothing here imports balancelat: every document is parsed with
``fractions.Fraction`` and every claim is recomputed from the input document
the op read, so a bug shared by the library's own verifier cannot hide here.
Each check raises ``CheckFailed`` with a reason, or returns the value a
cross-check needs (the achieved error for balancing reports).
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction


class CheckFailed(Exception):
    """A report does not meet its contract."""


def _require(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckFailed(reason)


def read_instance(path: str) -> list[Fraction]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    a = [Fraction(s) for s in doc["a"]]
    _require(len(a) == doc["n"], "instance length disagrees with n")
    return a


def read_basis_columns(path: str) -> list[list[Fraction]]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return [[Fraction(s) for s in col] for col in doc["columns"]]


def read_ellipsoid_matrix(path: str) -> list[list[Fraction]]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return [[Fraction(s) for s in row] for row in doc["A"]]


def _solution(a: list[Fraction], sol: dict, k_max: int) -> Fraction:
    """Check a {x, k, error} document against instance a; return the error."""
    x = sol["x"]
    k = sol["k"]
    _require(all(type(v) is int for v in x), "x is not an integer vector")
    _require(len(x) == len(a), "x has the wrong dimension")
    _require(any(x), "x is the zero vector")
    _require(type(k) is int and 1 <= k <= k_max, f"declared k = {k} exceeds {k_max}")
    _require(max(abs(v) for v in x) <= k, "|x|_inf exceeds the declared k")
    error = abs(sum((ai * xi for ai, xi in zip(a, x)), Fraction(0)))
    _require(error == Fraction(sol["error"]), "reported error differs from |<a,x>|")
    return error


def check_solve(text: str, a: list[Fraction], k_max: int) -> Fraction:
    report = json.loads(text)
    error = _solution(a, report["solution"], k_max)
    _require(Fraction(report["achieved_error"]) == error, "achieved_error differs")
    bound = report["claimed_bound"]
    if bound is not None:
        _require(error <= Fraction(bound), "error exceeds the claimed bound")
    _require(report["bound_satisfied"] is True, "bound_satisfied is not true")
    return error


def check_to_nbp(text: str, a: list[Fraction], k_max: int) -> Fraction:
    report = json.loads(text)
    error = _solution(a, report["solution"], k_max)
    audit = report["audit"]
    _require(Fraction(audit["achieved_error"]) == error, "audit error differs")
    _require(error <= Fraction(audit["claimed_bound"]), "error exceeds the claimed bound")
    return error


def _det(rows: list[list[Fraction]]) -> Fraction:
    """Determinant by Gaussian elimination over Fraction."""
    m = [[Fraction(e) for e in r] for r in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


def _matmul(p: list[list], q: list[list]) -> list[list]:
    return [[sum(p[i][t] * q[t][j] for t in range(len(q))) for j in range(len(q[0]))]
            for i in range(len(p))]


def check_lll(text: str, columns: list[list[Fraction]]) -> None:
    report = json.loads(text)
    n = len(columns)
    b = [[columns[j][i] for j in range(n)] for i in range(n)]
    reduced_cols = [[Fraction(s) for s in col] for col in report["reduced"]["columns"]]
    reduced = [[reduced_cols[j][i] for j in range(n)] for i in range(n)]
    u = report["transform"]["U"]
    uinv = report["transform"]["U_inverse"]
    _require(all(type(e) is int for row in u + uinv for e in row), "U is not integral")
    _require(_matmul(b, u) == reduced, "B * U differs from the reduced basis")
    _require(abs(_det(u)) == 1, "|det U| != 1")
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    _require(_matmul(u, uinv) == eye, "U * U_inverse != I")
    _require(report["size_reduced"] is True and report["lovasz_ok"] is True,
             "a reduction flag is false")
    det_b = _det(b)
    _require(Fraction(report["det_input"]) == det_b, "det_input is wrong")
    _require(abs(Fraction(report["det_reduced"])) == abs(det_b), "det_reduced is wrong")


def check_to_minkowski(text: str, a_rows: list[list[Fraction]]) -> None:
    report = json.loads(text)
    x = report["x"]
    _require(all(type(v) is int for v in x), "x is not an integer vector")
    _require(len(x) == len(a_rows), "x has the wrong dimension")
    _require(any(x), "x is the zero vector")
    ax = [sum((r * v for r, v in zip(row, x)), Fraction(0)) for row in a_rows]
    quad = sum((e * e for e in ax), Fraction(0))
    rho = Fraction(report["rho_star"])
    _require(quad <= rho * rho, "x^T A^T A x exceeds rho*^2")
    _require(report["branch"] in ("integer-point", "pipeline"), "unknown branch")


EXACT = ("brute-force", "mitm")


def check_bench(text: str, sizes: list[int], seeds: int, algos: list[str]) -> None:
    """Every cell present and ok; exact solvers agree; heuristics never beat them."""
    rows = list(csv.DictReader(io.StringIO(text)))
    want = [(n, s, algo) for n in sorted(sizes) for s in range(seeds) for algo in sorted(algos)]
    got = [(int(r["n"]), int(r["seed"]), r["algorithm"]) for r in rows]
    _require(got == want, "bench rows differ from the requested sweep")
    for r in rows:
        _require(r["status"] == "ok", f"bench cell status {r['status']}")
        if r["bound"]:
            _require(Fraction(r["error"]) <= Fraction(r["bound"]), "bench error exceeds bound")
    for n in sizes:
        for s in range(seeds):
            errs = {r["algorithm"]: Fraction(r["error"]) for r in rows
                    if int(r["n"]) == n and int(r["seed"]) == s}
            exact = {errs[a] for a in EXACT if a in errs}
            _require(len(exact) <= 1, "brute-force and mitm disagree in bench")
            if exact:
                opt = exact.pop()
                _require(all(e >= opt for e in errs.values()), "a heuristic beat the optimum")
