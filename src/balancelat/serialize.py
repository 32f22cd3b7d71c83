"""JSON document formats for instances, solutions, bases, and ellipsoids.

Exact rationals serialize as "p/q" strings ("p" when the denominator is 1);
generated dyadic instance entries serialize as exact terminating decimals.
Nothing here ever rounds: parse(format(x)) == x for every value.  Instances,
bases and an ellipsoid's A are read as integers over the lcm of their
entries' denominators (rationals.parse_over_lcm), with no Fraction per entry.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

from .errors import InvalidParams
from .geometry import ellipsoid_from_axes
from .lattice import LatticeBasis, UnimodularTransform
from .linalg import RMatrix, RVector
from .nbp import NbpInstance, NbpSolution
from .rationals import format_decimal_dyadic, format_rational, parse_over_lcm, parse_rational


def json_int(v, field: str, kind: str) -> int:
    """v if it is a JSON integer; a bool, float or string is refused, never truncated."""
    if type(v) is not int:
        raise InvalidParams(f"malformed {kind} document: {field} must be an integer")
    return v


def json_list(v, field: str, kind: str) -> list:
    """v if it is a JSON array; a string is refused, never read character by character."""
    if type(v) is not list:
        raise InvalidParams(f"malformed {kind} document: {field} must be a list")
    return v


def malformed(kind: str, exc: Exception) -> InvalidParams:
    """The error for a document a reader could not read; a KeyError names its field."""
    detail = f"missing field {exc.args[0]}" if isinstance(exc, KeyError) else exc
    return InvalidParams(f"malformed {kind} document: {detail}")


def instance_to_doc(inst: NbpInstance, precision_bits: int) -> dict:
    """Each entry as a decimal when it is a multiple of 2^-precision_bits, else as "p/q"."""
    den, entries = inst.den, []
    for p in inst.ints:
        if (p << precision_bits) % den == 0:
            entries.append(format_decimal_dyadic(p, den, precision_bits))
        else:
            entries.append(format_rational(Fraction(p, den)))
    return {"n": inst.n, "precision_bits": precision_bits, "a": entries}


def instance_from_doc(doc: dict) -> NbpInstance:
    try:
        n = json_int(doc["n"], "n", "instance")
        (ints,), den = parse_over_lcm([json_list(doc["a"], "a", "instance")])
    except (KeyError, TypeError, ValueError) as exc:
        raise malformed("instance", exc) from exc
    if len(ints) != n:
        raise InvalidParams("instance length disagrees with n")
    return NbpInstance.from_ints(ints, den)


def solution_to_doc(sol: NbpSolution) -> dict:
    return {
        "x": list(sol.x),
        "k": sol.coeff_bound,
        "error": format_rational(sol.error),
    }


def solution_from_doc(doc: dict) -> tuple[list[int], int, Fraction]:
    try:
        return (
            [json_int(v, "x", "solution") for v in json_list(doc["x"], "x", "solution")],
            json_int(doc["k"], "k", "solution"),
            parse_rational(doc["error"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise malformed("solution", exc) from exc


def basis_to_doc(basis: LatticeBasis) -> dict:
    n = basis.n
    return {
        "n": n,
        "columns": [
            [format_rational(e) for e in basis.B.column(j)] for j in range(n)
        ],
    }


def basis_from_doc(doc: dict) -> LatticeBasis:
    try:
        n = json_int(doc["n"], "n", "basis")
        cols, den = parse_over_lcm(json_list(col, "each column", "basis")
                                   for col in json_list(doc["columns"], "columns", "basis"))
    except (KeyError, TypeError, ValueError) as exc:
        raise malformed("basis", exc) from exc
    if len(cols) != n or any(len(c) != n for c in cols):
        raise InvalidParams("basis shape disagrees with n")
    return LatticeBasis(RMatrix.from_ints(zip(*cols), den))


def transform_to_doc(t: UnimodularTransform) -> dict:
    return {
        "U": [list(row) for row in t.U.ints],
        "U_inverse": [list(row) for row in t.Uinv.ints],
    }


def ellipsoid_to_doc(e: LatticeBasis) -> dict:
    return {"n": e.n, "A": [[format_rational(v) for v in row] for row in e.B.rows]}


def ellipsoid_from_doc(doc: dict) -> LatticeBasis:
    """The ellipsoid of the document's A, as the basis of A's columns; ``axes``
    and ``lengths`` are read only without A."""
    try:
        n = json_int(doc["n"], "n", "ellipsoid")
        if n < 1:
            raise InvalidParams("ellipsoid dimension must be >= 1")
        if "A" in doc:
            rows, den = parse_over_lcm(json_list(row, "each row of A", "ellipsoid")
                                       for row in json_list(doc["A"], "A", "ellipsoid"))
            a = RMatrix.from_ints(rows, den)
            if a.nrows != n or a.ncols != n:
                raise InvalidParams("ellipsoid shape disagrees with n")
            return LatticeBasis(a)
        if "axes" not in doc or "lengths" not in doc:
            raise InvalidParams("ellipsoid document needs A or axes+lengths")
        lengths = [parse_rational(v) for v in json_list(doc["lengths"], "lengths", "ellipsoid")]
        if len(lengths) != n:
            raise InvalidParams("ellipsoid shape disagrees with n")
        axes = [RVector([parse_rational(v) for v in json_list(ax, "each axis", "ellipsoid")])
                for ax in json_list(doc["axes"], "axes", "ellipsoid")]
        return ellipsoid_from_axes(axes, lengths)
    except (KeyError, TypeError, ValueError) as exc:
        raise malformed("ellipsoid", exc) from exc


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def loads(text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidParams(f"not valid JSON: {exc}") from exc
    except ValueError as exc:  # an integer literal past CPython's int() digit limit
        raise InvalidParams(
            f"not valid JSON: an integer has more than {sys.get_int_max_str_digits()} digits"
        ) from exc
    except RecursionError as exc:
        raise InvalidParams("not valid JSON: arrays or objects nested too deeply") from exc
