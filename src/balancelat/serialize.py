"""JSON document formats for instances, solutions, bases, and ellipsoids.

Exact rationals serialize as "p/q" strings ("p" when the denominator is 1);
generated dyadic instance entries serialize as exact terminating decimals.
Nothing here ever rounds: parse(format(x)) == x for every value.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .errors import InvalidParams
from .geometry import Ellipsoid
from .lattice import LatticeBasis, UnimodularTransform
from .linalg import RMatrix, RVector
from .nbp import NbpInstance, NbpSolution
from .rationals import format_decimal_dyadic, format_rational, parse_rational


def instance_to_doc(inst: NbpInstance, precision_bits: int = 30) -> dict:
    entries = []
    for e in inst.a:
        if (1 << precision_bits) % e.denominator == 0:
            entries.append(format_decimal_dyadic(e, precision_bits))
        else:
            entries.append(format_rational(e))
    return {"n": inst.n, "precision_bits": precision_bits, "a": entries}


def instance_from_doc(doc: dict) -> NbpInstance:
    try:
        n = int(doc["n"])
        values = [parse_rational(s) for s in doc["a"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidParams(f"malformed instance document: {exc}") from exc
    if len(values) != n:
        raise InvalidParams("instance length disagrees with n")
    return NbpInstance.from_values(values)


def solution_to_doc(sol: NbpSolution) -> dict:
    return {
        "x": list(sol.x),
        "k": sol.coeff_bound,
        "error": format_rational(sol.error),
    }


def solution_from_doc(doc: dict) -> tuple[list[int], int, Fraction]:
    try:
        return (
            [int(v) for v in doc["x"]],
            int(doc["k"]),
            parse_rational(doc["error"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidParams(f"malformed solution document: {exc}") from exc


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
        n = int(doc["n"])
        cols = [
            RVector([parse_rational(s) for s in col]) for col in doc["columns"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidParams(f"malformed basis document: {exc}") from exc
    if len(cols) != n or any(c.dim != n for c in cols):
        raise InvalidParams("basis shape disagrees with n")
    return LatticeBasis(RMatrix.from_columns(cols))


def transform_to_doc(t: UnimodularTransform) -> dict:
    return {
        "U": [[int(e) for e in row] for row in t.U.rows],
        "U_inverse": [[int(e) for e in row] for row in t.Uinv.rows],
    }


def ellipsoid_to_doc(e: Ellipsoid) -> dict:
    doc: dict[str, Any] = {
        "n": e.dim,
        "A": [[format_rational(v) for v in row] for row in e.A.rows],
    }
    if e.axes is not None:
        doc["axes"] = [[format_rational(v) for v in ax] for ax in e.axes]
        doc["lengths"] = [format_rational(v) for v in e.lengths]
    return doc


def ellipsoid_from_doc(doc: dict) -> Ellipsoid:
    try:
        n = int(doc["n"])
        axes = lengths = None
        if "axes" in doc and "lengths" in doc:
            axes = [RVector([parse_rational(v) for v in ax]) for ax in doc["axes"]]
            lengths = [parse_rational(v) for v in doc["lengths"]]
        if "A" in doc:
            a = RMatrix([[parse_rational(v) for v in row] for row in doc["A"]])
            if a.nrows != n:
                raise InvalidParams("ellipsoid shape disagrees with n")
            if axes is not None:
                return Ellipsoid(
                    a, axes=axes, lengths=lengths, orth_tolerance=Fraction(1, 2**20)
                )
            return Ellipsoid(a)
        if axes is None:
            raise InvalidParams("ellipsoid document needs A or axes+lengths")
        return Ellipsoid.from_axes(axes, lengths)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidParams(f"malformed ellipsoid document: {exc}") from exc


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def loads(text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidParams(f"not valid JSON: {exc}") from exc
