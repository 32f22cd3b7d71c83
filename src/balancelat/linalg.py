"""Exact rational vectors and matrices.

Everything here is immutable and exact, so identities such as
M * solve(M, v) = v hold with literal equality.  A vector holds
``fractions.Fraction`` entries; a matrix holds integer rows over one
denominator in lowest terms, and every matrix kernel runs on those integers:
a product is one integer product over the product of the denominators,
Gram-Schmidt is de Weger's integral recurrence, and determinant and linear
solve are Bareiss elimination with fraction-free back substitution.
Fractions are built only for a vector result or a Fraction view.  An integer
point is a plain int tuple, not an RVector: the ellipsoid form and the
unimodular transform evaluate it on a matrix's ``ints`` directly.  RVector
keeps what the library runs on it: a document's axes, the axis form, the
SVP oracle's reply, and ``matvec`` / ``solve_linear`` across them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable

from .errors import InvalidParams, RankDeficient
from .rationals import common_denominator_ints, frac


class RVector:
    """Immutable vector over the exact rationals."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable) -> None:
        object.__setattr__(self, "entries", tuple(frac(e) for e in entries))

    def __setattr__(self, name, value):
        raise AttributeError("RVector is immutable")

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i: int) -> Fraction:
        return self.entries[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, RVector) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"RVector([{', '.join(str(e) for e in self.entries)}])"

    def dot(self, other: "RVector") -> Fraction:
        self._check_dim(other)
        return sum((a * b for a, b in zip(self.entries, other.entries)), Fraction(0))

    def inf_norm(self) -> Fraction:
        return max((abs(a) for a in self.entries), default=Fraction(0))

    def _check_dim(self, other: "RVector") -> None:
        if len(self.entries) != len(other.entries):
            raise ValueError("dimension mismatch")


class RMatrix:
    """Immutable rectangular matrix over the exact rationals (row major).

    Held as integer rows ``ints`` over one denominator ``den >= 1`` in lowest
    terms: gcd(den, every entry) = 1.  The form is canonical, so two matrices
    are equal exactly when their ``(ints, den)`` are.  ``RMatrix(rows)`` takes
    outside values and coerces each through ``frac`` once;
    ``RMatrix.from_ints(rows, den)`` takes integer rows.  ``rows`` is a
    Fraction view, built on demand for documents and tests.
    """

    __slots__ = ("ints", "den")

    def __init__(self, rows: Iterable[Iterable]) -> None:
        data = [[frac(e) for e in row] for row in rows]
        den = lcm(*(e.denominator for row in data for e in row))
        # den is the lcm of lowest-terms denominators, so the form is in lowest terms
        self._set([[e.numerator * (den // e.denominator) for e in row] for row in data], den)

    @classmethod
    def from_ints(cls, rows: Iterable[Iterable[int]], den: int = 1) -> "RMatrix":
        """The matrix rows / den of integer rows; divides out the common gcd."""
        if den < 1:
            raise InvalidParams("matrix denominator must be >= 1")
        rows = [list(row) for row in rows]
        if den > 1:
            g = gcd(den, *(e for row in rows for e in row))
            if g > 1:
                rows = [[e // g for e in row] for row in rows]
                den //= g
        m = cls.__new__(cls)
        m._set(rows, den)
        return m

    def _set(self, rows: list[list[int]], den: int) -> None:
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows")
        object.__setattr__(self, "ints", tuple(map(tuple, rows)))
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RMatrix is immutable")

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        den = self.den
        return tuple(tuple(Fraction(e, den) for e in row) for row in self.ints)

    @property
    def nrows(self) -> int:
        return len(self.ints)

    @property
    def ncols(self) -> int:
        return len(self.ints[0]) if self.ints else 0

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return Fraction(self.ints[i][j], self.den)

    def __eq__(self, other) -> bool:
        return isinstance(other, RMatrix) and self.den == other.den and self.ints == other.ints

    def __hash__(self) -> int:
        return hash((self.ints, self.den))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(e) for e in row) for row in self.rows)
        return f"RMatrix([{body}])"

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def column(self, j: int) -> RVector:
        den = self.den
        return RVector(Fraction(row[j], den) for row in self.ints)

    def matvec(self, v: RVector) -> RVector:
        if v.dim != self.ncols:
            raise ValueError("dimension mismatch")
        x, dv = common_denominator_ints(v.entries)
        den = self.den * dv
        return RVector(Fraction(sum(map(mul, row, x)), den) for row in self.ints)

    def matmul(self, other: "RMatrix") -> "RMatrix":
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        cols = list(zip(*other.ints))
        product = [[sum(map(mul, r, c)) for c in cols] for r in self.ints]
        return RMatrix.from_ints(product, self.den * other.den)

    @staticmethod
    def identity(n: int) -> "RMatrix":
        return RMatrix.from_ints([[int(i == j) for j in range(n)] for i in range(n)])


def gram_schmidt(basis: RMatrix) -> tuple[list[list[int]], int, list[int], list[list[int]]]:
    """Integral Gram-Schmidt of the columns b_j (de Weger 1987; Cohen, Alg. 2.6.7).

    Returns integers (c, F, d, lam): c_j = F b_j over the matrix's denominator
    F = basis.den, the Gram determinants d_0 = 1, d_i = det(<c_k, c_l>)_{k,l<i},
    and lam[k][j] = d_{j+1} mu_kj for j < k (zero elsewhere), where
    mu_kj = <b_k, bhat_j> / |bhat_j|^2; so |bhat_i|^2 = d_{i+1} / (d_i F^2).
    Every division is exact.  Raises RankDeficient when some d_{k+1} = 0.
    """
    if not basis.is_square():
        raise RankDeficient("basis matrix must be square")
    n = basis.ncols
    cols = [list(c) for c in zip(*basis.ints)]
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]
    for k in range(n):
        for j in range(k + 1):
            t = sum(map(mul, cols[k], cols[j]))
            for i in range(j):
                t = (d[i + 1] * t - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = t
            elif t == 0:
                raise RankDeficient(f"column {k} is dependent on earlier columns")
            else:
                d[k + 1] = t
    return cols, basis.den, d, lam


def _bareiss(a: list[list[int]], n: int) -> int:
    """Triangularize the leading n x n block of the int rows ``a`` in place.

    Fraction-free (Bareiss) elimination: every division is exact, and
    a[n-1][n-1] ends as the determinant of the row-permuted block.  Columns
    past n (a right-hand side) are eliminated along.  Returns the sign of the
    row permutation, or 0 when a pivot column is zero on and below the
    diagonal, so the block is singular.
    """
    sign = 1
    prev = 1
    width = len(a[0])
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        akk = a[k][k]
        row_k = a[k]
        for i in range(k + 1, n):
            row_i = a[i]
            aik = row_i[k]
            for j in range(k + 1, width):
                row_i[j] = (row_i[j] * akk - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = akk
    return sign


def determinant(m: RMatrix) -> Fraction:
    """Exact determinant: Bareiss on the integer rows, over den^n."""
    if not m.is_square():
        raise ValueError("determinant needs a square matrix")
    n = m.nrows
    if n == 0:
        return Fraction(1)
    a = [list(row) for row in m.ints]
    return Fraction(_bareiss(a, n) * a[n - 1][n - 1], m.den**n)


def solve_linear(m: RMatrix, v: RVector) -> RVector:
    """Solve m * x = v exactly; raises RankDeficient when det(m) = 0.

    With m = A / den and v = w / dv, Bareiss triangularizes [A | den w];
    its last pivot D is +-det A, so every D x_i dv is an integer and back
    substitution runs on ints with exact division.
    """
    if not m.is_square():
        raise ValueError("solve_linear needs a square matrix")
    n = m.nrows
    if v.dim != n:
        raise ValueError("dimension mismatch")
    w, dv = common_denominator_ints(v.entries)
    a = [list(row) + [m.den * wi] for row, wi in zip(m.ints, w)]
    if _bareiss(a, n) == 0 or a[n - 1][n - 1] == 0:
        raise RankDeficient("coefficient matrix is singular")
    D = a[n - 1][n - 1]
    x = [0] * n  # x[i] = D times the solution of A x = den w
    for i in range(n - 1, -1, -1):
        row = a[i]
        x[i] = (D * row[n] - sum(map(mul, row[i + 1:n], x[i + 1:]))) // row[i]
    den = D * dv
    return RVector(Fraction(e, den) for e in x)
