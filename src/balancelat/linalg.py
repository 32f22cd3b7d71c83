"""Exact rational vectors and matrices.

Everything here is immutable and exact over ``fractions.Fraction``, so
identities such as M * solve(M, v) = v hold with literal equality.
Gram-Schmidt, determinant and linear solve run fraction-free on
denominator-cleared integers (de Weger's recurrence, Bareiss elimination),
and a matrix product multiplies the factors' integer numerators over one
common denominator each.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

from .errors import RankDeficient, Singular
from .rationals import common_denominator_ints, frac, lcm_of


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

    def __add__(self, other: "RVector") -> "RVector":
        self._check_dim(other)
        return RVector(a + b for a, b in zip(self.entries, other.entries))

    def __sub__(self, other: "RVector") -> "RVector":
        self._check_dim(other)
        return RVector(a - b for a, b in zip(self.entries, other.entries))

    def __neg__(self) -> "RVector":
        return RVector(-a for a in self.entries)

    def scale(self, c) -> "RVector":
        c = frac(c)
        return RVector(c * a for a in self.entries)

    def dot(self, other: "RVector") -> Fraction:
        self._check_dim(other)
        return sum((a * b for a, b in zip(self.entries, other.entries)), Fraction(0))

    def norm_sq(self) -> Fraction:
        return self.dot(self)

    def inf_norm(self) -> Fraction:
        return max((abs(a) for a in self.entries), default=Fraction(0))

    def _check_dim(self, other: "RVector") -> None:
        if len(self.entries) != len(other.entries):
            raise ValueError("dimension mismatch")

    @staticmethod
    def unit(n: int, i: int) -> "RVector":
        return RVector([1 if j == i else 0 for j in range(n)])


class RMatrix:
    """Immutable rectangular matrix over the exact rationals (row major)."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable]) -> None:
        data = tuple(tuple(frac(e) for e in row) for row in rows)
        if data and any(len(r) != len(data[0]) for r in data):
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", data)

    def __setattr__(self, name, value):
        raise AttributeError("RMatrix is immutable")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other) -> bool:
        return isinstance(other, RMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(e) for e in row) for row in self.rows)
        return f"RMatrix([{body}])"

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def column(self, j: int) -> RVector:
        return RVector(row[j] for row in self.rows)

    def transpose(self) -> "RMatrix":
        return RMatrix(zip(*self.rows)) if self.rows else RMatrix([])

    def matvec(self, v: RVector) -> RVector:
        if v.dim != self.ncols:
            raise ValueError("dimension mismatch")
        return RVector(
            sum((row[j] * v[j] for j in range(self.ncols)), Fraction(0))
            for row in self.rows
        )

    def matmul(self, other: "RMatrix") -> "RMatrix":
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        # each factor over one common denominator, the products on ints
        n, k, m = self.nrows, self.ncols, other.ncols
        a, da = common_denominator_ints(e for row in self.rows for e in row)
        b, db = common_denominator_ints(e for row in other.rows for e in row)
        rows = [a[i * k:(i + 1) * k] for i in range(n)]
        cols = [b[j::m] for j in range(m)]
        den = da * db
        return RMatrix([[Fraction(sum(map(mul, r, c)), den) for c in cols] for r in rows])

    def scale(self, c) -> "RMatrix":
        c = frac(c)
        return RMatrix([[c * e for e in row] for row in self.rows])

    @staticmethod
    def identity(n: int) -> "RMatrix":
        return RMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def from_columns(cols: Sequence[RVector]) -> "RMatrix":
        if not cols:
            return RMatrix([])
        n = cols[0].dim
        if any(c.dim != n for c in cols):
            raise ValueError("dimension mismatch")
        return RMatrix([[c[i] for c in cols] for i in range(n)])

    @staticmethod
    def diagonal(values) -> "RMatrix":
        vals = [frac(v) for v in values]
        n = len(vals)
        return RMatrix([[vals[i] if i == j else 0 for j in range(n)] for i in range(n)])


def gram_schmidt(basis: RMatrix) -> tuple[list[list[int]], int, list[int], list[list[int]]]:
    """Integral Gram-Schmidt of the columns b_j (de Weger 1987; Cohen, Alg. 2.6.7).

    Returns integers (c, F, d, lam): c_j = F b_j over the common denominator F
    of the entries, the Gram determinants d_0 = 1, d_i = det(<c_k, c_l>)_{k,l<i},
    and lam[k][j] = d_{j+1} mu_kj for j < k (zero elsewhere), where
    mu_kj = <b_k, bhat_j> / |bhat_j|^2; so |bhat_i|^2 = d_{i+1} / (d_i F^2).
    Every division is exact.  Raises RankDeficient when some d_{k+1} = 0.
    """
    if not basis.is_square():
        raise RankDeficient("basis matrix must be square")
    n = basis.ncols
    flat, scale = common_denominator_ints(e for row in basis.rows for e in row)
    cols = [flat[j::n] for j in range(n)]
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
    return cols, scale, d, lam


def _cleared_int_rows(m: RMatrix) -> tuple[list[list[int]], int]:
    """Multiply each row by its denominator lcm; return rows and the product of scales."""
    rows = []
    scale = 1
    for row in m.rows:
        den = lcm_of(e.denominator for e in row) if row else 1
        rows.append([e.numerator * (den // e.denominator) for e in row])
        scale *= den
    return rows, scale


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
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if not m.is_square():
        raise ValueError("determinant needs a square matrix")
    n = m.nrows
    if n == 0:
        return Fraction(1)
    a, scale = _cleared_int_rows(m)
    return Fraction(_bareiss(a, n) * a[n - 1][n - 1], scale)


def solve_linear(m: RMatrix, v: RVector) -> RVector:
    """Solve m * x = v exactly; raises Singular when det(m) = 0."""
    if not m.is_square():
        raise ValueError("solve_linear needs a square matrix")
    n = m.nrows
    if v.dim != n:
        raise ValueError("dimension mismatch")
    a, _ = _cleared_int_rows(RMatrix([list(m.rows[i]) + [v[i]] for i in range(n)]))
    if _bareiss(a, n) == 0 or a[n - 1][n - 1] == 0:
        raise Singular("coefficient matrix is singular")
    # back substitution over Fractions on the triangularized integer system
    x = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        rhs = Fraction(a[i][n])
        for j in range(i + 1, n):
            rhs -= a[i][j] * x[j]
        x[i] = rhs / a[i][i]
    return RVector(x)
