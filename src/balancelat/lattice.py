"""LLL reduction, SVP enumeration in the max norm, and the operator
lower-bound certificate for reduced bases.

Every result is exact.  A basis matrix is held as integer rows over one
denominator (``RMatrix.ints``, ``RMatrix.den``), and LLL and the SVP search
read those integers directly; they keep the operation order of the textbook
Fraction algorithms, so they return the same bases and witnesses.  Both read
the integral Gram-Schmidt data d_i and lam_kj (de Weger 1987; Cohen, Alg.
2.6.7): LLL keeps them up to date, and the SVP search weighs each node by the
integer d_l |pi_l(p)|^2 of its partial vector p, so its operands stay near
the size of the d_i.  It prunes each level by the l2 ball around the cube
of its max-norm radius and by a max-norm cut on the same coordinate; the
radius is one integer, so neither test needs a Fraction, and neither loses
a vector that ties or beats the optimum (``svp_exact_linf``).  The
reduction certificate (size-reduced and the Lovasz
condition |bhat_i|^2 <= 2 |bhat_{i+1}|^2) is then re-derived from a fresh
integral Gram-Schmidt of the output basis as literal integer inequalities,
and the unimodular transform, tracked alongside the swaps and size
reductions together with its inverse, is checked by exact integer matrix
products: integrality is denominator 1, and B U = B' and U U^-1 = I compare
integer forms.  The transform maps integer tuples to integer tuples on U's
integer rows.  A LatticeBasis is eliminated once, when built, and every
determinant check reads its ``det``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Sequence

from .errors import (
    BudgetExceeded,
    InternalContradiction,
    InvalidParams,
    NotFound,
    PreconditionFailed,
    RankDeficient,
)
from .linalg import RMatrix, RVector, determinant, gram_schmidt, solve_linear
from .nbp import enumeration_budget
from .rationals import format_rational, frac, sqrt_lower


@dataclass(frozen=True)
class LatticeBasis:
    """Full-rank basis; columns of B generate the lattice; det = det B, eliminated once."""

    B: RMatrix
    det: Fraction = field(init=False, compare=False)

    def __post_init__(self):
        if not self.B.ints:
            raise InvalidParams("basis dimension must be >= 1")
        if not self.B.is_square():
            raise RankDeficient("basis matrix must be square")
        object.__setattr__(self, "det", determinant(self.B))
        if self.det == 0:
            raise RankDeficient("basis matrix is singular")

    @property
    def n(self) -> int:
        return self.B.ncols

    def quad(self, x: Sequence[int]) -> Fraction:
        """The exact value |B x|_2^2 at the integer point x.

        With B = ints / den it is sum_r (ints_r . x)^2 / den^2: integer
        arithmetic and one Fraction.
        """
        if len(x) != self.n:
            raise InvalidParams("dimension mismatch")
        return Fraction(sum(sum(map(mul, row, x)) ** 2 for row in self.B.ints), self.B.den**2)


@dataclass(frozen=True)
class UnimodularTransform:
    """Integer matrix with determinant +-1, carried with its exact inverse.

    Checking that U and Uinv are integral (denominator 1) and U Uinv = I is
    enough: then det U and det Uinv are integers with product 1, so
    |det U| = 1.
    """

    U: RMatrix
    Uinv: RMatrix

    def __post_init__(self):
        n = self.U.ncols
        if self.U.den != 1:
            raise PreconditionFailed("unimodular matrix must be integral")
        if self.Uinv.den != 1:
            raise PreconditionFailed("inverse of a unimodular matrix must be integral")
        if self.U.matmul(self.Uinv) != RMatrix.identity(n):
            raise PreconditionFailed("inverse does not match")

    def apply(self, y: Sequence[int]) -> tuple[int, ...]:
        """The integer point U y, on U's integer rows."""
        if len(y) != self.U.ncols:
            raise InvalidParams("dimension mismatch")
        return tuple(sum(map(mul, row, y)) for row in self.U.ints)


@dataclass(frozen=True)
class LllCertificate:
    """Integral Gram-Schmidt data of a basis plus the two condition flags.

    ``scale``, ``d`` and ``lam`` are the F, d and lam of ``linalg.gram_schmidt``:
    |bhat_i|^2 = d_{i+1} / (d_i F^2) and mu_kj = lam[k][j] / d_{j+1}.
    """

    scale: int
    d: tuple[int, ...]
    lam: tuple[tuple[int, ...], ...]
    size_reduced: bool
    lovasz_ok: bool


def check_reduction_conditions(basis: RMatrix) -> LllCertificate:
    """Evaluate both reduction conditions exactly on the given basis.

    On a fresh integral Gram-Schmidt of ``basis`` both are integer inequalities:
    |mu_kj| <= 1/2 is 2 |lam_kj| <= d_{j+1}, and the factor-2 Lovasz condition
    |bhat_i|^2 <= 2 |bhat_{i+1}|^2 is d_{i+1}^2 <= 2 d_i d_{i+2}.
    """
    _, scale, d, lam = gram_schmidt(basis)
    n = basis.ncols
    size_ok = all(2 * abs(lam[k][j]) <= d[j + 1] for k in range(n) for j in range(k))
    lovasz_ok = all(d[i + 1] ** 2 <= 2 * d[i] * d[i + 2] for i in range(n - 1))
    return LllCertificate(scale, tuple(d), tuple(map(tuple, lam)), size_ok, lovasz_ok)


def lll_reduce(basis: LatticeBasis) -> tuple[LatticeBasis, UnimodularTransform, LllCertificate]:
    """LLL-reduce the basis, returning (reduced, U, certificate).

    reduced.B = basis.B * U exactly, |det U| = 1, and the certificate's two
    flags are both True.  Uses the standard Lovasz parameter delta = 3/4.

    The reduction runs on integers (de Weger 1987; Cohen, Alg. 2.6.7): it
    takes ``linalg.gram_schmidt`` of the columns over their common denominator
    F, which changes no decision, once, and keeps its d_i and lam_kj up to
    date: a size reduction updates lam in O(k) and a swap updates d and lam in
    O(n) with exact integer division.  The order of operations is the textbook
    one: b_k is fully size-reduced against b_{k-1}, ..., b_0, each by
    r = floor(mu_kj + 1/2) when r != 0, before the Lovasz test, so the same
    basis and U come out as from the Fraction version.  The result is then
    verified independently of that state: the certificate comes from a fresh
    integral Gram-Schmidt of the output basis, and B U = B' and U U^-1 = I
    are checked by exact matrix products.
    """
    n = basis.n
    cols, scale, d, lam = gram_schmidt(basis.B)  # cols[j] = F b_j
    u_cols = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    uinv_rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    k = 1
    while k < n:
        lam_k = lam[k]
        for j in range(k - 1, -1, -1):
            dj = d[j + 1]
            r = (2 * lam_k[j] + dj) // (2 * dj)  # floor(mu_kj + 1/2)
            if r != 0:
                cols[k] = [a - r * b for a, b in zip(cols[k], cols[j])]
                u_cols[k] = [a - r * b for a, b in zip(u_cols[k], u_cols[j])]
                # column op on U is the inverse row op on Uinv
                uinv_rows[j] = [a + r * b for a, b in zip(uinv_rows[j], uinv_rows[k])]
                lam_j = lam[j]
                for i in range(j):
                    lam_k[i] -= r * lam_j[i]
                lam_k[j] -= r * dj
        # Lovasz, delta = 3/4: |bhat_k|^2 >= (3/4 - mu_{k,k-1}^2) |bhat_{k-1}|^2,
        # times 4 d_k d_{k-1}; it yields |bhat_i|^2 <= 2 |bhat_{i+1}|^2 on exit
        if 4 * d[k + 1] * d[k - 1] >= 3 * d[k] ** 2 - 4 * lam_k[k - 1] ** 2:
            k += 1
            continue
        cols[k], cols[k - 1] = cols[k - 1], cols[k]
        u_cols[k], u_cols[k - 1] = u_cols[k - 1], u_cols[k]
        uinv_rows[k], uinv_rows[k - 1] = uinv_rows[k - 1], uinv_rows[k]
        # Cohen's SWAP(k); lam[k][k-1] keeps its value
        q = lam_k[k - 1]
        d_new = (d[k - 1] * d[k + 1] + q * q) // d[k]
        for j in range(k - 1):
            lam_k[j], lam[k - 1][j] = lam[k - 1][j], lam_k[j]
        for i in range(k + 1, n):
            lam_i = lam[i]
            t = lam_i[k]
            lam_i[k] = (d[k + 1] * lam_i[k - 1] - q * t) // d[k]
            lam_i[k - 1] = (d_new * t + q * lam_i[k]) // d[k + 1]
        d[k] = d_new
        k = max(k - 1, 1)

    reduced = RMatrix.from_ints(zip(*cols), scale)
    u = RMatrix.from_ints(zip(*u_cols))
    transform = UnimodularTransform(u, RMatrix.from_ints(uinv_rows))
    cert = check_reduction_conditions(reduced)
    if not (cert.size_reduced and cert.lovasz_ok):
        raise InternalContradiction("LLL output fails the reduction conditions")
    if basis.B.matmul(u) != reduced:
        raise InternalContradiction("LLL output differs from the input basis times U")
    return LatticeBasis(reduced), transform, cert


def lll_min_gain(basis: LatticeBasis, cert: LllCertificate) -> Fraction:
    """Certified squared-gain lower bound 2^(-3n) for a reduced basis.

    Requires the basis to be LLL reduced with |b_i|^2 >= 1 for all columns.
    Its certificate ``cert`` re-verifies |bhat_k|^2 >= 2^(-n), on its integers
    2^n d_{k+1} >= d_k F^2, for every k before certifying that
    |B x|_2^2 >= 2^(-3n) |x|_2^2 for all x.  The squared form is returned
    because 2^(-3n/2) itself is irrational for odd n; callers that need the
    unsquared gain may take any rational r with r^2 <= the returned value.
    """
    n = basis.n
    if not (cert.size_reduced and cert.lovasz_ok):
        raise PreconditionFailed("basis is not LLL reduced")
    b = basis.B
    for i in range(n):
        if sum(row[i] ** 2 for row in b.ints) < b.den**2:
            raise PreconditionFailed(f"column {i} has squared norm < 1")
    f2 = cert.scale**2
    for k in range(n):
        if 2**n * cert.d[k + 1] < cert.d[k] * f2:
            raise PreconditionFailed(
                f"Gram-Schmidt vector {k} violates the 2^(-n) lower bound"
            )
    return Fraction(1, 2 ** (3 * n))


def gram_schmidt_vectors(
    cols: Sequence[Sequence[int]], d: Sequence[int], lam: Sequence[Sequence[int]]
) -> list[list[int]]:
    """The integer vectors w_l = d_l chat_l of integer columns c_l with integral
    Gram-Schmidt data d, lam (``linalg.gram_schmidt``), chat_l the Gram-Schmidt
    vector of c_l.

    Fraction-free: from u = c_l, u <- (d_{i+1} u - lam[l][i] w_i) / d_i for
    i < l keeps u = d_{i+1} (c_l - sum_{j <= i} mu_lj chat_j), which is
    integral, so every division is exact and u ends as w_l.
    """
    w: list[list[int]] = []
    for l, u in enumerate(cols):
        for i in range(l):
            di, di1, li = d[i], d[i + 1], lam[l][i]
            u = [(di1 * a - li * b) // di for a, b in zip(u, w[i])]
        w.append(list(u))
    return w


def svp_exact_linf(basis: LatticeBasis, search_bound: Fraction) -> tuple[int, ...]:
    """Exact shortest nonzero lattice vector in the max norm.

    Returns the coefficient vector y (w.r.t. the *input* basis) minimizing
    |B y|_inf.  Ties are broken by smallest Euclidean norm, then
    lexicographically on y.

    The search runs over an LLL-reduced basis B' = B U (Fincke-Pohst 1985,
    Schnorr-Euchner 1994).  Level l fixes y'_l given y'_{l+1..n}.  The
    Gram-Schmidt data of B' turn |B' y'|^2 into a sum of per-level squares,
    so the integers y'_l that keep the partial sum within a ball form an
    interval around a centre; a max-norm cut narrows that interval to the
    part whose vectors can still lie in the cube.  Both are sized by one
    integer m, F times a max norm (F = the reduced basis's denominator): it
    starts at the floor of F min(v0, ``search_bound``), where v0 is the
    smallest max norm among the reduced columns, and drops to F best once a
    nonzero vector of smaller max norm ``best`` has been seen.  Every vector
    that ties or beats the optimum has F |v|_inf <= m at every point of the
    search: F |v|_inf is an integer, so flooring loses none, the reduced
    columns are lattice vectors, and if the optimum misses a smaller
    ``search_bound`` the result is NotFound anyway.  Such a vector lies in
    the ball |v|_2^2 <= n (m/F)^2 and passes every level's cut (below).
    Ball and cut are symmetric under v -> -v, so the walk visits one vector
    of each +-pair: while no y'_j above level l is nonzero (``lead``), the
    centre is 0 and the level keeps y'_l <= 0.  As v and -v tie on max norm
    and |v|_2^2, the minimum of the key (max norm, |v|_2^2, min(U y', -U y'))
    over the half walk, in any order, is the minimum of (max norm, |v|_2^2,
    U y') over the whole lattice.

    All arithmetic is on integers, from the integral Gram-Schmidt data of the
    LLL certificate (de Weger 1987; Cohen, Alg. 2.6.7).  A node at level l
    with partial vector p = sum_{j >= l} y'_j c_j, c_j = F b'_j, has the
    integer weight W_l = d_l |pi_l(p)|^2 (the Gram determinant of
    c_0..c_{l-1}, p), and d_{l+1} W_l = d_l W_{l+1} + T_l^2 for
    T_l = d_{l+1} y'_l + sum_{j > l} lam[j][l] y'_j.  The ball test
    W_l <= n m^2 d_l reads T_l^2 <= n m^2 d_l d_{l+1} - d_l W_{l+1}: the
    textbook test times a positive integer.  The cut: T_l = <c, w_l> for
    every completion c = p + sum_{j < l} y'_j c_j = F B' y' of the node,
    where w_l = d_l chat_l is the integer vector of ``gram_schmidt_vectors``
    (chat_l is orthogonal to c_j for j < l), so |T_l| <= |c|_inf |w_l|_1,
    and |T_l| <= m |w_l|_1 for every completion with |c|_inf <= m.  The
    interval is |T_l| <= min(floor sqrt(n m^2 d_l d_{l+1} - d_l W_{l+1}),
    m |w_l|_1); the caps and cuts are recomputed only when m drops.

    Each level visits its interval in zig-zag order, by |T_l|, that is by
    distance from the centre, so short vectors come early and m drops
    sooner; a candidate outside the current ball or cut ends its level, since
    the rest have a larger |T_l|.  p is carried down the levels, so a leaf
    costs O(n) integer operations, and U y' is formed only for a leaf that
    ties or beats the incumbent on (max norm, |v|_2^2).  The w_l cost
    O(n^3) integer operations once per call.

    ``search_bound`` is always given: a promised attainable max norm (e.g. 1
    for a determinant <= 1 lattice, by Minkowski's theorem).  NotFound is
    raised if the promise fails, and a negative bound is refused.  A bound
    at or above v0 promises nothing and leaves the search as it is without
    one.  ``enumeration_budget()`` caps the visited nodes, leaves included;
    BudgetExceeded reports where the search stood.
    """
    search_bound = frac(search_bound)
    if search_bound < 0:
        raise InvalidParams("search bound must be >= 0")
    limit = enumeration_budget()
    n = basis.n
    reduced, transform, cert = lll_reduce(basis)

    F, d, lam = cert.scale, cert.d, cert.lam  # F = reduced.B.den
    cols = [list(c) for c in zip(*reduced.B.ints)]  # c_j = F b'_j
    # lam_col[l][j] = lam[j][l] for j > l; y'_j = 0 for j <= l on entering level l
    lam_col = [[lam[j][l] if j > l else 0 for j in range(n)] for l in range(n)]
    u_rows = transform.U.ints
    norms_1 = [sum(map(abs, w)) for w in gram_schmidt_vectors(cols, d, lam)]
    # F times the smallest column max norm, capped by F search_bound
    m = min(min(max(map(abs, c)) for c in cols), math.floor(F * search_bound))

    def bounds(m: int) -> tuple[list[int], list[int]]:
        # caps n m^2 d_l d_{l+1}: T_l^2 <= cap_l - d_l W_{l+1} is W_l <= n m^2 d_l;
        # cuts m |w_l|_1 >= |T_l| for every completion c with |c|_inf <= m
        return [n * m * m * d[l] * d[l + 1] for l in range(n)], [m * w for w in norms_1]

    cap, cut = bounds(m)
    best: tuple | None = None  # (F |v|_inf, F^2 |v|_2^2, U y') of the incumbent
    nodes = 1  # the root
    y = [0] * n

    def exceeded() -> BudgetExceeded:
        radius_sq = n * Fraction(m, F) ** 2
        return BudgetExceeded(
            f"SVP enumeration exceeded budget: {nodes} nodes visited, limit {limit}, "
            f"dimension {n}, search radius^2 {format_rational(radius_sq)}"
        )

    def visit(level: int, weight: int, partial: list[int], lead: bool) -> None:
        nonlocal best, nodes, m, cap, cut
        s = sum(map(mul, lam_col[level], y))  # 0 unless lead
        dn = d[level + 1]
        dw = d[level] * weight  # d_l W_{l+1}
        # |T| <= t: the largest t with t^2 <= cap - d_l W_{l+1}, at most the cut;
        # at 0 bits sqrt_lower is the exact floor square root of an integer
        t = min(int(sqrt_lower(cap[level] - dw, 0)), cut[level])
        m_entry = m
        lo, hi = -((t + s) // dn), ((t - s) // dn if lead else 0)  # y'_l <= 0 unless lead
        left = -s // dn  # floor of the centre -s/d_{l+1}; left <= hi and left + 1 >= lo
        right = left + 1
        col = cols[level]
        while True:
            if left >= lo and (right > hi or -s - left * dn <= right * dn + s):
                yv, left = left, left - 1
            elif right <= hi:
                yv, right = right, right + 1
            else:
                break
            T = dn * yv + s
            # |T| <= t passes both tests until m drops; then a failing candidate
            # ends the level, since later ones have a larger |T|
            if m < m_entry and (T * T > cap[level] - dw or abs(T) > cut[level]):
                break
            nodes += 1
            if nodes > limit:
                raise exceeded()
            y[level] = yv
            v = [a + yv * b for a, b in zip(partial, col)] if yv else partial
            if level:
                visit(level - 1, (dw + T * T) // dn, v, lead or yv != 0)
                continue
            inf = max(map(abs, v))
            if inf == 0 or (best is not None and inf > best[0]):
                continue
            nsq = (dw + T * T) // dn  # W_0 = |v|^2, as d_0 = 1
            if best is not None and (inf, nsq) > best[:2]:
                continue
            uy = tuple(sum(map(mul, row, y)) for row in u_rows)
            key = (inf, nsq, min(uy, tuple(-e for e in uy)))  # -v ties v on (inf, nsq)
            if best is None or key < best:
                best = key
                if inf < m:
                    m = inf
                    cap, cut = bounds(m)
        y[level] = 0

    visit(n - 1, 0, [0] * n, False)
    if best is None or Fraction(best[0], F) > search_bound:
        raise NotFound("no nonzero lattice vector within the promised bound")
    return best[2]


def lattice_membership(basis: LatticeBasis, x: RVector) -> tuple[int, ...] | None:
    """Return integer coefficients y with B y = x, or None when x is no lattice point."""
    y = solve_linear(basis.B, x)
    if any(e.denominator != 1 for e in y):
        return None
    return tuple(int(e) for e in y)
