"""LLL reduction, SVP enumeration in the max norm, and the operator
lower-bound certificate for reduced bases.

Every result is exact.  LLL and the SVP search run on integers, over common
denominators of the rational input, and keep the operation order of the
textbook Fraction algorithms, so they return the same bases and witnesses.
The reduction certificate (size-reduced and the Lovasz condition
|bhat_i|^2 <= 2 |bhat_{i+1}|^2) is then re-derived from a fresh integral
Gram-Schmidt of the output basis as literal integer inequalities, and the
unimodular transform, tracked alongside the swaps and size reductions together
with its inverse, is checked by exact matrix products.  A LatticeBasis is
eliminated once, when built, and every determinant check reads its ``det``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

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
from .rationals import format_rational, frac, lcm_of, sqrt_lower


@dataclass(frozen=True)
class LatticeBasis:
    """Full-rank basis; columns of B generate the lattice; det = det B, eliminated once."""

    B: RMatrix
    det: Fraction = field(init=False, compare=False)

    def __post_init__(self):
        if not self.B.rows:
            raise InvalidParams("basis dimension must be >= 1")
        if not self.B.is_square():
            raise RankDeficient("basis matrix must be square")
        object.__setattr__(self, "det", determinant(self.B))
        if self.det == 0:
            raise RankDeficient("basis matrix is singular")

    @property
    def n(self) -> int:
        return self.B.ncols


@dataclass(frozen=True)
class UnimodularTransform:
    """Integer matrix with determinant +-1, carried with its exact inverse.

    Checking that U and Uinv are integral and U Uinv = I is enough: then
    det U and det Uinv are integers with product 1, so |det U| = 1.
    """

    U: RMatrix
    Uinv: RMatrix

    def __post_init__(self):
        n = self.U.ncols
        if any(e.denominator != 1 for row in self.U.rows for e in row):
            raise PreconditionFailed("unimodular matrix must be integral")
        if any(e.denominator != 1 for row in self.Uinv.rows for e in row):
            raise PreconditionFailed("inverse of a unimodular matrix must be integral")
        if self.U.matmul(self.Uinv) != RMatrix.identity(n):
            raise PreconditionFailed("inverse does not match")

    def apply(self, x: RVector) -> RVector:
        return self.U.matvec(x)

    def apply_inverse(self, x: RVector) -> RVector:
        return self.Uinv.matvec(x)


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

    reduced = RMatrix([[Fraction(c[i], scale) for c in cols] for i in range(n)])
    u = RMatrix([[c[i] for c in u_cols] for i in range(n)])
    transform = UnimodularTransform(u, RMatrix(uinv_rows))
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
    for i in range(n):
        if basis.B.column(i).norm_sq() < 1:
            raise PreconditionFailed(f"column {i} has squared norm < 1")
    f2 = cert.scale**2
    for k in range(n):
        if 2**n * cert.d[k + 1] < cert.d[k] * f2:
            raise PreconditionFailed(
                f"Gram-Schmidt vector {k} violates the 2^(-n) lower bound"
            )
    return Fraction(1, 2 ** (3 * n))


def svp_exact_linf(
    basis: LatticeBasis,
    search_bound: Fraction | None = None,
    budget: int | None = None,
) -> tuple[int, ...]:
    """Exact shortest nonzero lattice vector in the max norm.

    Returns the coefficient vector y (w.r.t. the *input* basis) minimizing
    |B y|_inf.  Ties are broken by smallest Euclidean norm, then
    lexicographically on y.

    The search runs over an LLL-reduced basis B' = B U (Fincke-Pohst 1985,
    Schnorr-Euchner 1994).  Level l fixes y'_l given y'_{l+1..n}; the
    Gram-Schmidt data of B' turn |B' y'|^2 into a sum of per-level squares,
    so the integers y'_l that keep the partial sum within the radius form an
    interval around a centre.  The radius^2 starts at n v0^2, where v0 is the
    smallest max norm among the reduced columns (capped by ``search_bound``),
    and is clamped to min(n v0^2, n best^2) once a nonzero vector of max
    norm ``best`` has been seen.  The clamp loses nothing: every vector with
    max norm <= m has |v|_2^2 <= n m^2, and the optimum's max norm is at most
    every ``best`` seen and at most v0 (the reduced columns are lattice
    vectors; if the optimum misses a smaller ``search_bound``, the result is
    NotFound anyway).  So every vector that ties or beats the optimum lies
    inside the ball at every point of the search, and the minimum of the key
    (max norm, |v|_2^2, U y') over the ball is the minimum over the whole
    lattice, whatever order the ball is visited in.

    Each level visits its interval in zig-zag order, by distance from the
    centre, so short vectors come early and the radius shrinks sooner; a
    candidate outside the current radius ends its level, since the rest lie
    farther out.  All arithmetic is on integers: the reduced basis, the
    Gram-Schmidt coefficients and norms are scaled over common denominators,
    and the partial vector sum_{j >= l} y'_j b'_j is carried down the levels,
    so a leaf costs O(n) integer operations and U y' is formed only for a leaf
    that ties or beats the incumbent on (max norm, |v|_2^2).

    ``search_bound``, when given, must be a promised attainable max norm
    (e.g. 1 for a determinant <= 1 lattice, by Minkowski's theorem); NotFound
    is raised if the promise fails.  ``budget`` caps the visited nodes, leaves
    included; BudgetExceeded reports where the search stood.
    """
    limit = enumeration_budget(budget)
    n = basis.n
    reduced, transform, cert = lll_reduce(basis)

    # Integer encoding over the certificate: cols[j] = F b'_j, and for
    # D = lcm(d_1..d_n), E = lcm(d_0..d_{n-1}) the integers mu[l][j] = D mu_lj
    # = D lam[j][l] / d_{l+1} and gs[l] = E F^2 |bhat_l|^2 = E d_{l+1} / d_l make a
    # node's weight sum_l (D y'_l + c_l)^2 gs[l], c_l = sum_{j > l} mu[l][j] y'_j,
    # equal to S F^2 |B' y'|^2 for S = D^2 E.
    F, d, lam = cert.scale, cert.d, cert.lam
    flat = [e.numerator * (F // e.denominator) for row in reduced.B.rows for e in row]
    cols = [flat[j::n] for j in range(n)]
    D, E = lcm_of(d[1:]), lcm_of(d[:n])
    mu = [[lam[j][l] * (D // d[l + 1]) if j > l else 0 for j in range(n)] for l in range(n)]
    gs = [d[l + 1] * (E // d[l]) for l in range(n)]
    S = D * D * E
    u_rows = [[int(e) for e in row] for row in transform.U.rows]
    col_inf = Fraction(min(max(map(abs, c)) for c in cols), F)
    v0 = col_inf if search_bound is None else min(col_inf, frac(search_bound))

    radius = n * S * (v0.numerator * F) ** 2 // v0.denominator**2  # weights are ints
    best: tuple | None = None  # (F |v|_inf, F^2 |v|_2^2, U y') of the incumbent
    nodes = 1  # the root
    y = [0] * n

    def exceeded() -> BudgetExceeded:
        bound = v0 if best is None else min(v0, Fraction(best[0], F))
        radius_sq = n * bound * bound
        return BudgetExceeded(
            f"SVP enumeration exceeded budget: {nodes} nodes visited, limit {limit}, "
            f"dimension {n}, search radius^2 {format_rational(radius_sq)}"
        )

    def visit(level: int, weight: int, partial: list[int]) -> None:
        nonlocal best, nodes, radius
        c = sum(mu[level][j] * y[j] for j in range(level + 1, n))
        g = gs[level]
        # |D y + c| <= t, the largest t with t^2 g <= radius - weight; at 0
        # bits sqrt_lower is the exact floor square root of an integer
        t = int(sqrt_lower((radius - weight) // g, 0))
        lo, hi = -((t + c) // D), (t - c) // D
        left = -c // D  # floor of the centre -c/D; left <= hi and left + 1 >= lo
        right = left + 1
        col = cols[level]
        while True:
            if left >= lo and (right > hi or -c - left * D <= right * D + c):
                yv, left = left, left - 1
            elif right <= hi:
                yv, right = right, right + 1
            else:
                break
            d = D * yv + c
            child = weight + d * d * g
            if child > radius:  # the radius shrank; later candidates lie farther out
                break
            nodes += 1
            if nodes > limit:
                raise exceeded()
            y[level] = yv
            v = [a + yv * b for a, b in zip(partial, col)]
            if level:
                visit(level - 1, child, v)
                continue
            inf = max(map(abs, v))
            if inf == 0 or (best is not None and inf > best[0]):
                continue
            nsq = sum(a * a for a in v)
            if best is not None and (inf, nsq) > best[:2]:
                continue
            key = (inf, nsq, tuple(sum(u * yj for u, yj in zip(row, y)) for row in u_rows))
            if best is None or key < best:
                best = key
                radius = min(radius, n * inf * inf * S)
        y[level] = 0

    if nodes > limit:
        raise exceeded()
    visit(n - 1, 0, [0] * n)
    if best is None or (search_bound is not None and Fraction(best[0], F) > frac(search_bound)):
        raise NotFound("no nonzero lattice vector within the promised bound")
    return best[2]


def lattice_membership(basis: LatticeBasis, x: RVector) -> tuple[int, ...] | None:
    """Return integer coefficients y with B y = x, or None when x is no lattice point."""
    y = solve_linear(basis.B, x)
    if any(e.denominator != 1 for e in y):
        return None
    return tuple(int(e) for e in y)
