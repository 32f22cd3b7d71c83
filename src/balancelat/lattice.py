"""Exact-rational LLL reduction, SVP enumeration in the max norm, and the
operator lower-bound certificate for reduced bases.

All arithmetic is over Fraction, so the reduction certificate (size-reduced
and the Lovasz condition |bhat_i|^2 <= 2 |bhat_{i+1}|^2) is checked as literal
inequalities in Q, and the unimodular transform is tracked alongside the swaps
and size reductions together with its inverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BudgetExceeded,
    InternalContradiction,
    NotFound,
    PreconditionFailed,
    RankDeficient,
)
from .linalg import RMatrix, RVector, determinant, gram_schmidt, solve_linear
from .nbp import enumeration_budget
from .rationals import common_denominator_ints, floor_frac, format_rational, frac, sqrt_lower

LOVASZ_DELTA = Fraction(3, 4)  # yields |bhat_i|^2 <= 2 |bhat_{i+1}|^2 on exit


@dataclass(frozen=True)
class LatticeBasis:
    """Full-rank basis; columns of B generate the lattice."""

    B: RMatrix

    def __post_init__(self):
        if not self.B.is_square():
            raise RankDeficient("basis matrix must be square")
        if determinant(self.B) == 0:
            raise RankDeficient("basis matrix is singular")

    @property
    def n(self) -> int:
        return self.B.ncols


@dataclass(frozen=True)
class UnimodularTransform:
    """Integer matrix with determinant +-1, carried with its exact inverse."""

    U: RMatrix
    Uinv: RMatrix

    def __post_init__(self):
        n = self.U.ncols
        if any(e.denominator != 1 for row in self.U.rows for e in row):
            raise PreconditionFailed("unimodular matrix must be integral")
        if abs(determinant(self.U)) != 1:
            raise PreconditionFailed("unimodular matrix must have det +-1")
        if self.U.matmul(self.Uinv) != RMatrix.identity(n):
            raise PreconditionFailed("inverse does not match")

    @staticmethod
    def identity(n: int) -> "UnimodularTransform":
        eye = RMatrix.identity(n)
        return UnimodularTransform(eye, eye)

    def apply(self, x: RVector) -> RVector:
        return self.U.matvec(x)

    def apply_inverse(self, x: RVector) -> RVector:
        return self.Uinv.matvec(x)


@dataclass(frozen=True)
class LllCertificate:
    """Gram-Schmidt data of a reduced basis plus the two condition flags."""

    Bhat: RMatrix
    Mu: RMatrix
    size_reduced: bool
    lovasz_ok: bool


def check_reduction_conditions(basis: RMatrix) -> LllCertificate:
    """Evaluate both reduction conditions exactly on the given basis."""
    bhat, mu = gram_schmidt(basis)
    n = basis.ncols
    size_ok = all(
        abs(mu[i, j]) <= Fraction(1, 2) for i in range(n) for j in range(i + 1, n)
    )
    norms = [bhat.column(i).norm_sq() for i in range(n)]
    lovasz_ok = all(norms[i] <= 2 * norms[i + 1] for i in range(n - 1))
    return LllCertificate(bhat, mu, size_ok, lovasz_ok)


def lll_reduce(basis: LatticeBasis) -> tuple[LatticeBasis, UnimodularTransform, LllCertificate]:
    """LLL-reduce the basis, returning (reduced, U, certificate).

    reduced.B = basis.B * U exactly, |det U| = 1, and the certificate's two
    flags are both True.  Uses the standard Lovasz parameter delta = 3/4.
    """
    n = basis.n
    cols = [list(basis.B.column(j)) for j in range(n)]
    u_cols = [[Fraction(1 if i == j else 0) for i in range(n)] for j in range(n)]
    uinv_rows = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]

    def col_vec(c):
        return RVector(c)

    def recompute_gs():
        b = RMatrix.from_columns([col_vec(c) for c in cols])
        bhat, mu = gram_schmidt(b)
        norms = [bhat.column(i).norm_sq() for i in range(n)]
        # mu rows indexed [i][j] with j < i meaning coefficient of bhat_j in b_i
        mu_of = [[mu[j, i] for j in range(n)] for i in range(n)]
        return mu_of, norms

    mu_of, norms = recompute_gs()
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            r = floor_frac(mu_of[k][j] + Fraction(1, 2))
            if r != 0:
                cols[k] = [a - r * b for a, b in zip(cols[k], cols[j])]
                u_cols[k] = [a - r * b for a, b in zip(u_cols[k], u_cols[j])]
                # column op on U is the inverse row op on Uinv
                uinv_rows[j] = [a + r * b for a, b in zip(uinv_rows[j], uinv_rows[k])]
                for jj in range(j):
                    mu_of[k][jj] -= r * mu_of[j][jj]
                mu_of[k][j] -= r
        if norms[k] >= (LOVASZ_DELTA - mu_of[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            cols[k], cols[k - 1] = cols[k - 1], cols[k]
            u_cols[k], u_cols[k - 1] = u_cols[k - 1], u_cols[k]
            uinv_rows[k], uinv_rows[k - 1] = uinv_rows[k - 1], uinv_rows[k]
            mu_of, norms = recompute_gs()
            k = max(k - 1, 1)

    reduced = RMatrix.from_columns([col_vec(c) for c in cols])
    u = RMatrix.from_columns([RVector(c) for c in u_cols])
    uinv = RMatrix(uinv_rows)
    transform = UnimodularTransform(u, uinv)
    cert = check_reduction_conditions(reduced)
    if not (cert.size_reduced and cert.lovasz_ok):
        raise InternalContradiction("LLL output fails the reduction conditions")
    if basis.B.matmul(u) != reduced:
        raise InternalContradiction("LLL output differs from the input basis times U")
    return LatticeBasis(reduced), transform, cert


def lll_min_gain(basis: LatticeBasis, cert: LllCertificate | None = None) -> Fraction:
    """Certified squared-gain lower bound 2^(-3n) for a reduced basis.

    Requires the basis to be LLL reduced with |b_i|^2 >= 1 for all columns.
    The certificate re-verifies the intermediate inequality
    |bhat_k|^2 >= 2^(-n) for every k before certifying that
    |B x|_2^2 >= 2^(-3n) |x|_2^2 for all x.  The squared form is returned
    because 2^(-3n/2) itself is irrational for odd n; callers that need the
    unsquared gain may take any rational r with r^2 <= the returned value.
    """
    n = basis.n
    if cert is None:
        cert = check_reduction_conditions(basis.B)
    if not (cert.size_reduced and cert.lovasz_ok):
        raise PreconditionFailed("basis is not LLL reduced")
    for i in range(n):
        if basis.B.column(i).norm_sq() < 1:
            raise PreconditionFailed(f"column {i} has squared norm < 1")
    bound = Fraction(1, 2**n)
    for k in range(n):
        if cert.Bhat.column(k).norm_sq() < bound:
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
    columns = reduced.B.columns()
    col_inf = min(c.inf_norm() for c in columns)
    v0 = col_inf if search_bound is None else min(col_inf, frac(search_bound))

    # Integer encoding.  cols[j] = F b'_j, mu[l][j] = D mu_lj and
    # gs[l] = E |bhat_l|^2, so a node's weight sum_l (D y'_l + c_l)^2 gs[l],
    # with c_l = sum_{j > l} mu[l][j] y'_j, is S |B' y'|^2 for S = D^2 E.
    flat, F = common_denominator_ints(e for c in columns for e in c)
    cols = [flat[j * n:(j + 1) * n] for j in range(n)]
    flat, D = common_denominator_ints(e for row in cert.Mu.rows for e in row)
    mu = [flat[i * n:(i + 1) * n] for i in range(n)]
    gs, E = common_denominator_ints(cert.Bhat.column(i).norm_sq() for i in range(n))
    S = D * D * E
    u_rows = [[int(e) for e in row] for row in transform.U.rows]

    radius = n * v0.numerator**2 * S // v0.denominator**2  # weights are ints
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
                radius = min(radius, n * inf * inf * S // (F * F))
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
