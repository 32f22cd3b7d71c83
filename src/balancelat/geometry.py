"""Symmetric convex bodies, ellipsoids, the exact Minkowski oracle, and
ellipsoid well-rounding.

Bodies are membership predicates over exact rationals plus an outer box
radius.  Structured bodies (cubes, cube-slab intersections) additionally
expose a sound prefix-feasibility test so the integer-point search can prune
subtrees; pruning never changes which point is returned because it only
discards prefixes that provably admit no member, and the search visits
candidates in lexicographic order.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional, Sequence

from .errors import (
    BudgetExceeded,
    InternalContradiction,
    InvalidParams,
    NotFound,
    PrecisionUnreachable,
    RankDeficient,
)
from .lattice import LatticeBasis, UnimodularTransform, lll_min_gain, lll_reduce
from .linalg import RMatrix, RVector, determinant, solve_linear
from .nbp import enumeration_budget
from .rationals import common_denominator_ints, floor_frac, floor_sqrt_div, frac, sqrt_upper


class SymmetricConvexBody:
    """A symmetric convex body given by an exact membership predicate."""

    def __init__(
        self,
        dim: int,
        membership: Callable[[RVector], bool],
        outer_box_radius: Fraction,
        volume_promise: Optional[Fraction] = None,
    ) -> None:
        if dim < 1:
            raise InvalidParams("body dimension must be >= 1")
        self.dim = dim
        self._membership = membership
        self.outer_box_radius = frac(outer_box_radius)
        self.volume_promise = volume_promise

    def member(self, x: RVector) -> bool:
        if x.dim != self.dim:
            raise InvalidParams("dimension mismatch")
        return bool(self._membership(x))

    def dilate(self, rho) -> "SymmetricConvexBody":
        rho = frac(rho)
        if rho <= 0:
            raise InvalidParams("dilation factor must be positive")
        inv = 1 / rho
        return SymmetricConvexBody(
            self.dim,
            lambda x: self.member(x.scale(inv)),
            rho * self.outer_box_radius,
            self.volume_promise,
        )

    def int_box_limit(self) -> int:
        """Largest integer coordinate magnitude any member can have."""
        return floor_frac(self.outer_box_radius)

    def prefix_feasible(self, prefix: Sequence[int], depth: int) -> bool:
        """Sound pruning hook: False only if no member extends this prefix."""
        return True


class CubeBody(SymmetricConvexBody):
    """The cube [-r, r]^n, open or closed."""

    def __init__(self, dim: int, radius, open_box: bool = False) -> None:
        self.radius = frac(radius)
        self.open_box = open_box
        super().__init__(dim, self._cube_member, self.radius)

    def _cube_member(self, x: RVector) -> bool:
        if self.open_box:
            return all(abs(e) < self.radius for e in x)
        return all(abs(e) <= self.radius for e in x)

    def int_box_limit(self) -> int:
        r = self.radius
        if self.open_box and r.denominator == 1:
            return int(r) - 1
        return floor_frac(r)

    def dilate(self, rho) -> "CubeBody":
        return CubeBody(self.dim, frac(rho) * self.radius, self.open_box)

    def prefix_feasible(self, prefix: Sequence[int], depth: int) -> bool:
        limit = self.int_box_limit()
        return all(abs(v) <= limit for v in prefix[:depth])


class CubeSlabBody(SymmetricConvexBody):
    """An open cube intersected with the slab |<a, x>| <= bound.

    This is the body shape used when reducing balancing to Minkowski's
    problem; it supports fast integer prefix pruning via suffix bounds on the
    attainable inner product.
    """

    def __init__(self, a: RVector, slab_bound, box_radius, open_box: bool = True) -> None:
        self.a = a
        self.slab_bound = frac(slab_bound)
        self.box_radius = frac(box_radius)
        self.open_box = open_box
        super().__init__(a.dim, self._slab_member, self.box_radius)
        self._ints, self._den = common_denominator_ints(a)
        limit = self.int_box_limit()
        n = a.dim
        self._suffix = [0] * (n + 1)
        for i in range(n - 1, -1, -1):
            self._suffix[i] = self._suffix[i + 1] + limit * abs(self._ints[i])
        # |sum x_i a_i| <= slab  <=>  |sum x_i A_i| * sd <= sn * den
        self._rhs = self.slab_bound.numerator * self._den
        self._sd = self.slab_bound.denominator

    def _slab_member(self, x: RVector) -> bool:
        if self.open_box:
            if not all(abs(e) < self.box_radius for e in x):
                return False
        elif not all(abs(e) <= self.box_radius for e in x):
            return False
        return abs(self.a.dot(x)) <= self.slab_bound

    def int_box_limit(self) -> int:
        r = self.box_radius
        if self.open_box and r.denominator == 1:
            return int(r) - 1
        return floor_frac(r)

    def dilate(self, rho) -> "CubeSlabBody":
        rho = frac(rho)
        return CubeSlabBody(
            self.a, rho * self.slab_bound, rho * self.box_radius, self.open_box
        )

    def prefix_feasible(self, prefix: Sequence[int], depth: int) -> bool:
        limit = self.int_box_limit()
        s = 0
        for i in range(depth):
            v = prefix[i]
            if abs(v) > limit:
                return False
            s += v * self._ints[i]
        return abs(s) * self._sd <= self._rhs + self._sd * self._suffix[depth]


def minkowski_exact_oracle(
    body: SymmetricConvexBody, budget: int | None = None
) -> tuple[int, ...]:
    """Lexicographically smallest nonzero integer point of the body.

    Realizes an exact (rho = 1) Minkowski oracle by depth-first search over
    the integer box; structured bodies prune via prefix_feasible.  Raises
    NotFound when the body contains no nonzero integer point (e.g. an open
    body whose volume promise fails).
    """
    limit = enumeration_budget(budget)
    n = body.dim
    m = body.int_box_limit()
    if (2 * m + 1) ** n > limit:
        raise BudgetExceeded(f"(2m+1)^n = {(2 * m + 1) ** n} exceeds budget {limit}")
    prefix = [0] * n

    def descend(depth: int) -> Optional[tuple[int, ...]]:
        if depth == n:
            x = tuple(prefix)
            if any(x) and body.member(RVector(x)):
                return x
            return None
        for v in range(-m, m + 1):
            prefix[depth] = v
            if body.prefix_feasible(prefix, depth + 1):
                found = descend(depth + 1)
                if found is not None:
                    return found
        prefix[depth] = 0
        return None

    found = descend(0)
    if found is None:
        raise NotFound("no nonzero integer point in the body")
    return found


class Ellipsoid:
    """E = {x : |A x|_2^2 <= 1} for a full-rank rational matrix A.

    Membership is the exact quadratic-form inequality x^T A^T A x <= 1.
    An axis form (orthonormal-within-tolerance axes a_i with lengths
    lambda_i) may be attached by the caller.
    """

    def __init__(
        self,
        A: RMatrix,
        axes: Optional[Sequence[RVector]] = None,
        lengths: Optional[Sequence[Fraction]] = None,
        orth_tolerance: Optional[Fraction] = None,
    ) -> None:
        if A.ncols < 1:
            raise InvalidParams("ellipsoid dimension must be >= 1")
        if not A.is_square():
            raise RankDeficient("ellipsoid matrix must be square")
        if determinant(A) == 0:
            raise RankDeficient("ellipsoid matrix must be full rank")
        self.A = A
        self.axes = list(axes) if axes is not None else None
        self.lengths = [frac(v) for v in lengths] if lengths is not None else None
        if (self.axes is None) != (self.lengths is None):
            raise InvalidParams("axis form needs both axes and lengths")
        if self.axes is not None:
            if any(v <= 0 for v in self.lengths):
                raise InvalidParams("axis lengths must be positive")
            tol = frac(orth_tolerance) if orth_tolerance is not None else Fraction(0)
            n = self.dim
            for i in range(n):
                for j in range(i, n):
                    want = Fraction(1) if i == j else Fraction(0)
                    if abs(self.axes[i].dot(self.axes[j]) - want) > tol:
                        raise InvalidParams("axes are not orthonormal within tolerance")

    @property
    def dim(self) -> int:
        return self.A.ncols

    def gram(self) -> RMatrix:
        return self.A.transpose().matmul(self.A)

    def quad(self, x: RVector) -> Fraction:
        """The exact value |A x|_2^2."""
        return self.A.matvec(x).norm_sq()

    def member(self, x: RVector) -> bool:
        return self.quad(x) <= 1

    def outer_box_radius(self) -> Fraction:
        """Rational R with E contained in [-R, R]^n (rows of A^{-1})."""
        n = self.dim
        inv_cols = [solve_linear(self.A, RVector.unit(n, i)) for i in range(n)]
        worst = max(
            sum((inv_cols[j][i] ** 2 for j in range(n)), Fraction(0)) for i in range(n)
        )
        return sqrt_upper(worst, 8)

    @staticmethod
    def from_axes(axes: Sequence[RVector], lengths: Sequence[Fraction]) -> "Ellipsoid":
        """Build A = diag(1/lambda) V^T from (approximately) orthonormal axes."""
        v = RMatrix.from_columns(list(axes))
        a = RMatrix.diagonal([1 / frac(l) for l in lengths]).matmul(v.transpose())
        return Ellipsoid(a, axes=axes, lengths=lengths, orth_tolerance=Fraction(1, 2**20))


class WellRoundResult:
    """Outcome of well_round: an integer point, or a rounded ellipsoid."""

    def __init__(
        self,
        branch: str,
        point: Optional[tuple[int, ...]] = None,
        transform: Optional[UnimodularTransform] = None,
        rounded: Optional[Ellipsoid] = None,
        min_gain_sq: Optional[Fraction] = None,
    ) -> None:
        self.branch = branch
        self.point = point
        self.transform = transform
        self.rounded = rounded
        self.min_gain_sq = min_gain_sq


def well_round(ellipsoid: Ellipsoid) -> WellRoundResult:
    """Either an integer point of E, or a unimodular rounding of E.

    LLL-reduces the columns of A.  A reduced column of norm <= 1 yields the
    integer point U e_i (branch "integer-point").  Otherwise all reduced
    columns have norm > 1 and E' = {x : |(AU) x|^2 <= 1} together with the
    2^(-3n) quadratic-form certificate bounds every point of E' by
    |x|_2^2 <= 2^(3n) (branch "rounded").  transform.apply maps E to E';
    transform.apply_inverse maps E' back to E.
    """
    basis = LatticeBasis(ellipsoid.A)
    n = basis.n
    reduced, transform, cert = lll_reduce(basis)
    for i in range(n):
        if reduced.B.column(i).norm_sq() <= 1:
            p = tuple(int(e) for e in transform.U.column(i))
            point = RVector(p)
            if not ellipsoid.member(point):
                raise InternalContradiction("a reduced column of norm <= 1 maps outside E")
            return WellRoundResult("integer-point", point=p)
    gain_sq = lll_min_gain(reduced, cert)
    rounded = Ellipsoid(reduced.B)
    # transform maps E -> E': y = U^{-1} x, so its forward matrix is Uinv
    t = UnimodularTransform(transform.Uinv, transform.U)
    return WellRoundResult("rounded", transform=t, rounded=rounded, min_gain_sq=gain_sq)


def _rotation_u(tn: int, td: int, bits: int) -> int:
    """2^bits u, u = tan(theta/2), of the Jacobi rotation for tau = tn/td, td > 0.

    Equal to rounding 2^bits t / (1 + sqrt_lower(1 + t^2)) half to even, for
    t = sign(tau) / (|tau| + sqrt_lower(tau^2 + 1)), sign(0) = 1, at `bits`.
    """
    scale = 1 << bits
    # 2^bits sqrt_lower(x) for x = tau^2 + 1 = (tn^2 + td^2) / td^2
    root = floor_sqrt_div(tn * tn + td * td, td, bits)
    # |t| = t_num / t_den; t_den > 0 because root >= scale
    t_num, t_den = td * scale, abs(tn) * scale + root * td
    half = floor_sqrt_div(t_den * t_den + t_num * t_num, t_den, bits)
    # 2^bits |u| = 4^bits |t| / (2^bits + half)
    den = t_den * (scale + half)
    u, rem = divmod(t_num << (2 * bits), den)
    if 2 * rem > den or (2 * rem == den and u & 1):
        u += 1
    return u if tn >= 0 else -u


def _rotate_columns(rows: list[list[int]], p: int, q: int, c: int, s: int, d: int) -> None:
    """In place rows <- rows J, where J is d I except for [[c, s], [-s, c]] on (p, q)."""
    others = [j for j in range(len(rows[0])) if j != p and j != q]
    for row in rows:
        vp, vq = row[p], row[q]
        row[p] = c * vp - s * vq
        row[q] = s * vp + c * vq
        for j in others:
            row[j] *= d


def axis_extract(
    ellipsoid: Ellipsoid, precision_bits: int = 128
) -> tuple[list[RVector], list[Fraction]]:
    """Rational principal axes and lengths of the ellipsoid, certified.

    Diagonalizes A^T A with Jacobi rotations whose (cos, sin) lie exactly on
    the rational unit circle (tan-half-angle parametrization), so the rotation
    product stays exactly orthogonal; only the final output is truncated.

    The iteration is fraction-free and takes no gcd: the rotated Gram matrix
    is N / dden and the rotation product V / vden, integer matrices over one
    common denominator each.  With u = U / 2^bits and s = 4^bits, cos and sin
    are C / D and S / D for C = s - U^2, S = 2 U 2^bits, D = s + U^2: rows and
    columns p, q are combined with C and S, the others multiplied by D.
    Decisions compare numerators over one positive denominator and roots are
    exact floors (floor_sqrt_div) however the rational is written, so every
    decision, and the output, equals the same iteration's on reduced Fractions.

    Certifies, by exact comparison against A^T A:

      * reconstruction residual max|sum_i (1/len_i^2) ax_i ax_i^T - A^T A|
        <= 2^-precision_bits;
      * orthonormality defect max|V^T V - I| <= 2^-precision_bits.

    Lengths are returned ascending.  Raises PrecisionUnreachable when the
    iteration cannot certify.
    """
    n = ellipsoid.dim
    m = ellipsoid.gram()
    target = Fraction(1, 2**precision_bits)
    gram, gram_den = common_denominator_ints(m[i, j] for i in range(n) for j in range(n))
    guard = 48
    for _attempt in range(4):
        # the angle grid is much finer than the off-diagonal tolerance so
        # rotations cannot stall just above it
        bits = precision_bits + 2 * guard
        scale = 1 << bits
        d, dden = [gram[i * n : (i + 1) * n] for i in range(n)], gram_den
        v, vden = [[1 if i == j else 0 for j in range(n)] for i in range(n)], 1
        tol_bits = precision_bits + guard  # stop once every |d_ij| <= 2^-tol_bits
        for _rotation in range(40 * n * n + 40):
            p, q, biggest = -1, -1, 0
            for i in range(n):
                for j in range(i + 1, n):
                    if abs(d[i][j]) > biggest:
                        p, q, biggest = i, j, abs(d[i][j])
            if biggest << tol_bits <= dden:
                break
            # tau = (d_qq - d_pp) / (2 d_pq), kept as tn / td with td > 0
            tn, td = d[q][q] - d[p][p], 2 * d[p][q]
            if td < 0:
                tn, td = -tn, -td
            u = _rotation_u(tn, td, bits)
            c, s, rot_den = scale * scale - u * u, 2 * u * scale, scale * scale + u * u
            # u leaves N_pq = a + b and -u leaves a - b, for a = (C^2 - S^2) N_pq
            # and b = C S (N_pp - N_qq); take -u if |a - b| < |a + b|, i.e. a b > 0
            if (c * c - s * s) * d[p][q] * c * s * (d[p][p] - d[q][q]) > 0:
                s = -s
            _rotate_columns(d, p, q, c, s, rot_den)
            d = [list(col) for col in zip(*d)]  # (N J)^T J = J^T N J: N is symmetric
            _rotate_columns(d, p, q, c, s, rot_den)
            _rotate_columns(v, p, q, c, s, rot_den)
            dden *= rot_den * rot_den
            vden *= rot_den
        else:
            guard *= 2
            continue

        # output truncation: keep |entries| <= 1 by rounding toward zero
        vout = [
            [Fraction(e * scale // vden if e >= 0 else -(-e * scale // vden), scale) for e in row]
            for row in v
        ]
        ws = [Fraction(floor_sqrt_div(d[i][i] * dden, dden, bits), scale) for i in range(n)]
        if any(w <= 0 for w in ws):
            guard *= 2
            continue
        vmat = RMatrix(vout)
        recon = vmat.matmul(RMatrix.diagonal([w * w for w in ws])).matmul(vmat.transpose())
        residual = max(
            abs(recon[i, j] - m[i, j]) for i in range(n) for j in range(n)
        )
        gram_v = vmat.transpose().matmul(vmat)
        defect = max(
            abs(gram_v[i, j] - (1 if i == j else 0)) for i in range(n) for j in range(n)
        )
        if residual <= target and defect <= target:
            axes = [vmat.column(i) for i in range(n)]
            lengths = [1 / w for w in ws]
            order = sorted(range(n), key=lambda i: lengths[i])
            return [axes[i] for i in order], [lengths[i] for i in order]
        guard *= 2
    raise PrecisionUnreachable(
        f"axis extraction failed to certify 2^-{precision_bits} residual"
    )
