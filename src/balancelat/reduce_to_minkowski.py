"""Using a balancing oracle to find integer points in symmetric bodies.

Three stacked extensions of the sign-vector oracle: balancing several vectors
at once (via cascaded discretization, whose proof yields an exactly testable
divisibility invariant), extending the coefficient range from {-1,0,1} to
{-Q..Q} (via powers-of-two replication), and the generalized form with
per-vector scales lambda_i.  The pipeline composes these with ellipsoid
well-rounding, whose LLL certificate yields the axis form of the rounded
ellipsoid (Gram-Schmidt axes, which need not be orthogonal), to realize an
approximate Minkowski oracle, reporting a certified dilation factor rho*.
The balancing layers take each vector as an NbpInstance, so they read its
integers over its common denominator; truncation, the inflated vectors, the
summed instance and every check are integer arithmetic.  Each layer checks
its own per-vector bounds and returns only the balancing point x, the one
thing its caller reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from operator import mul
from typing import Optional, Sequence

from .errors import InternalContradiction, InvalidParams, PreconditionFailed
from .geometry import axis_extract, well_round
from .lattice import LatticeBasis
from .nbp import NbpInstance, instance_inner
from .oracles import NbpDeltaOracle
from .rationals import frac, nth_root_upper, sqrt_upper


def multi_vector_balance(
    vectors: Sequence[NbpInstance],
    deltas: Sequence[Fraction],
    oracle: NbpDeltaOracle,
) -> tuple[int, ...]:
    """Balance several vectors at once: x with |<a_i, x>| <= 2 n^2 delta_i for all i.

    Each a_i is truncated to the grid 2 n delta_i, scaled by prod_{j<i}
    delta_j, and summed; one oracle call on (half of) the sum balances them
    all.  The proof's chain forces <a~_i, x> = 0 exactly for every i, which
    is re-verified, as is each final bound.

    Everything runs on integers.  With a_i = ints / den and grid p / q, the
    truncation toward zero (which keeps signed entries inside [-1, 1], as
    the divisibility argument needs) is m = sign * (|e| q // (p den)), and
    a~_i = scale_i * m_i with scale_i = prod_{j<i} delta_j * grid_i != 0, so
    <a~_i, x> = 0 exactly when <m_i, x> = 0.  The sum c is taken over the
    scales' common denominator L, and the instance is c / 2L.
    """
    k = len(vectors)
    if k == 0 or k != len(deltas):
        raise InvalidParams("need matching nonempty vectors and deltas")
    n = vectors[0].n
    if any(v.n != n for v in vectors):
        raise InvalidParams("vectors must share one dimension")
    if n < 2:
        raise PreconditionFailed("multi-vector balancing needs dimension >= 2")
    deltas = [frac(d) for d in deltas]
    if any(d <= 0 or d > Fraction(1, 2) for d in deltas):
        raise PreconditionFailed("every delta_i must lie in (0, 1/2]")
    product = prod(deltas)
    if product < oracle.delta(n):
        raise PreconditionFailed(
            f"prod delta_i = {product} < oracle guarantee {oracle.delta(n)}"
        )

    multiples, scales = [], []
    prefix = Fraction(1)
    for v, d in zip(vectors, deltas):
        grid = 2 * n * d
        q, step = grid.denominator, grid.numerator * v.den
        multiples.append([e * q // step if e >= 0 else -(-e * q // step) for e in v.ints])
        scales.append(prefix * grid)
        prefix *= d
    L = lcm(*(s.denominator for s in scales))
    weights = [s.numerator * (L // s.denominator) for s in scales]
    c = [sum(map(mul, weights, column)) for column in zip(*multiples)]
    # |c| < 2 entrywise, so half of it is a valid instance
    x = oracle.solve(NbpInstance.from_ints(c, 2 * L)).x

    for i, (m, scale) in enumerate(zip(multiples, scales)):
        inner = sum(map(mul, m, x))
        if inner != 0:
            raise InternalContradiction(
                f"divisibility invariant failed for vector {i}: <a~_i, x> = {scale * inner}"
            )
    for i, (v, d) in enumerate(zip(vectors, deltas)):
        if abs(instance_inner(v, x)) > 2 * n * n * d:
            raise InternalContradiction(f"final bound failed for vector {i}")
    return x


def _range_levels(Q: int) -> int:
    """log2 Q of a coefficient range Q, which must be a power of two >= 2."""
    if Q < 2 or Q & (Q - 1) != 0:
        raise PreconditionFailed("Q must be a power of two, >= 2")
    return Q.bit_length() - 1


def extended_range_balance(
    vectors: Sequence[NbpInstance],
    deltas: Sequence[Fraction],
    Q: int,
    oracle: NbpDeltaOracle,
) -> tuple[int, ...]:
    """Balance with coefficients in {-Q..Q}: x with |<a_i, x>| <= delta_i Q 2 (n log Q)^2.

    Replicates each coordinate at scales 2^-1 .. 2^-log(Q), balances the
    inflated instance with signs, and recombines x_j = Q sum_l 2^-l y_{jl}.
    The recombination identity <a_i, x> = Q <b_i, y> is exact and re-verified;
    x vanishes only if y does (signed sums of distinct powers of two).  With
    a_i = ints / den, entry (j, l) of b_i is (e_j << (log Q - l)) / (den << log Q),
    built as an instance without Fractions.  An empty family, vectors of
    different dimensions and a delta_i outside (0, 1/2] are refused by
    multi_vector_balance, on the inflated family.
    """
    levels = _range_levels(Q)
    inflated = [
        NbpInstance.from_ints(
            [e << (levels - level) for e in v.ints for level in range(1, levels + 1)],
            v.den << levels,
        )
        for v in vectors
    ]
    y = multi_vector_balance(inflated, deltas, oracle)
    n = vectors[0].n
    inner_dim = n * levels
    x = []
    for j in range(n):
        acc = 0
        for level in range(1, levels + 1):
            acc += (Q >> level) * y[j * levels + (level - 1)]
        x.append(acc)
    x = tuple(x)
    if not any(x):
        raise InternalContradiction("recombined vector vanished with nonzero y")
    if max(abs(v) for v in x) > Q:
        raise InternalContradiction("recombined coefficient exceeds Q")
    for i, (v, b) in enumerate(zip(vectors, inflated)):
        inner_x = instance_inner(v, x)
        # holds for every y: Q <b_i, y> = sum_j a_ij sum_l (Q >> l) y_jl = sum_j a_ij x_j
        if inner_x != Q * instance_inner(b, y):
            raise InternalContradiction(
                f"recombination identity failed for vector {i}"
            )
        if abs(inner_x) > frac(deltas[i]) * Q * 2 * inner_dim**2:
            raise InternalContradiction(f"range-extended bound failed for vector {i}")
    return x


def generalized_nbp(
    vectors: Sequence[NbpInstance],
    lambdas: Sequence[Fraction],
    oracle: NbpDeltaOracle,
    Q_override: Optional[int],
) -> tuple[int, ...]:
    """Balance scaled vectors with integer coefficients (generalized form).

    The vectors a_1..a_k share one dimension n, with scales 0 < lambda_1 <=
    ... <= lambda_k and prod lambda_i >= 1.  Picks Q (Q_override, or 2^(4n)
    when it is None), sets delta_i = lambda_i * R with R a certified rational
    upper bound on (f(n log Q) / prod lambda)^(1/k), so that prod delta_i >=
    f(n log Q) holds exactly; each delta_i must land in (0, 1/2] or the
    reduction refuses (PreconditionFailed).  The returned x
    has |x|_inf <= Q and meets the exact bound 2 (n log Q)^2 Q delta_i per
    vector, checked by extended_range_balance.
    """
    k = len(vectors)
    if k == 0 or k != len(lambdas):
        raise InvalidParams("need matching vectors and lambdas")
    n = vectors[0].n
    if any(v.n != n for v in vectors):
        raise InvalidParams("vectors must share one dimension")
    if any(l <= 0 for l in lambdas):
        raise InvalidParams("lambdas must be positive")
    if list(lambdas) != sorted(lambdas):
        raise InvalidParams("lambdas must be ascending")
    product = prod(lambdas)
    if product < 1:
        raise PreconditionFailed("prod lambda_i must be >= 1")
    Q = Q_override if Q_override is not None else 2 ** (4 * n)
    levels = _range_levels(Q)
    inner_dim = n * levels
    f_inner = oracle.delta(inner_dim)
    root = nth_root_upper(f_inner / product, k, bits=64)
    deltas = [l * root for l in lambdas]
    if any(d > Fraction(1, 2) for d in deltas):
        raise PreconditionFailed(
            "computed delta_i exceeds 1/2; oracle guarantee too weak at this scale"
        )
    return extended_range_balance(vectors, deltas, Q, oracle)


@dataclass(frozen=True)
class MinkowskiFromNbpResult:
    branch: str  # "integer-point" | "pipeline"
    x: tuple[int, ...]
    rho_star: Fraction  # certified: x in rho_star * E exactly


def minkowski_from_nbp(
    ellipsoid: LatticeBasis,
    oracle: NbpDeltaOracle,
    Q_override: Optional[int],
) -> MinkowskiFromNbpResult:
    """Find a nonzero integer point of rho* E using a balancing oracle.

    Requires prod lambda_i >= 1, checked exactly as |det A| <= 1, and a
    ``Q_override``, unless None, that is a power of two >= 2; both are
    checked before either branch is taken.  Well-round first: an integer
    point of E ends it with rho* = 1; otherwise read the axis form of the
    rounded ellipsoid E' = {y : |B' y|^2 <= 1} off its LLL certificate
    (axis_extract), run the generalized balancing on (axes, lengths), check
    the form exactly at the balanced point, sum_i |bhat_i|^2 <a_i, y>^2 =
    |B' y|^2, and map the point back through the unimodular transform.  rho*
    is a certified dyadic upper bound with rho*^2 >= the exact
    quadratic-form value of the returned point in the *original* ellipsoid.
    Points are integer tuples throughout: y is the balancer's, both forms
    and x = U y are evaluated on integer rows (LatticeBasis.quad,
    UnimodularTransform.apply).
    """
    if abs(ellipsoid.det) > 1:
        raise PreconditionFailed(
            "prod lambda_i = 1/|det A| < 1; the volume hypothesis fails"
        )
    if Q_override is not None:
        _range_levels(Q_override)  # refused on either branch, before well-rounding
    rounded = well_round(ellipsoid)
    if rounded.branch == "integer-point":
        x = rounded.point
        return MinkowskiFromNbpResult("integer-point", x, Fraction(1))

    axes, lengths, norms_sq = axis_extract(rounded.cert)
    y = generalized_nbp([NbpInstance.from_values(ax) for ax in axes], lengths, oracle, Q_override)

    # the axis form is the rounded ellipsoid's quadratic form, checked before un-transforming
    axis_sq = sum(w * sum(map(mul, ax, y)) ** 2 for ax, w in zip(axes, norms_sq))
    if axis_sq != rounded.rounded.quad(y):
        raise InternalContradiction("the axis form differs from the rounded ellipsoid")

    x = rounded.transform.apply(y)
    if not any(x):
        raise InternalContradiction("unimodular image of a nonzero vector vanished")
    return MinkowskiFromNbpResult("pipeline", x, sqrt_upper(ellipsoid.quad(x), 64))
