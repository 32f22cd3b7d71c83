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
integers over its common denominator, and they read the scales lambda_i,
the root and the delta_i as integer pairs, with each product over the
product of the denominators; the truncation, the inflated vectors, the
summed instance, the grid and scales are integer products, and every check
is a cross-multiplication; the delta_i enter each layer as Fractions.  Each
layer checks its own per-vector bounds and returns only the balancing point
x, the one thing its caller reads.
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
from .nbp import NbpInstance
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

    Everything runs on integers.  Each delta_i is read as its pair p_i / q_i,
    and a_i = ints / den.  The truncation toward zero (which keeps signed
    entries inside [-1, 1], as the divisibility argument needs) is m = sign *
    (|e| q_i // (2 n p_i den)), and a~_i = scale_i * m_i with scale_i =
    prod_{j<i} delta_j * 2 n delta_i = w_i / T over the one common
    denominator T = prod_j q_j, w_i = 2 n p_0 ... p_i q_{i+1} ... q_{k-1}
    != 0, so <a~_i, x> = 0 exactly when <m_i, x> = 0.  The instance is c / 2T
    with c = sum_i w_i m_i, and every bound is compared by
    cross-multiplication.
    """
    k = len(vectors)
    if k == 0 or k != len(deltas):
        raise InvalidParams("need matching nonempty vectors and deltas")
    n = vectors[0].n
    if any(v.n != n for v in vectors):
        raise InvalidParams("vectors must share one dimension")
    if n < 2:
        raise PreconditionFailed("multi-vector balancing needs dimension >= 2")
    pairs = [(d.numerator, d.denominator) for d in map(frac, deltas)]
    if any(p <= 0 or 2 * p > q for p, q in pairs):
        raise PreconditionFailed("every delta_i must lie in (0, 1/2]")
    guarantee = oracle.delta(n)
    product, T = prod(p for p, _ in pairs), prod(q for _, q in pairs)
    if product * guarantee.denominator < guarantee.numerator * T:
        raise PreconditionFailed(
            f"prod delta_i = {Fraction(product, T)} < oracle guarantee {guarantee}"
        )

    multiples, weights = [], []
    prefix, rest = 2 * n, T
    for v, (p, q) in zip(vectors, pairs):
        step = 2 * n * p * v.den
        multiples.append([e * q // step if e >= 0 else -(-e * q // step) for e in v.ints])
        prefix *= p
        rest //= q
        weights.append(prefix * rest)
    c = [sum(map(mul, weights, column)) for column in zip(*multiples)]
    # |c| < 2T entrywise, so c / 2T is a valid instance
    x = oracle.solve(NbpInstance.from_ints(c, 2 * T)).x

    for i, (m, w) in enumerate(zip(multiples, weights)):
        inner = sum(map(mul, m, x))
        if inner != 0:
            raise InternalContradiction(
                f"divisibility invariant failed for vector {i}: "
                f"<a~_i, x> = {Fraction(w * inner, T)}"
            )
    for i, (v, (p, q)) in enumerate(zip(vectors, pairs)):
        # |<a_i, x>| = |<ints, x>| / den against 2 n^2 p_i / q_i
        if abs(sum(map(mul, v.ints, x))) * q > 2 * n * n * p * v.den:
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
    built as an instance without Fractions, and the identity and each bound
    are compared on integers, each delta_i read as its integer pair.
    An empty family, vectors of different dimensions and a delta_i outside
    (0, 1/2] are refused by multi_vector_balance, on the inflated family.
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
    for i, (v, b, d) in enumerate(zip(vectors, inflated, map(frac, deltas))):
        inner_x = sum(map(mul, v.ints, x))  # <a_i, x> = inner_x / v.den
        # holds for every y: Q <b_i, y> = sum_j a_ij sum_l (Q >> l) y_jl = sum_j a_ij x_j
        if inner_x * b.den != Q * sum(map(mul, b.ints, y)) * v.den:
            raise InternalContradiction(
                f"recombination identity failed for vector {i}"
            )
        if abs(inner_x) * d.denominator > d.numerator * Q * 2 * inner_dim**2 * v.den:
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

    Each lambda_i is read as its integer pair p_i / q_i: the order is
    checked by cross-multiplication, prod lambda_i >= 1 as prod p_i >=
    prod q_i, R = r / s is nth_root_upper of f prod q_i / prod p_i, and
    delta_i = p_i r / (q_i s) is compared with 1/2 on integers and handed
    on as a Fraction.
    """
    k = len(vectors)
    if k == 0 or k != len(lambdas):
        raise InvalidParams("need matching vectors and lambdas")
    n = vectors[0].n
    if any(v.n != n for v in vectors):
        raise InvalidParams("vectors must share one dimension")
    pairs = [(l.numerator, l.denominator) for l in lambdas]
    if any(p <= 0 for p, _ in pairs):
        raise InvalidParams("lambdas must be positive")
    if any(p * s > r * q for (p, q), (r, s) in zip(pairs, pairs[1:])):
        raise InvalidParams("lambdas must be ascending")
    product, T = prod(p for p, _ in pairs), prod(q for _, q in pairs)
    if product < T:
        raise PreconditionFailed("prod lambda_i must be >= 1")
    Q = Q_override if Q_override is not None else 2 ** (4 * n)
    f = oracle.delta(n * _range_levels(Q))
    # R >= (f / prod lambda)^(1/k), with prod lambda = product / T
    root = nth_root_upper(Fraction(f.numerator * T, f.denominator * product), k, bits=64)
    r, s = root.numerator, root.denominator
    if any(2 * p * r > q * s for p, q in pairs):  # delta_i = lambda_i R > 1/2
        raise PreconditionFailed(
            "computed delta_i exceeds 1/2; oracle guarantee too weak at this scale"
        )
    return extended_range_balance(vectors, [Fraction(p * r, q * s) for p, q in pairs], Q, oracle)


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
    UnimodularTransform.apply); the axis form is read on the axis
    instances' integers, and the two forms are compared by
    cross-multiplication.
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
    vectors = [NbpInstance.from_values(ax) for ax in axes]
    y = generalized_nbp(vectors, lengths, oracle, Q_override)

    # the axis form is the rounded ellipsoid's quadratic form, checked before
    # un-transforming: term i is w_i (<ints_i, y> / den_i)^2, all over their lcm M
    terms = [(w.numerator * sum(map(mul, v.ints, y)) ** 2, w.denominator * v.den**2)
             for v, w in zip(vectors, norms_sq)]
    M = lcm(*(t for _, t in terms))
    form = rounded.rounded.quad(y)
    if sum(p * (M // t) for p, t in terms) * form.denominator != form.numerator * M:
        raise InternalContradiction("the axis form differs from the rounded ellipsoid")

    x = rounded.transform.apply(y)
    if not any(x):
        raise InternalContradiction("unimodular image of a nonzero vector vanished")
    return MinkowskiFromNbpResult("pipeline", x, sqrt_upper(ellipsoid.quad(x), 64))
