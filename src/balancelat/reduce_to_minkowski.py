"""Using a balancing oracle to find integer points in symmetric bodies.

Three stacked extensions of the sign-vector oracle: balancing several vectors
at once (via cascaded discretization, whose proof yields an exactly testable
divisibility invariant), extending the coefficient range from {-1,0,1} to
{-Q..Q} (via powers-of-two replication), and the generalized form with
per-vector scales lambda_i.  The pipeline composes these with ellipsoid
well-rounding and axis extraction to realize an approximate Minkowski oracle,
reporting a certified dilation factor rho*.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import InternalContradiction, InvalidParams, PreconditionFailed
from .geometry import Ellipsoid, axis_extract, well_round
from .linalg import RVector, determinant
from .nbp import NbpInstance
from .oracles import NbpDeltaOracle
from .rationals import frac, nth_root_upper, sqrt_upper


def _truncate_to_grid(value: Fraction, grid: Fraction) -> Fraction:
    """Largest-magnitude multiple of grid with |result| <= |value| (toward zero).

    Truncation toward zero keeps discretized entries inside [-1, 1] for
    signed inputs, which the divisibility argument needs; rounding toward
    -infinity would let negative entries overshoot the unit range.
    """
    q = abs(value) / grid
    m = q.numerator // q.denominator
    out = m * grid
    return -out if value < 0 else out


@dataclass
class MultiBalanceResult:
    x: tuple[int, ...]
    bounds: list[Fraction]  # per-vector exact bounds 2 n^2 delta_i
    discretized: list[RVector]


def multi_vector_balance(
    vectors: Sequence[RVector],
    deltas: Sequence[Fraction],
    oracle: NbpDeltaOracle,
) -> MultiBalanceResult:
    """Balance several vectors at once: |<a_i, x>| <= 2 n^2 delta_i for all i.

    Each a_i is truncated to the grid 2 n delta_i, scaled by prod_{j<i}
    delta_j, and summed; one oracle call on (half of) the sum balances them
    all.  The proof's chain forces <a~_i, x> = 0 exactly for every i, which
    is re-verified, as is each final bound.
    """
    k = len(vectors)
    if k == 0 or k != len(deltas):
        raise InvalidParams("need matching nonempty vectors and deltas")
    n = vectors[0].dim
    if any(v.dim != n for v in vectors):
        raise InvalidParams("vectors must share one dimension")
    if n < 2:
        raise PreconditionFailed("multi-vector balancing needs dimension >= 2")
    deltas = [frac(d) for d in deltas]
    if any(d <= 0 or d > Fraction(1, 2) for d in deltas):
        raise PreconditionFailed("every delta_i must lie in (0, 1/2]")
    if any(abs(e) > 1 for v in vectors for e in v):
        raise InvalidParams("vector entries must lie in [-1, 1]")
    product = Fraction(1)
    for d in deltas:
        product *= d
    if product < oracle.delta(n):
        raise PreconditionFailed(
            f"prod delta_i = {product} < oracle guarantee {oracle.delta(n)}"
        )

    discretized: list[RVector] = []
    prefix = Fraction(1)
    for i in range(k):
        grid = 2 * n * deltas[i]
        discretized.append(
            RVector([prefix * _truncate_to_grid(e, grid) for e in vectors[i]])
        )
        prefix *= deltas[i]

    c = discretized[0]
    for d in discretized[1:]:
        c = c + d
    # |c| < 2 entrywise, so half of it is a valid instance
    inst = NbpInstance.from_values([e / 2 for e in c])
    x = oracle.solve(inst)

    for i, d in enumerate(discretized):
        inner = d.dot(RVector(x))
        if inner != 0:
            raise InternalContradiction(
                f"divisibility invariant failed for vector {i}: <a~_i, x> = {inner}"
            )
    bounds = [2 * n * n * deltas[i] for i in range(k)]
    for i, v in enumerate(vectors):
        if abs(v.dot(RVector(x))) > bounds[i]:
            raise InternalContradiction(
                f"final bound failed for vector {i}"
            )
    return MultiBalanceResult(x, bounds, discretized)


@dataclass
class RangeBalanceResult:
    x: tuple[int, ...]
    y: tuple[int, ...]
    bounds: list[Fraction]  # per-vector exact bounds delta_i Q 2 (n log Q)^2
    inner_dim: int


def extended_range_balance(
    vectors: Sequence[RVector],
    deltas: Sequence[Fraction],
    Q: int,
    oracle: NbpDeltaOracle,
) -> RangeBalanceResult:
    """Balance with coefficients in {-Q..Q}: |<a_i, x>| <= delta_i Q 2 (n log Q)^2.

    Replicates each coordinate at scales 2^-1 .. 2^-log(Q), balances the
    inflated instance with signs, and recombines x_j = Q sum_l 2^-l y_{jl}.
    The recombination identity <a_i, x> = Q <b_i, y> is exact and re-verified;
    x vanishes only if y does (signed sums of distinct powers of two).
    """
    if Q < 2 or Q & (Q - 1) != 0:
        raise PreconditionFailed("Q must be a power of two, >= 2")
    levels = Q.bit_length() - 1  # log2 Q
    k = len(vectors)
    if k == 0:
        raise InvalidParams("need at least one vector")
    n = vectors[0].dim
    inner_dim = n * levels

    inflated = []
    for v in vectors:
        entries = []
        for j in range(n):
            for level in range(1, levels + 1):
                entries.append(v[j] / 2**level)
        inflated.append(RVector(entries))

    result = multi_vector_balance(inflated, deltas, oracle)
    y = result.x
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
    bounds = []
    for i, v in enumerate(vectors):
        inner_x = v.dot(RVector(x))
        inner_y = inflated[i].dot(RVector(y))
        if inner_x != Q * inner_y:
            raise InternalContradiction(
                f"recombination identity failed for vector {i}"
            )
        bound = frac(deltas[i]) * Q * 2 * inner_dim**2
        if abs(inner_x) > bound:
            raise InternalContradiction(f"range-extended bound failed for vector {i}")
        bounds.append(bound)
    return RangeBalanceResult(x, y, bounds, inner_dim)


@dataclass(frozen=True)
class GeneralizedInstance:
    """Vectors a_1..a_k in [-1,1]^n with scales 0 < lambda_1 <= ... <= lambda_k."""

    vectors: tuple[RVector, ...]
    lambdas: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.vectors or len(self.vectors) != len(self.lambdas):
            raise InvalidParams("need matching vectors and lambdas")
        n = self.vectors[0].dim
        if any(v.dim != n for v in self.vectors):
            raise InvalidParams("vectors must share one dimension")
        if any(abs(e) > 1 for v in self.vectors for e in v):
            raise InvalidParams("vector entries must lie in [-1, 1]")
        if any(l <= 0 for l in self.lambdas):
            raise InvalidParams("lambdas must be positive")
        if list(self.lambdas) != sorted(self.lambdas):
            raise InvalidParams("lambdas must be ascending")
        product = Fraction(1)
        for l in self.lambdas:
            product *= l
        if product < 1:
            raise PreconditionFailed("prod lambda_i must be >= 1")

    @property
    def n(self) -> int:
        return self.vectors[0].dim

    @staticmethod
    def create(vectors: Sequence[RVector], lambdas: Sequence) -> "GeneralizedInstance":
        return GeneralizedInstance(tuple(vectors), tuple(frac(l) for l in lambdas))


@dataclass
class GeneralizedResult:
    x: tuple[int, ...]
    bounds: list[Fraction]
    deltas: list[Fraction]
    Q: int
    root_upper: Fraction


def generalized_nbp(
    gi: GeneralizedInstance,
    oracle: NbpDeltaOracle,
    Q_override: Optional[int] = None,
) -> GeneralizedResult:
    """Balance scaled vectors with integer coefficients (generalized form).

    Picks Q (default 2^(4n)), sets delta_i = lambda_i * R with R a certified
    rational upper bound on (f(n log Q) / prod lambda)^(1/n), so that
    prod delta_i >= f(n log Q) holds exactly; each delta_i must land in
    (0, 1/2] or the reduction refuses (PreconditionFailed).  The exact bound
    per vector is 2 (n log Q)^2 Q delta_i.
    """
    n = gi.n
    k = len(gi.vectors)
    Q = Q_override if Q_override is not None else 2 ** (4 * n)
    if Q < 2 or Q & (Q - 1) != 0:
        raise PreconditionFailed("Q must be a power of two, >= 2")
    levels = Q.bit_length() - 1
    inner_dim = n * levels
    f_inner = oracle.delta(inner_dim)
    lambda_product = Fraction(1)
    for l in gi.lambdas:
        lambda_product *= l
    root = nth_root_upper(f_inner / lambda_product, k, bits=64)
    deltas = [l * root for l in gi.lambdas]
    if any(d > Fraction(1, 2) for d in deltas):
        raise PreconditionFailed(
            "computed delta_i exceeds 1/2; oracle guarantee too weak at this scale"
        )
    if any(d <= 0 for d in deltas):
        raise PreconditionFailed("computed delta_i is not positive")
    result = extended_range_balance(gi.vectors, deltas, Q, oracle)
    return GeneralizedResult(result.x, result.bounds, deltas, Q, root)


@dataclass
class MinkowskiFromNbpResult:
    branch: str  # "integer-point" | "pipeline"
    x: tuple[int, ...]
    rho_star: Fraction  # certified: x in rho_star * E exactly
    rho_star_sq: Fraction  # the exact quadratic-form value at x


def minkowski_from_nbp(
    ellipsoid: Ellipsoid,
    oracle: NbpDeltaOracle,
    Q_override: Optional[int] = None,
    precision_bits: int = 128,
) -> MinkowskiFromNbpResult:
    """Find a nonzero integer point of rho* E using a balancing oracle.

    Requires prod lambda_i >= 1, checked exactly as |det A| <= 1.  Well-round
    first: an integer point of E ends it with rho* = 1; otherwise extract
    rational axes of the rounded ellipsoid, run the generalized balancing on
    (axes, lengths), verify membership in the axis form, and map the point
    back through the unimodular transform.  rho* is a certified dyadic upper
    bound with rho*^2 >= the exact quadratic-form value of the returned point
    in the *original* ellipsoid.
    """
    if precision_bits < 1:
        raise InvalidParams("precision_bits must be >= 1")
    det = abs(determinant(ellipsoid.A))
    if det > 1:
        raise PreconditionFailed(
            "prod lambda_i = 1/|det A| < 1; the volume hypothesis fails"
        )
    rounded = well_round(ellipsoid)
    if rounded.branch == "integer-point":
        x = rounded.point
        return MinkowskiFromNbpResult("integer-point", x, Fraction(1), ellipsoid.quad(RVector(x)))

    axes, lengths = axis_extract(rounded.rounded, precision_bits)
    gi = GeneralizedInstance.create(axes, lengths)
    gen = generalized_nbp(gi, oracle, Q_override)
    y = RVector(gen.x)

    # membership in the axis form, checked before un-transforming
    axis_sq = sum(
        ((ax.dot(y) / ln) ** 2 for ax, ln in zip(axes, lengths)), Fraction(0)
    )
    rho_axis = sqrt_upper(axis_sq, 64)
    if axis_sq > rho_axis * rho_axis:
        raise InternalContradiction("certified axis-form dilation is not an upper bound")

    x_out = rounded.transform.apply_inverse(y)
    x_tuple = tuple(int(e) for e in x_out)
    if not any(x_tuple):
        raise InternalContradiction("unimodular image of a nonzero vector vanished")
    q = ellipsoid.quad(x_out)
    return MinkowskiFromNbpResult("pipeline", x_tuple, sqrt_upper(q, 64), q)
