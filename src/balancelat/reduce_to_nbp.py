"""Solving number balancing with Minkowski or SVP oracles.

The two entry constructions build a cube-slab body (whose volume argument
guarantees a Minkowski point) or a determinant-1 lattice embedding, and
claim the bound of minkowski_bound or svp_bound; the bounded oracles built
on them guarantee the same formulas.  The self-reduction then halves the
coefficient range round by round using the small-coefficient
representation trick, tracking an exact error bound through every round.
It reads k, rho and each round's bound from the oracle handles: the
pipeline reads rho from the approximate oracle and builds the bounded
handle of its kind (a body handle for a Minkowski oracle, an embedding
handle for an SVP one) at k = max(1, ceil(3 rho)), each round reads k from
the handle below it, and each round's handle guarantees round_bound over
that handle.
Every balancing-point reply is read once, by nbp.verify, in the handle or
route that owns the claim, and callers read the NbpSolution it returns;
the bounded handles ask the oracle's solver directly, since their check is
the single-call route's.  Each entry point returns a ReductionResult
(solution, claimed bound, formula), or for one halving round the solution
and the branch taken.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt

from .errors import InternalContradiction, InvalidParams, PreconditionFailed
from .geometry import CubeSlabBody
from .lattice import LatticeBasis
from .linalg import RMatrix
from .nbp import NbpInstance, NbpSolution, karmarkar_karp, verify
from .oracles import BoundedNbpOracle, MinkowskiOracle, SvpInfOracle
from .rationals import common_denominator_ints, frac


@dataclass(frozen=True)
class ReductionResult:
    """A verified solution together with its exact tracked bound."""

    solution: NbpSolution
    claimed_bound: Fraction
    formula: str

    @property
    def bound_satisfied(self) -> bool:
        return self.solution.error <= self.claimed_bound


# Both bounds are pure and asked for many times per (n, k, rho), once per
# reply and once per body or threshold test; each is one Fraction power.
@lru_cache(maxsize=256)
def minkowski_bound(n: int, k: int, rho: Fraction) -> Fraction:
    """rho n (rho/(k+1))^(n-1): the Minkowski route's bound at dimension n."""
    return rho * n * Fraction(rho, k + 1) ** (n - 1)


@lru_cache(maxsize=256)
def svp_bound(n: int, k: int, rho: Fraction) -> Fraction:
    """2 n k rho (rho/k)^n: the SVP route's bound at dimension n."""
    return 2 * n * k * rho * Fraction(rho, k) ** n


def balancing_body(inst: NbpInstance, k: int, rho) -> CubeSlabBody:
    """The cube-slab body whose Minkowski point balances a with coefficients <= k.

    K = {x in (-(k+1)/rho, (k+1)/rho)^n : |<a,x>| <= delta} with
    delta = minkowski_bound(n, k, rho) / rho = n (rho/(k+1))^(n-1); slicing
    the cube along <a, x> shows vol(K) >= 2^n.
    """
    rho = frac(rho)
    if rho <= 0:
        raise InvalidParams("rho must be positive")
    return CubeSlabBody(inst, minkowski_bound(inst.n, k, rho) / rho, Fraction(k + 1) / rho)


def nbp_via_minkowski(inst: NbpInstance, k: int, oracle: MinkowskiOracle) -> ReductionResult:
    """Balance via one Minkowski oracle call on the cube-slab body.

    The oracle's handle checks the point in the rho-dilated body, that is
    |x|_inf <= k and |<a,x>| <= minkowski_bound(n, k, rho), and returns it
    as the solution; at rho = 1 this is the plain n (1/(k+1))^(n-1) bound.
    """
    if k < 1:
        raise InvalidParams("coefficient bound must be >= 1")
    return ReductionResult(
        oracle.find(balancing_body(inst, k, oracle.rho)),
        minkowski_bound(inst.n, k, oracle.rho),
        "minkowski-to-nbp",
    )


def svp_embedding_basis(inst: NbpInstance, k: int, rho) -> LatticeBasis:
    """The (n+1) x (n+1) determinant-1 embedding of the balancing instance."""
    rho = frac(rho)
    if rho <= 0:
        raise InvalidParams("rho must be positive")
    n = inst.n
    scale = (Fraction(k) / rho) ** n
    # diagonal rho/k, then the last row scale p_i / (2nk den) and scale, over one denominator
    (d, t, s), den = common_denominator_ints([rho / k, scale / (2 * n * k * inst.den), scale])
    rows = [[d if j == i else 0 for j in range(n + 1)] for i in range(n)]
    rows.append([t * p for p in inst.ints] + [s])
    return LatticeBasis(RMatrix.from_ints(rows, den))


def _svp_point(inst: NbpInstance, k: int, oracle: SvpInfOracle) -> tuple[int, ...]:
    """The point y of one max-norm SVP oracle call, for its caller to verify.

    When rho (rho/k)^n >= 1/2, that is svp_bound(n, k, rho) =
    2nk rho (rho/k)^n >= nk, the claimed bound is >= 1 and y = e_1 already
    satisfies it, without an oracle call; otherwise the oracle's short
    vector has a zero last coordinate, and its first n lattice coefficients
    y balance a.
    """
    rho = oracle.rho
    n = inst.n
    if svp_bound(n, k, rho) >= n * k:
        return (1,) + (0,) * (n - 1)
    basis = svp_embedding_basis(inst, k, rho)
    if basis.det != 1:
        raise InternalContradiction("the SVP embedding basis does not have determinant 1")
    coeffs = oracle.find(basis)
    if coeffs[n] != 0:
        raise InternalContradiction(
            "y_{n+1} != 0 below the trivial threshold; treating as an oracle fault"
        )
    y = coeffs[:n]
    if not any(y):
        raise InternalContradiction("recovered coefficient vector is zero")
    return y


def nbp_via_svp(inst: NbpInstance, k: int, oracle: SvpInfOracle) -> ReductionResult:
    """Balance via one max-norm SVP oracle call on the det-1 embedding
    (_svp_point); an error above svp_bound is an InternalContradiction."""
    if k < 1:
        raise InvalidParams("coefficient bound must be >= 1")
    bound = svp_bound(inst.n, k, oracle.rho)
    solution = verify(inst, _svp_point(inst, k, oracle), k)
    if solution.error > bound:
        raise InternalContradiction(
            f"recovered error {solution.error} exceeds the proven bound {bound}"
        )
    return ReductionResult(solution, bound, "svp-to-nbp")


def represent_small_coeffs(k: int, r: int, j: int) -> list[int]:
    """Coefficients lambda_1..lambda_k, |lambda_i| <= max(r-1, k-r), representing j*beta.

    beta = alpha_r + ... + alpha_k for any alpha_1..alpha_k.  For |j| < r
    the representation j*beta = sum_{i>=r} j alpha_i is exact; for |j| >= r
    the identity r*beta = sum_{i<r} (-i) alpha_i + sum_{i>=r} (r-i) alpha_i
    + S with S = sum_i i*alpha_i leaves residual exactly |S|.  Negative j by
    symmetry.  The coefficients do not depend on the alphas' values.
    """
    if not 0 < r < k:
        raise InvalidParams(f"need 0 < r < k, got r={r}, k={k}")
    if abs(j) > k:
        raise InvalidParams(f"need |j| <= k, got j={j}")
    sign = -1 if j < 0 else 1
    jj = abs(j)
    if jj < r:
        lam = [0] * (r - 1) + [jj] * (k - r + 1)
    else:
        lam = [-i for i in range(1, r)] + [jj - i for i in range(r, k + 1)]
    return [sign * v for v in lam]


@dataclass(frozen=True)
class HalveOutcome:
    solution: NbpSolution
    branch: str  # "small-coefficients" | "small-block-value" | "recombined"


def round_bound(d: int, oracle: BoundedNbpOracle) -> Fraction:
    """2 sqrt(d) g(sqrt(d)), g the oracle's guarantee: one halving round's bound at d."""
    m = isqrt(d)
    if m * m != d:
        raise PreconditionFailed(f"dimension {d} is not a perfect square")
    return 2 * m * oracle.guarantee(m)


def halve_coefficients(inst: NbpInstance, r: int, oracle: BoundedNbpOracle) -> HalveOutcome:
    """One block round: coefficients {-k..k}, k = oracle.k, down to max(r-1, k-r).

    Splits [n] into sqrt(n) blocks of size sqrt(n), balances each block with
    the oracle, and either exits early (a block already has small
    coefficients, or a block value b_l is itself tiny) or balances the block
    values and recombines through the small-coefficient representation.
    The exact tracked bound is round_bound(n, oracle) for all branches; the
    recombined branch verifies x and re-checks it, and the early exits meet
    it by the oracle's own guarantee on one block, whose checked reply
    gives their exact error: the block's, or |b_l| = |<a, x>|.  Returns the
    solution and the branch taken.
    """
    k = oracle.k
    if not 0 < r < k:
        raise InvalidParams(f"need 0 < r < k, got r={r}, k={k}")
    n = inst.n
    bound = round_bound(n, oracle)
    m = isqrt(n)
    g_m = oracle.guarantee(m)
    out_k = max(r - 1, k - r)

    block_vectors: list[tuple[int, ...]] = []
    for block in range(m):
        lo = block * m
        block_sol = oracle.solve(inst.restrict(range(lo, lo + m)))
        x_sub = block_sol.x
        if max(abs(v) for v in x_sub) <= r - 1:
            x_full = (0,) * lo + x_sub + (0,) * (n - lo - m)
            return HalveOutcome(NbpSolution(x_full, out_k, block_sol.error), "small-coefficients")
        block_vectors.append(x_sub)

    # x_l = sum_i i * x_{l,i} with disjoint {-1,0,1} layers x_{l,i} = the signs of
    # x_l's entries of magnitude i; b_l = <a, x_{l,r} + ... + x_{l,k}> * den, the
    # value of the layers of magnitude >= r
    b_ints = [sum(p if v > 0 else -p
                  for p, v in zip(inst.ints[block * m : (block + 1) * m], x_sub) if abs(v) >= r)
              for block, x_sub in enumerate(block_vectors)]

    for block, b in enumerate(b_ints):
        b_value = abs(Fraction(b, inst.den))
        if b_value <= g_m:
            # nonzero: a block with every |v| < r took the first exit
            combined = [0] * n
            for i, v in enumerate(block_vectors[block], block * m):
                if abs(v) >= r:
                    combined[i] = 1 if v > 0 else -1
            return HalveOutcome(NbpSolution(tuple(combined), out_k, b_value), "small-block-value")

    # balance the block values; they satisfy |b_l| <= m, so scale into [-1,1]
    b_inst = NbpInstance.from_ints(b_ints, inst.den * m)
    y = oracle.solve(b_inst).x
    x = [0] * n
    for block in range(m):
        if y[block] == 0:
            continue
        lam = represent_small_coeffs(k, r, y[block])
        for i, v in enumerate(block_vectors[block], block * m):
            if v:
                x[i] = lam[abs(v) - 1] * (1 if v > 0 else -1)
    if not any(x):
        raise InternalContradiction(
            "recombined vector vanished although all block values were large"
        )
    sol = verify(inst, x, out_k)
    if sol.error > bound:
        raise InternalContradiction(f"recombined error {sol.error} exceeds tracked bound {bound}")
    return HalveOutcome(sol, "recombined")


def default_halving_schedule(k: int) -> list[int]:
    """r = ceil(k/2) per round until the coefficient bound reaches 1."""
    schedule = []
    cur = k
    while cur > 1:
        r = (cur + 1) // 2
        schedule.append(r)
        cur = max(r - 1, cur - r)
    return schedule


def full_self_reduction(inst: NbpInstance, oracle: BoundedNbpOracle) -> ReductionResult:
    """Iterate the halving rounds until coefficients lie in {-1, 0, 1}.

    The rounds follow default_halving_schedule(oracle.k), r = ceil(k_i/2)
    each round.  Each round is a bounded oracle wrapped around
    halve_coefficients on the round below, whose guarantee is round_bound
    over that round: so every oracle reply, the outermost included, is
    re-verified against its own tracked guarantee, and the outermost reply,
    of coefficient bound 1, claims the composed bound.  Reading that bound
    at n first requires n^(2^-i) integral for every round i, before any
    oracle call.
    """
    level = oracle
    for i, r in enumerate(default_halving_schedule(oracle.k), 1):

        def solver(sub: NbpInstance, _r=r, _inner=level) -> tuple[int, ...]:
            return halve_coefficients(sub, _r, _inner).solution.x

        level = BoundedNbpOracle(
            k=max(r - 1, level.k - r),
            guarantee=lambda d, _inner=level: round_bound(d, _inner),
            solver=solver,
            name=f"halved({oracle.name}, round {i})",
        )
    bound = level.guarantee(inst.n)
    return ReductionResult(level.solve(inst), bound, "full-self-reduction")


def minkowski_bounded_oracle(k: int, oracle: MinkowskiOracle) -> BoundedNbpOracle:
    """Bounded balancing oracle realized by cube-slab Minkowski calls.

    It guarantees minkowski_bound(d, k, rho), the bound nbp_via_minkowski
    claims at dimension d.  balancing_body(sub, k, rho).dilate(rho) has box
    limit k and slab bound minkowski_bound(d, k, rho), so this handle's
    check is MinkowskiOracle.find's, and it asks the oracle's solver directly.
    """
    rho = oracle.rho
    return BoundedNbpOracle(
        k=k,
        guarantee=lambda d: minkowski_bound(d, k, rho),
        solver=lambda sub: oracle.solver(balancing_body(sub, k, rho)),
        name=f"minkowski-bounded(k={k}, rho={rho})",
    )


def svp_bounded_oracle(k: int, oracle: SvpInfOracle) -> BoundedNbpOracle:
    """Bounded balancing oracle realized by det-1 SVP embeddings.

    It guarantees svp_bound(d, k, rho), the bound nbp_via_svp claims at
    dimension d, and checks nbp_via_svp's point (_svp_point) once: a reply
    over the bound is its OracleContractViolation.
    """
    return BoundedNbpOracle(
        k=k,
        guarantee=lambda d: svp_bound(d, k, oracle.rho),
        solver=lambda sub: _svp_point(sub, k, oracle),
        name=f"svp-bounded(k={k})",
    )


# Large-rho cutoff of nbp_full_pipeline.  The paper's is log n / (48 log log n),
# which is < 1 for every desk-scale n and would send even a rho = 1 exact oracle
# to the Karmarkar-Karp fallback; floored at 2 it keeps the reduction path live
# whenever rho < 2.  The raw expression first passes 2 at log2 n = 950, so the
# cutoff is the constant 2 at every n a machine holds.
FALLBACK_RHO = 2


def nbp_full_pipeline(inst: NbpInstance, oracle: MinkowskiOracle | SvpInfOracle) -> ReductionResult:
    """Full pipeline: rho-approximate oracle -> bounded oracle -> sign vector.

    The bounded handle is the balancing oracle with coefficients in {-k..k}
    that the oracle realizes: minkowski_bounded_oracle for a Minkowski
    oracle, svp_bounded_oracle for a max-norm SVP one.  The self-reduction
    runs it at k = max(1, ceil(3 rho)), rho = oracle.rho.
    At rho >= FALLBACK_RHO Karmarkar-Karp answers instead, with the trivial
    bound 1; the exact oracles have rho = 1, while the LLL oracle's
    rho = 2^ceil(n/4) is >= 2 at every n, so ``--oracle lll --full`` always
    takes the fallback.
    """
    if oracle.rho >= FALLBACK_RHO:
        return ReductionResult(karmarkar_karp(inst), Fraction(1), "karmarkar-karp-fallback")
    bounded = minkowski_bounded_oracle if isinstance(oracle, MinkowskiOracle) else svp_bounded_oracle
    return full_self_reduction(inst, bounded(max(1, math.ceil(3 * oracle.rho)), oracle))
