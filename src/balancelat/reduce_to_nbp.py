"""Solving number balancing with Minkowski or SVP oracles.

The two entry constructions build a cube-slab body (whose volume argument
guarantees a Minkowski point) or a determinant-1 lattice embedding; the
self-reduction then halves the coefficient range round by round using the
small-coefficient representation trick, tracking an exact error bound
through every round.  All oracle replies are re-verified before use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt
from typing import Callable, Optional, Sequence

from .errors import (
    IncompatibleDimension,
    InternalContradiction,
    InvalidParams,
    NotPerfectSquare,
    ParameterOutOfRange,
)
from .geometry import CubeSlabBody
from .lattice import LatticeBasis
from .linalg import RMatrix, RVector, determinant
from .nbp import NbpInstance, NbpSolution, instance_inner, karmarkar_karp, verify
from .oracles import BoundedNbpOracle, MinkowskiOracle, SvpInfOracle
from .rationals import frac


@dataclass
class ReductionResult:
    """A verified solution together with its exact tracked bound."""

    solution: NbpSolution
    claimed_bound: Fraction
    formula: str
    details: dict = field(default_factory=dict)

    @property
    def bound_satisfied(self) -> bool:
        return self.solution.error <= self.claimed_bound


def balancing_body(a: RVector, k: int, rho) -> CubeSlabBody:
    """The cube-slab body whose Minkowski point balances a with coefficients <= k.

    K = {x in (-(k+1)/rho, (k+1)/rho)^n : |<a,x>| <= delta} with
    delta = n (rho/(k+1))^(n-1); slicing the cube along <a, x> shows
    vol(K) >= 2^n.
    """
    rho = frac(rho)
    n = a.dim
    delta = n * (rho / (k + 1)) ** (n - 1)
    body = CubeSlabBody(a, delta, Fraction(k + 1) / rho, open_box=True)
    body.volume_promise = Fraction(2**n)
    return body


def nbp_via_minkowski(inst: NbpInstance, k: int, oracle: MinkowskiOracle) -> ReductionResult:
    """Balance via one Minkowski oracle call on the cube-slab body.

    The returned point lies in the rho-dilated body (verified), hence
    |x|_inf <= k and |<a,x>| <= rho * n (rho/(k+1))^(n-1); at rho = 1 this is
    the plain n (1/(k+1))^(n-1) bound.
    """
    if k < 1:
        raise InvalidParams("coefficient bound must be >= 1")
    body = balancing_body(inst.a, k, oracle.rho)
    x = oracle.find(body)
    bound = oracle.rho * body.slab_bound
    solution = verify(inst, x, k)
    return ReductionResult(
        solution,
        bound,
        "minkowski-to-nbp",
        details={"rho": oracle.rho, "delta": body.slab_bound, "k": k},
    )


def svp_embedding_basis(a: RVector, k: int, rho) -> LatticeBasis:
    """The (n+1) x (n+1) determinant-1 embedding of the balancing instance."""
    rho = frac(rho)
    n = a.dim
    scale = (Fraction(k) / rho) ** n
    rows = []
    for i in range(n):
        row = [Fraction(0)] * (n + 1)
        row[i] = rho / k
        rows.append(row)
    last = [scale * a[i] / (2 * n * k) for i in range(n)] + [scale]
    rows.append(last)
    return LatticeBasis(RMatrix(rows))


def nbp_via_svp(inst: NbpInstance, k: int, oracle: SvpInfOracle) -> ReductionResult:
    """Balance via one max-norm SVP oracle call on the det-1 embedding.

    When rho (rho/k)^n >= 1/2 the claimed bound 2nk rho (rho/k)^n is >= 1 and
    x = e_1 already satisfies it; otherwise the oracle's short vector has a
    zero last coordinate, and its first n lattice coefficients balance a.
    """
    if k < 1:
        raise InvalidParams("coefficient bound must be >= 1")
    rho = oracle.rho
    n = inst.n
    bound = 2 * n * k * rho * (rho / k) ** n
    trivial = rho * (rho / k) ** n >= Fraction(1, 2)
    if trivial:
        x = (1,) + (0,) * (n - 1)
        return ReductionResult(
            verify(inst, x, k),
            bound,
            "svp-to-nbp",
            details={"rho": rho, "k": k, "branch": "trivial"},
        )
    basis = svp_embedding_basis(inst.a, k, rho)
    if determinant(basis.B) != 1:
        raise InternalContradiction("the SVP embedding basis does not have determinant 1")
    vec, coeffs = oracle.find(basis)
    if coeffs[n] != 0:
        raise InternalContradiction(
            "y_{n+1} != 0 below the trivial threshold; treating as an oracle fault"
        )
    y = coeffs[:n]
    if not any(y):
        raise InternalContradiction("recovered coefficient vector is zero")
    solution = verify(inst, y, k)
    if solution.error > bound:
        raise InternalContradiction(
            f"recovered error {solution.error} exceeds the proven bound {bound}"
        )
    return ReductionResult(
        solution,
        bound,
        "svp-to-nbp",
        details={"rho": rho, "k": k, "branch": "embedding"},
    )


def represent_small_coeffs(
    alphas: Sequence[Fraction],
    r: int,
    j: int,
    slack: Optional[Fraction] = None,
) -> list[int]:
    """Coefficients lambda_i with |lambda_i| <= max(r-1, k-r) representing j*beta.

    beta = alpha_r + ... + alpha_k.  For |j| < r the representation
    j*beta = sum_{i>=r} j alpha_i is exact; for |j| >= r the identity
    r*beta = sum_{i<r} (-i) alpha_i + sum_{i>=r} (r-i) alpha_i + S with
    S = sum_i i*alpha_i leaves residual exactly |S| (<= slack when given).
    Negative j by symmetry.
    """
    k = len(alphas)
    if not 0 < r < k:
        raise ParameterOutOfRange(f"need 0 < r < k, got r={r}, k={k}")
    if abs(j) > k:
        raise ParameterOutOfRange(f"need |j| <= k, got j={j}")
    if slack is not None:
        s = sum((Fraction(i + 1) * alphas[i] for i in range(k)), Fraction(0))
        if abs(s) > slack:
            raise ParameterOutOfRange(f"|sum i*alpha_i| = {abs(s)} exceeds slack {slack}")
    sign = -1 if j < 0 else 1
    jj = abs(j)
    if jj < r:
        lam = [0] * (r - 1) + [jj] * (k - r + 1)
    else:
        lam = [-i for i in range(1, r)] + [jj - i for i in range(r, k + 1)]
    return [sign * v for v in lam]


@dataclass
class HalveOutcome:
    result: ReductionResult
    branch: str  # "small-coefficients" | "small-block-value" | "recombined"


def halve_coefficients(
    inst: NbpInstance, k: int, r: int, oracle: BoundedNbpOracle
) -> HalveOutcome:
    """One block round: coefficients {-k..k} down to max(r-1, k-r).

    Splits [n] into sqrt(n) blocks of size sqrt(n), balances each block with
    the oracle, and either exits early (a block already has small
    coefficients, or a block value b_l is itself tiny) or balances the block
    values and recombines through the small-coefficient representation.
    The exact tracked bound is 2 sqrt(n) g(sqrt(n)) for all branches.
    """
    if not 0 < r < k:
        raise ParameterOutOfRange(f"need 0 < r < k, got r={r}, k={k}")
    if oracle.k != k:
        raise InvalidParams("oracle coefficient bound does not match k")
    n = inst.n
    m = isqrt(n)
    if m * m != n:
        raise NotPerfectSquare(f"n = {n} is not a perfect square")
    out_k = max(r - 1, k - r)
    g_m = oracle.guarantee(m)
    bound = 2 * m * g_m
    formula = "halve-coefficients"

    block_vectors: list[tuple[int, ...]] = []
    for block in range(m):
        lo = block * m
        sub = inst.restrict(range(lo, lo + m))
        x_sub = oracle.solve(sub)
        x_full = (0,) * lo + x_sub + (0,) * (n - lo - m)
        if max(abs(v) for v in x_sub) <= r - 1:
            return HalveOutcome(
                ReductionResult(
                    verify(inst, x_full, out_k),
                    bound,
                    formula,
                    details={"k": k, "r": r, "block": block},
                ),
                "small-coefficients",
            )
        block_vectors.append(x_full)

    # x_l = sum_i i * x_{l,i} with disjoint {-1,0,1} layers per magnitude
    layers: list[list[tuple[int, ...]]] = []
    alphas: list[list[Fraction]] = []
    b_values: list[Fraction] = []
    for block, x_full in enumerate(block_vectors):
        lv = []
        av = []
        for mag in range(1, k + 1):
            layer = tuple(
                (1 if v == mag else -1 if v == -mag else 0) for v in x_full
            )
            lv.append(layer)
            av.append(instance_inner(inst, layer))
        layers.append(lv)
        alphas.append(av)
        b_values.append(sum(av[r - 1 :], Fraction(0)))

    for block, b in enumerate(b_values):
        if abs(b) <= g_m:
            combined = [0] * n
            for mag in range(r, k + 1):
                for i, v in enumerate(layers[block][mag - 1]):
                    combined[i] += v
            return HalveOutcome(
                ReductionResult(
                    verify(inst, combined, out_k),
                    bound,
                    formula,
                    details={"k": k, "r": r, "block": block},
                ),
                "small-block-value",
            )

    # balance the block values; they satisfy |b_l| <= m, so scale into [-1,1]
    b_inst = NbpInstance.from_values([b / m for b in b_values])
    y = oracle.solve(b_inst)
    x = [0] * n
    for block in range(m):
        if y[block] == 0:
            continue
        lam = represent_small_coeffs(alphas[block], r, y[block])
        for mag in range(1, k + 1):
            coeff = lam[mag - 1]
            if coeff == 0:
                continue
            for i, v in enumerate(layers[block][mag - 1]):
                x[i] += coeff * v
    if not any(x):
        raise InternalContradiction(
            "recombined vector vanished although all block values were large"
        )
    solution = verify(inst, x, out_k)
    if solution.error > bound:
        raise InternalContradiction(
            f"recombined error {solution.error} exceeds tracked bound {bound}"
        )
    return HalveOutcome(
        ReductionResult(
            solution,
            bound,
            formula,
            details={"k": k, "r": r, "block_errors": b_values},
        ),
        "recombined",
    )


def default_halving_schedule(k: int) -> list[int]:
    """r = ceil(k/2) per round until the coefficient bound reaches 1."""
    schedule = []
    cur = k
    while cur > 1:
        r = (cur + 1) // 2
        schedule.append(r)
        cur = max(r - 1, cur - r)
    return schedule


def composed_guarantee(base: Callable[[int], Fraction], rounds: int) -> Callable[[int], Fraction]:
    """g_{i+1}(d) = 2 sqrt(d) g_i(sqrt(d)), iterated ``rounds`` times."""

    def g(d: int, level: int = rounds) -> Fraction:
        if level == 0:
            return base(d)
        m = isqrt(d)
        if m * m != d:
            raise IncompatibleDimension(f"dimension {d} is not a perfect square")
        return 2 * m * g(m, level - 1)

    return g


def full_self_reduction(
    inst: NbpInstance,
    k: int,
    oracle: BoundedNbpOracle,
    r_schedule: Optional[Sequence[int]] = None,
) -> ReductionResult:
    """Iterate the halving rounds until coefficients lie in {-1, 0, 1}.

    The default schedule takes r = ceil(k_i/2) each round; an explicit
    r_schedule may spread the descent over more rounds (each must satisfy
    0 < r_i < k_i and the last round must land on coefficient bound 1),
    which keeps the innermost oracle dimension small.  Requires
    n^(2^-i) integral for every round i.  Every intermediate oracle reply is
    re-verified against its own tracked guarantee, and the result carries the
    exact composed bound; the paper's closed form 2^(-n^(1/(3k))) is reported
    (not asserted) when its k <= log n / (6 log log n) precondition holds.
    """
    if k < 1:
        raise ParameterOutOfRange("k must be >= 1")
    schedule = list(r_schedule) if r_schedule is not None else default_halving_schedule(k)
    cur = k
    ks = [k]
    for r in schedule:
        if not 0 < r < cur:
            raise ParameterOutOfRange(f"round r={r} invalid for coefficient bound {cur}")
        cur = max(r - 1, cur - r)
        ks.append(cur)
    if cur != 1:
        raise ParameterOutOfRange(f"schedule ends at coefficient bound {cur}, not 1")

    dims = [inst.n]
    for _ in schedule:
        m = isqrt(dims[-1])
        if m * m != dims[-1]:
            raise IncompatibleDimension(
                f"dimension {dims[-1]} is not a perfect square for the requested rounds"
            )
        dims.append(m)

    closed_form = None
    if k >= 1 and inst.n > 2:
        log_n = math.log2(inst.n)
        if log_n > 1 and math.log2(log_n) > 0 and k <= log_n / (6 * math.log2(log_n)):
            closed_form = f"2^(-n^(1/{3 * k}))"

    details = {
        "rounds": [
            {"k": ks[i], "r": schedule[i], "inner_dim": dims[i + 1]}
            for i in range(len(schedule))
        ],
        "paper_closed_form": closed_form,
    }

    if not schedule:
        x = oracle.solve(inst)
        return ReductionResult(
            verify(inst, x, 1), oracle.guarantee(inst.n), "full-self-reduction", details
        )

    level = oracle
    for i, r in enumerate(schedule[:-1]):
        k_i, cap = ks[i], ks[i + 1]
        inner = level

        def solver(sub: NbpInstance, _k=k_i, _r=r, _inner=inner) -> tuple[int, ...]:
            return halve_coefficients(sub, _k, _r, _inner).result.solution.x

        level = BoundedNbpOracle(
            k=cap,
            guarantee=composed_guarantee(oracle.guarantee, i + 1),
            solver=solver,
            name=f"halved({oracle.name}, round {i + 1})",
        )

    outcome = halve_coefficients(inst, ks[-2], schedule[-1], level)
    result = outcome.result
    result.formula = "full-self-reduction"
    result.details.update(details)
    result.claimed_bound = composed_guarantee(oracle.guarantee, len(schedule))(inst.n)
    return result


def minkowski_bounded_oracle(k: int, oracle: MinkowskiOracle) -> BoundedNbpOracle:
    """Bounded balancing oracle realized by cube-slab Minkowski calls."""
    rho = oracle.rho

    def guarantee(d: int) -> Fraction:
        return rho * d * (rho / Fraction(k + 1)) ** (d - 1)

    return BoundedNbpOracle(
        k=k,
        guarantee=guarantee,
        solver=lambda sub: nbp_via_minkowski(sub, k, oracle).solution.x,
        name=f"minkowski-bounded(k={k}, rho={rho})",
    )


def svp_bounded_oracle(
    k: int, oracle_family: Callable[[int], SvpInfOracle]
) -> BoundedNbpOracle:
    """Bounded balancing oracle realized by det-1 SVP embeddings.

    ``oracle_family(dim)`` supplies the oracle for lattice dimension ``dim``
    (= instance dimension + 1), since approximate oracles claim a
    dimension-dependent rho.
    """

    def guarantee(d: int) -> Fraction:
        rho = oracle_family(d + 1).rho
        return 2 * d * k * rho * (rho / k) ** d

    return BoundedNbpOracle(
        k=k,
        guarantee=guarantee,
        solver=lambda sub: nbp_via_svp(sub, k, oracle_family(sub.n + 1)).solution.x,
        name=f"svp-bounded(k={k})",
    )


def _fallback_threshold(n: int) -> float:
    """Large-rho cutoff: the paper's log n / (48 log log n), floored at 2.

    The raw expression is < 1 for every desk-scale n, which would send even a
    rho = 1 exact oracle to the Karmarkar-Karp fallback; the floor keeps the
    reduction path live whenever rho < 2.
    """
    if n <= 4:
        return 2.0
    log_n = math.log2(n)
    return max(2.0, log_n / (48 * math.log2(max(2.0, log_n))))


def nbp_full_pipeline(
    inst: NbpInstance,
    rho: Fraction,
    bounded: Callable[[int], BoundedNbpOracle],
) -> ReductionResult:
    """Full pipeline: rho-approximate oracle -> bounded oracle -> sign vector.

    ``bounded(k)`` is the balancing oracle with coefficients in {-k..k} that
    a rho-approximate Minkowski or max-norm SVP oracle realizes
    (minkowski_bounded_oracle, svp_bounded_oracle); the self-reduction runs
    it at k = max(1, ceil(3 rho)).  At large rho Karmarkar-Karp answers
    instead, with the trivial bound 1.
    """
    if float(rho) >= _fallback_threshold(inst.n):
        sol = karmarkar_karp(inst)
        return ReductionResult(
            sol,
            Fraction(1),
            "karmarkar-karp-fallback",
            details={"rho": rho, "reason": "rho above threshold"},
        )
    k = max(1, math.ceil(3 * rho))
    result = full_self_reduction(inst, k, bounded(k))
    result.details["k"] = k
    result.details["rho"] = rho
    return result
