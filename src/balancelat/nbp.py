"""Number balancing instances, solutions, and the four baseline solvers.

An instance is a vector a in [-1,1]^n; a solution is a nonzero integer vector
x with |x_i| <= k whose quality is the exact rational |<a,x>|.  The exact
solvers (full enumeration and meet-in-the-middle) break ties by returning the
lexicographically smallest witness, so they are directly comparable and safe
to parallelize with a deterministic reduce.
"""

from __future__ import annotations

import bisect
import heapq
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    BudgetExceeded,
    CoefficientOutOfRange,
    DimensionTooSmall,
    InternalContradiction,
    InvalidParams,
    ZeroVector,
)
from .linalg import RVector
from .rationals import common_denominator_ints

DEFAULT_BUDGET = 10**8
BUDGET_ENV = "BALANCELAT_BUDGET"


def enumeration_budget(override: int | None = None) -> int:
    """The node budget of an enumeration: the override, else $BALANCELAT_BUDGET, else 10^8."""
    if override is not None:
        return override
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError:
        value = None
    if value is None or value < 1:
        raise InvalidParams(f"{BUDGET_ENV} must be an integer >= 1, got {raw!r}")
    return value


@dataclass(frozen=True)
class NbpInstance:
    """A balancing instance: n numbers in [-1, 1]."""

    n: int
    a: RVector

    def __post_init__(self):
        if self.n < 1 or self.a.dim != self.n:
            raise InvalidParams("instance dimension mismatch")
        if any(abs(e) > 1 for e in self.a):
            raise InvalidParams("instance entries must lie in [-1, 1]")

    @staticmethod
    def from_values(values: Iterable) -> "NbpInstance":
        v = RVector(values)
        return NbpInstance(v.dim, v)

    def scaled_ints(self) -> tuple[list[int], int]:
        """Entries as integers over a common denominator (for fast search)."""
        return common_denominator_ints(self.a)

    def restrict(self, indices: Sequence[int]) -> "NbpInstance":
        return NbpInstance.from_values([self.a[i] for i in indices])


@dataclass(frozen=True)
class NbpSolution:
    """A verified solution: x != 0, |x|_inf <= coeff_bound, error = |<a,x>|."""

    x: tuple[int, ...]
    coeff_bound: int
    error: Fraction


def verify(inst: NbpInstance, x: Sequence[int], k: int) -> NbpSolution:
    """Recompute the error of x exactly and validate the solution contract."""
    xs = tuple(int(v) for v in x)
    if len(xs) != inst.n:
        raise InvalidParams("solution dimension mismatch")
    if all(v == 0 for v in xs):
        raise ZeroVector("solution vector is zero")
    if any(abs(v) > k for v in xs):
        raise CoefficientOutOfRange(f"|x|_inf exceeds declared bound {k}")
    error = abs(sum((ai * xi for ai, xi in zip(inst.a, xs)), Fraction(0)))
    return NbpSolution(xs, k, error)


def brute_force_min(inst: NbpInstance, k: int, budget: int | None = None) -> NbpSolution:
    """True minimum of |<a,x>| over x in {-k..k}^n \\ {0} by full enumeration.

    Returns the lexicographically smallest minimizer.  The search runs over
    integer-scaled entries with interval pruning; pruning only discards
    subtrees that are provably >= the incumbent, and equal-error leaves found
    later lose ties anyway, so the lexicographic contract is preserved.
    """
    if k < 1:
        raise InvalidParams("coefficient bound must be >= 1")
    limit = enumeration_budget(budget)
    if (2 * k + 1) ** inst.n > limit:
        raise BudgetExceeded(f"(2k+1)^n = {(2 * k + 1) ** inst.n} exceeds budget {limit}")
    ints, den = inst.scaled_ints()
    n = inst.n
    # suffix[i] = k * sum of |a_j| for j >= i, scaled
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + k * abs(ints[i])

    best: list = [None, None]  # [error_int, witness]
    prefix = [0] * n

    def descend(i: int, s: int, nonzero_seen: bool) -> None:
        if i == n:
            if nonzero_seen:
                err = abs(s)
                if best[0] is None or err < best[0]:
                    best[0] = err
                    best[1] = tuple(prefix)
            return
        if best[0] is not None and abs(s) - suffix[i] >= best[0]:
            # nothing below can beat the incumbent, and equal-error leaves
            # found later lose the lexicographic tie anyway
            return
        lo = -k
        hi = 0 if not nonzero_seen else k
        ai = ints[i]
        for v in range(lo, hi + 1):
            prefix[i] = v
            descend(i + 1, s + v * ai, nonzero_seen or v != 0)
        prefix[i] = 0

    # Minimizers come in +-pairs and the lexicographically smallest one has a
    # negative leading entry, so only sign patterns with first nonzero < 0
    # are enumerated.
    descend(0, 0, False)
    if best[1] is None:
        raise InternalContradiction("the enumeration reached no nonzero leaf")
    return verify(inst, best[1], k)


def _half_sums(ints: Sequence[int], k: int) -> list[tuple[int, tuple[int, ...]]]:
    """All (sum, x) pairs over x in {-k..k}^m, in lexicographic order of x."""
    items = [(0, ())]
    for a in ints:
        # expanding prefixes in order with v ascending keeps items in lex order
        items = [
            (s + v * a, x + (v,)) for s, x in items for v in range(-k, k + 1)
        ]
    return items


def mitm_min(inst: NbpInstance, k: int, budget: int | None = None) -> NbpSolution:
    """Exact minimum by meet-in-the-middle; agrees with brute_force_min.

    Coordinates split into halves; left partial sums are sorted and each right
    sum binary-searches its closest complements.  A second pass recovers the
    lexicographically smallest witness of the optimal error.
    """
    if k < 1:
        raise InvalidParams("coefficient bound must be >= 1")
    limit = enumeration_budget(budget)
    nl = (inst.n + 1) // 2
    if (2 * k + 1) ** nl > limit:
        raise BudgetExceeded(f"(2k+1)^ceil(n/2) exceeds budget {limit}")
    ints, den = inst.scaled_ints()
    left_ints, right_ints = ints[:nl], ints[nl:]
    left = _half_sums(left_ints, k)
    right = _half_sums(right_ints, k)

    left_sorted = sorted(s for s, _ in left)
    min_abs_nonzero_left = min(
        (abs(s) for s, x in left if any(x)), default=None
    )

    best: int | None = None
    for s_r, x_r in right:
        if any(x_r):
            idx = bisect.bisect_left(left_sorted, -s_r)
            for j in (idx - 1, idx):
                if 0 <= j < len(left_sorted):
                    cand = abs(left_sorted[j] + s_r)
                    if best is None or cand < best:
                        best = cand
        elif min_abs_nonzero_left is not None:
            if best is None or min_abs_nonzero_left < best:
                best = min_abs_nonzero_left
    if best is None:
        # n == 0 cannot happen (instances have n >= 1); left always has nonzero x
        raise InvalidParams("empty search space")

    # witness pass: lexicographically smallest x achieving the optimum
    min_xr: dict[int, tuple[int, ...]] = {}
    min_xr_nonzero: dict[int, tuple[int, ...]] = {}
    for s_r, x_r in right:
        if s_r not in min_xr:
            min_xr[s_r] = x_r
        if any(x_r) and s_r not in min_xr_nonzero:
            min_xr_nonzero[s_r] = x_r
    for s_l, x_l in left:
        targets = {best - s_l, -best - s_l}
        table = min_xr if any(x_l) else min_xr_nonzero
        hits = [table[t] for t in targets if t in table]
        if hits:
            return verify(inst, x_l + min(hits), k)
    raise InternalContradiction("optimal error lost between passes")


def pigeonhole_solve(inst: NbpInstance, N: int | None = None) -> NbpSolution:
    """Polynomially many pigeons: subset sums of binary encodings of 0..N.

    The N+1 candidate sums over the first m = ceil(log2(N+1)) coordinates all
    lie in [-m, m], so two of them differ by at most 2m/N; their encoding
    difference is the returned sign vector.  Default N = n^3.
    """
    if N is None:
        N = inst.n**3
    if N < 1:
        raise InvalidParams("pigeon count must be >= 1")
    m = N.bit_length()  # = ceil(log2(N+1)) for N >= 1
    if m > inst.n:
        raise DimensionTooSmall(f"need {m} coordinates, instance has {inst.n}")
    ints, den = inst.scaled_ints()
    # sums[t] = sum of a_j over set bits of t, via lowest-set-bit recurrence
    sums = [0] * (N + 1)
    for t in range(1, N + 1):
        low = t & -t
        sums[t] = sums[t & (t - 1)] + ints[low.bit_length() - 1]
    order = sorted(range(N + 1), key=lambda t: (sums[t], t))
    best_gap = None
    best_pair = None
    for idx in range(N):
        t1, t2 = order[idx], order[idx + 1]
        gap = sums[t2] - sums[t1]
        if best_gap is None or gap < best_gap:
            best_gap = gap
            best_pair = (t1, t2)
    t_lo, t_hi = best_pair
    x = [0] * inst.n
    for j in range(m):
        x[j] = ((t_hi >> j) & 1) - ((t_lo >> j) & 1)
    return verify(inst, x, 1)


def pigeonhole_bound(N: int) -> Fraction:
    """The guaranteed error bound 2*ceil(log2(N+1))/N."""
    return Fraction(2 * N.bit_length(), N)


def karmarkar_karp(inst: NbpInstance) -> NbpSolution:
    """Largest differencing method with sign reconstruction.

    Repeatedly replaces the two largest absolute values by their nonnegative
    difference, carrying a signed combination vector per heap element; the
    surviving combination is the returned x and its recomputed inner product
    equals the final residual exactly.
    """
    heap = []
    for i, ai in enumerate(inst.a):
        value = abs(ai)
        vec = [0] * inst.n
        vec[i] = 1 if ai >= 0 else -1
        # max-heap on value; insertion index breaks ties deterministically
        heapq.heappush(heap, (-value, i, value, vec))
    counter = inst.n
    while len(heap) > 1:
        _, _, v1, x1 = heapq.heappop(heap)
        _, _, v2, x2 = heapq.heappop(heap)
        vec = [a - b for a, b in zip(x1, x2)]
        heapq.heappush(heap, (-(v1 - v2), counter, v1 - v2, vec))
        counter += 1
    _, _, residual, vec = heap[0]
    solution = verify(inst, vec, 1)
    if solution.error != residual:
        raise InternalContradiction(
            f"recomputed error {solution.error} differs from the final residual {residual}"
        )
    return solution


def instance_inner(inst: NbpInstance, x: Sequence[int]) -> Fraction:
    """Exact <a, x> for an integer vector."""
    return sum((ai * int(xi) for ai, xi in zip(inst.a, x)), Fraction(0))
