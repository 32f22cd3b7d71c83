"""Number balancing instances, solutions, and the four baseline solvers.

An instance is a vector a in [-1,1]^n; a solution is a nonzero integer vector
x with |x_i| <= k whose quality is the exact rational |<a,x>|.  The exact
solvers (full enumeration and meet-in-the-middle) break ties by returning the
lexicographically smallest witness, so they are directly comparable and safe
to parallelize with a deterministic reduce.
"""

from __future__ import annotations

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


def _half_sums(ints: Sequence[int], k: int) -> list[int]:
    """<a, x> for each x in {-k..k}^m, in lex order: index i's base-(2k+1) digits are x + k."""
    sums = [0]
    for a in ints:
        steps = [v * a for v in range(-k, k + 1)]
        sums = [s + d for s in sums for d in steps]
    return sums


def _decode(index: int, m: int, k: int) -> tuple[int, ...]:
    """The x in {-k..k}^m at position index of _half_sums."""
    return tuple((index // (2 * k + 1) ** (m - 1 - j)) % (2 * k + 1) - k for j in range(m))


def _closest_gap(xs: Sequence[int], ys: Sequence[int]) -> int:
    """min |x - y| over x in xs and y in ys, both sorted and nonempty, by one merge."""
    best, i, j = abs(xs[0] - ys[0]), 0, 0
    while best and i < len(xs) and j < len(ys):
        d = xs[i] - ys[j]
        if d < 0:
            d = -d
            i += 1
        else:
            j += 1
        if d < best:
            best = d
    return best


def mitm_min(inst: NbpInstance, k: int, budget: int | None = None) -> NbpSolution:
    """Exact minimum by meet-in-the-middle; agrees with brute_force_min.

    Each half of the coordinates (the left has ceil(n/2)) is a flat int list
    of sums (_half_sums) with its zero vector in the middle.  The value pass
    merges the sorted nonzero left sums with the sorted negated right sums,
    and meets the zero left half with the nonzero right ones apart.  The
    witness pass scans left indices in order against a dict from each right
    sum to its smallest index; the first hit is the lexicographically
    smallest optimal x, and only it is decoded.
    """
    if k < 1:
        raise InvalidParams("coefficient bound must be >= 1")
    limit = enumeration_budget(budget)
    nl = (inst.n + 1) // 2
    if (2 * k + 1) ** nl > limit:
        raise BudgetExceeded(f"(2k+1)^ceil(n/2) exceeds budget {limit}")
    ints, den = inst.scaled_ints()
    left, right = _half_sums(ints[:nl], k), _half_sums(ints[nl:], k)
    zl, zr = len(left) // 2, len(right) // 2  # the zero vectors: every digit is k
    best = _closest_gap(sorted(left[:zl] + left[zl + 1:]), sorted(-s for s in right))
    if zr:  # the zero left half against the nonzero right halves
        best = min(best, min(map(abs, right[:zr] + right[zr + 1:])))
    first = dict(zip(reversed(right), range(len(right) - 1, -1, -1)))
    for i, s in enumerate(left):
        hits = [first[t] for t in {best - s, -best - s} if t in first]
        # x = 0 is no answer.  zr is hit only if no right half before it sums
        # to 0, and then none after it does either (y and -y straddle zr).
        if i == zl and zr in hits:
            hits.remove(zr)
        if hits:
            return verify(inst, _decode(i, nl, k) + _decode(min(hits), inst.n - nl, k), k)
    raise InternalContradiction("optimal error lost between passes")


def pigeonhole_solve(inst: NbpInstance, N: int | None = None) -> NbpSolution:
    """Polynomially many pigeons: subset sums of binary encodings of 0..N.

    The N+1 candidate sums over the first m = ceil(log2(N+1)) coordinates all
    lie in [-m, m], so two of them differ by at most 2m/N; their encoding
    difference is the returned sign vector.  Default N = n^3.

    Pigeon t is the int ((sum_t - lo) << m) | t, with lo the sum of the
    negative entries, so the sorted ints are in (sum, t) order.  The pair is
    the first smallest adjacent gap of that order.
    """
    if N is None:
        N = inst.n**3
    if N < 1:
        raise InvalidParams("pigeon count must be >= 1")
    m = N.bit_length()  # = ceil(log2(N+1)) for N >= 1
    if m > inst.n:
        raise DimensionTooSmall(f"need {m} coordinates, instance has {inst.n}")
    ints, den = inst.scaled_ints()
    lo = sum(a for a in ints[:m] if a < 0)
    packed = [-lo << m]
    for j in range(m):
        # pigeons 2^j .. 2^(j+1)-1 (those up to N) are the ones below plus bit j
        step = (ints[j] << m) + (1 << j)
        packed += [p + step for p in packed[: N + 1 - len(packed)]]
    packed.sort()
    keys = [p >> m for p in packed]
    gaps = [b - a for a, b in zip(keys, keys[1:])]
    idx = gaps.index(min(gaps))  # the first smallest gap
    t_lo, t_hi = packed[idx] % (1 << m), packed[idx + 1] % (1 << m)
    x = [((t_hi >> j) & 1) - ((t_lo >> j) & 1) for j in range(m)] + [0] * (inst.n - m)
    return verify(inst, x, 1)


def pigeonhole_bound(N: int) -> Fraction:
    """The guaranteed error bound 2*ceil(log2(N+1))/N."""
    return Fraction(2 * N.bit_length(), N)


def karmarkar_karp(inst: NbpInstance) -> NbpSolution:
    """Largest differencing method with sign reconstruction.

    Repeatedly replaces the two largest |a_i| by their difference, on a heap
    of (-|a_i|*den, id) with ids in insertion order to break ties.  Each
    merge is recorded as (larger, smaller); one top-down pass over that tree
    signs the leaves, and the recomputed error must equal the final residual.
    """
    ints, den = inst.scaled_ints()
    n = inst.n
    heap = [(-abs(v), i) for i, v in enumerate(ints)]
    heapq.heapify(heap)
    merges: list[tuple[int, int]] = []  # node n + c is merges[c][0] - merges[c][1]
    while len(heap) > 1:
        key1, larger = heapq.heappop(heap)
        key2, smaller = heap[0]
        heapq.heapreplace(heap, (key1 - key2, n + len(merges)))
        merges.append((larger, smaller))
    residual = Fraction(-heap[0][0], den)
    sign = [1] * (n + len(merges))
    for node, (larger, smaller) in reversed(list(enumerate(merges, n))):
        sign[larger], sign[smaller] = sign[node], -sign[node]
    x = [sign[i] if v >= 0 else -sign[i] for i, v in enumerate(ints)]
    solution = verify(inst, x, 1)
    if solution.error != residual:
        raise InternalContradiction(
            f"recomputed error {solution.error} differs from the final residual {residual}"
        )
    return solution


def instance_inner(inst: NbpInstance, x: Sequence[int]) -> Fraction:
    """Exact <a, x> for an integer vector."""
    return sum((ai * int(xi) for ai, xi in zip(inst.a, x)), Fraction(0))
