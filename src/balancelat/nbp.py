"""Number balancing instances, solutions, and the four baseline solvers.

An instance is a vector a in [-1,1]^n; a solution is a nonzero integer vector
x with |x_i| <= k whose quality is the exact rational |<a,x>|.  An instance
is its entries as integers over one denominator, in lowest terms: outside
values are scaled once (from_values, or a document's entry strings in
serialize), and from_ints and restrict reduce a pair by its gcd.  Every
solver, verify and instance_inner works on them, and so do the cube-slab
body and the balancing layers that take instances.
The exact solvers (full enumeration and meet-in-the-middle) break ties by
returning the lexicographically smallest witness, so they are directly
comparable and safe to parallelize with a deterministic reduce.
Meet-in-the-middle searches only the nonzero entries, on plain sorted
sums with one point of each +-pair; brute force enumerates every
coordinate and stays the independent check.
"""

from __future__ import annotations

import heapq
import os
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, count
from math import gcd
from operator import mul, sub
from typing import Iterable, Sequence

from .errors import BudgetExceeded, InternalContradiction, InvalidParams, PreconditionFailed
from .linalg import RVector
from .rationals import common_denominator_ints

DEFAULT_BUDGET = 10**8
BUDGET_ENV = "BALANCELAT_BUDGET"
# brute_force_min: the most tail sums its recursion tabulates.  A leaf bisects
# a sorted copy of them and scans them only when it improves the incumbent.
# The Minkowski search has its own, smaller bound,
# geometry.MINKOWSKI_TAIL_TABLE.
TAIL_TABLE = 3**6


def enumeration_budget() -> int:
    """The node budget of an enumeration: $BALANCELAT_BUDGET, else 10^8."""
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
    """A balancing instance: n numbers in [-1, 1], a_i = ints[i] / den.

    (ints, den) is in lowest terms, gcd(den, *ints) = 1, so it is the least
    common denominator form of a and equal instances have equal pairs.
    """

    ints: tuple[int, ...]
    den: int

    def __post_init__(self):
        if not self.ints:
            raise InvalidParams("an instance needs at least one entry")
        if self.den < 1:
            raise InvalidParams("instance denominator must be >= 1")
        if gcd(self.den, *self.ints) != 1:
            raise InvalidParams("instance (ints, den) must be in lowest terms")
        if any(abs(p) > self.den for p in self.ints):
            raise InvalidParams("instance entries must lie in [-1, 1]")

    @property
    def n(self) -> int:
        return len(self.ints)

    @staticmethod
    def from_values(values: Iterable) -> "NbpInstance":
        ints, den = common_denominator_ints(RVector(values))  # RVector type-checks outside input
        return NbpInstance(tuple(ints), den)

    @staticmethod
    def from_ints(ints: Sequence[int], den: int) -> "NbpInstance":
        """The instance with entries ints[i] / den, for den >= 1, in lowest terms."""
        g = gcd(den, *ints) or 1  # den = 0 is refused by the constructor
        return NbpInstance(tuple(p // g for p in ints), den // g)

    def restrict(self, indices: Sequence[int]) -> "NbpInstance":
        return NbpInstance.from_ints([self.ints[i] for i in indices], self.den)


@dataclass(frozen=True)
class NbpSolution:
    """A verified solution: x != 0, |x|_inf <= coeff_bound, error = |<a,x>|."""

    x: tuple[int, ...]
    coeff_bound: int
    error: Fraction


def verify(inst: NbpInstance, x: Sequence[int], k: int) -> NbpSolution:
    """Recompute the error of x exactly and validate the solution contract:
    n entries that are integers in value, not all zero, |x|_inf <= k.

    This is the one balancing contract: every handle's reply and every
    solution document is read by it.  Entries come back as ints; int()
    refuses NaN, an infinity and None, and a non-integral value is refused,
    never truncated."""
    x = tuple(x)
    try:
        xs = tuple(int(v) for v in x)
    except (TypeError, ValueError, OverflowError):
        xs = None
    if xs != x:
        raise InvalidParams("solution entries must be integers")
    if len(xs) != inst.n:
        raise InvalidParams("solution dimension mismatch")
    if not any(xs):
        raise InvalidParams("solution vector is zero")
    if any(abs(v) > k for v in xs):
        raise InvalidParams(f"|x|_inf exceeds declared bound {k}")
    return NbpSolution(xs, k, abs(instance_inner(inst, xs)))


def brute_force_min(inst: NbpInstance, k: int) -> NbpSolution:
    """True minimum of |<a,x>| over x in {-k..k}^n \\ {0} by full enumeration.

    Returns the lexicographically smallest minimizer.  The search runs over
    integer-scaled entries with interval pruning; pruning only discards
    subtrees that are provably >= the incumbent, and equal-error leaves found
    later lose ties anyway, so the lexicographic contract is preserved.  The
    recursion stops t coordinates early, with (2k+1)^t <= TAIL_TABLE, and
    tabulates the tail's sums in lexicographic order (_half_sums).  Each leaf
    asks a sorted copy of its row, by one bisect, whether any tail beats the
    incumbent; only a leaf that does scans the row in lexicographic order for
    the first smallest |s + tail|.
    """
    if k < 1:
        raise InvalidParams("coefficient bound must be >= 1")
    limit = enumeration_budget()
    if (2 * k + 1) ** inst.n > limit:
        raise BudgetExceeded(f"(2k+1)^n = {(2 * k + 1) ** inst.n} exceeds budget {limit}")
    ints, n = inst.ints, inst.n
    t = 0
    while t < n and (2 * k + 1) ** (t + 1) <= TAIL_TABLE:
        t += 1
    head = n - t
    table = _half_sums(ints[head:], k)
    # Minimizers come in +-pairs and the lexicographically smallest one has a
    # negative leading entry, so only sign patterns with first nonzero < 0
    # are enumerated: after an all-zero prefix, the table's first half.
    tables = (table[: len(table) // 2], table)
    ordered = tuple(sorted(row) for row in tables)
    # suffix[i] = k * sum of |a_j| for j >= i, scaled
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + k * abs(ints[i])

    best: list = [None, None]  # [error_int, witness]
    prefix = [0] * head

    def descend(i: int, s: int, nonzero_seen: bool) -> None:
        if best[0] is not None and abs(s) - suffix[i] >= best[0]:
            # nothing below can beat the incumbent, and equal-error leaves
            # found later lose the lexicographic tie anyway
            return
        if i == head:
            row = tables[nonzero_seen]
            if best[0] is not None:
                # a tail beats the incumbent exactly when lo < tail < hi, so
                # exactly when the least sorted tail above lo lies below hi
                lo, hi = -s - best[0], best[0] - s
                sums = ordered[nonzero_seen]
                j = bisect_right(sums, lo)
                if j == len(sums) or sums[j] >= hi:
                    return
            errs = [abs(s + v) for v in row]
            if errs:
                best[0] = min(errs)
                best[1] = tuple(prefix) + _decode(errs.index(best[0]), t, k)
            return
        ai = ints[i]
        for v in range(-k, (k if nonzero_seen else 0) + 1):
            prefix[i] = v
            descend(i + 1, s + v * ai, nonzero_seen or v != 0)
        prefix[i] = 0

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


def _sorted_half(ints: Sequence[int], k: int, b: int) -> list[int]:
    """The packed ints (<a, x> << b) + i for x in {-k..k}^m, sorted.

    i < 2^b is the index of x in lex order (as in _half_sums), so equal sums
    sit in lex order of x.  Coordinates are added last to first, each as the
    new leading digit of i: a level is 2k+1 shifted copies of the sorted
    level below, and one sort merges these runs in linear time.  It builds
    the tail table of geometry.minkowski_exact_oracle, which needs each
    sum's index.
    """
    level, width = [0], 1
    for a in reversed(ints):
        steps = [((v * a) << b) + (v + k) * width for v in range(-k, k + 1)]
        level = [p + d for d in steps for p in level]
        level.sort()
        width *= 2 * k + 1
    return level


def _shifted(level: list[int], a: int, vs: range) -> list[int]:
    """s + v * a for v in vs and s in level: one run per v if level is sorted."""
    return [s + d for d in [v * a for v in vs] for s in level]


def _magnitudes(ints: Sequence[int], k: int) -> list[int]:
    """|<a, x>| for the x in {-k..k}^m whose first nonzero entry is negative,
    sorted: one of each +-pair of nonzero points.

    Coordinates are added last to first.  A level, the sums of a suffix's
    whole cube, is 2k+1 shifted copies of the sorted level below, and one
    sort merges these runs in linear time.  x = (v, rest) leads negative
    when v < 0, or when v = 0 and rest does, so each coordinate adds the
    v < 0 copies of the level below; the level of all m coordinates is
    never built.
    """
    lead, level = [], [0]
    for j in range(len(ints) - 1, -1, -1):
        low = _shifted(level, ints[j], range(-k, 0))
        lead += low
        level = sorted(low + level + _shifted(level, ints[j], range(1, k + 1))) if j else None
    return sorted(map(abs, lead))


def _lex_first(ints: Sequence[int], k: int, targets: set) -> tuple[int, ...]:
    """The lexicographically first x in {-k..k}^m with <a, x> in targets.

    The last m // 2 coordinates are the tail, and a dict maps each tail sum
    to the first tail that has it.  The heads are walked in lex order, and
    each finds its first tail through the shorter of the targets (one dict
    lookup each) and the distinct tail sums (one set lookup each, in order
    of first index).  So a head reads at most min(|targets|, |tail|) sums
    and the walk at most (2k+1)^m.  No such x is InternalContradiction.
    """
    head = len(ints) - len(ints) // 2
    first: dict[int, int] = {}
    for j, s in enumerate(_half_sums(ints[head:], k)):
        first.setdefault(s, j)
    by_target = len(targets) < len(first)
    for i, h in enumerate(_half_sums(ints[:head], k)):
        if by_target:
            j = min((first[u - h] for u in targets if u - h in first), default=None)
        else:
            j = next((j for s, j in first.items() if h + s in targets), None)
        if j is not None:
            return _decode(i, head, k) + _decode(j, len(ints) - head, k)
    raise InternalContradiction("optimal error lost between passes")


def _closest_pairs(xs: Sequence[int], ys: Sequence[int]) -> tuple[int, set]:
    """min |x - y| over x in xs and y in ys, both sorted and nonempty, and
    the distinct x that reach it, by one merge.

    The walk meets every pair at that gap, at the first copies of x and y.
    It stops at gap 0, where the x are the values common to both lists.
    """
    best, found = abs(xs[0] - ys[0]) + 1, set()
    rest = iter(ys)
    y = next(rest)
    try:
        for x in xs:
            while y < x:
                if x - y <= best:
                    if x - y < best:
                        best, found = x - y, set()
                    found.add(x)
                y = next(rest)
            if y - x <= best:
                if y == x:
                    return 0, set(xs).intersection(ys)
                if y - x < best:
                    best, found = y - x, set()
                found.add(x)
    except StopIteration:  # the ys ran out below x: no later x comes closer
        pass
    return best, found


def mitm_min(inst: NbpInstance, k: int) -> NbpSolution:
    """Exact minimum by meet-in-the-middle; agrees with brute_force_min.

    The search runs on the support S = {i : a_i != 0}, split into a left
    half of ceil(|S|/2) coordinates and a right half.  Minimizers come in
    +-pairs, so the lexicographically smallest one has a zero left half or
    one whose first nonzero entry is negative.  Each half is one sorted list
    of plain ints, the magnitudes |<a, x>| of one point of each +-pair
    (_magnitudes).  A half's sums are symmetric, so the best error of a
    left sum u is the distance of |u| to the right list and 0, the sum of
    the zero right half.

    If some a_i is 0, the optimum is 0 and the optimal x are the nonzero
    (x_Z, y) with <a_S, y> = 0.  The constraint leaves x_Z free, so the
    smallest x has x_Z = -k and y the smallest zero-sum point of {-k..k}^S,
    y = 0 included: the optimal magnitudes are 0 and those common to both
    lists.  Otherwise one merge of the two lists gives the optimum and the
    left magnitudes that reach it, and the zero left half meets the right
    list's least nonzero half.

    The witness is the lex-first left half whose sum is +-an optimal
    magnitude (_lex_first over the whole half: halves that lead negative
    come before 0, and 0 before the rest), then the lex-first right half
    that completes its sum u to the optimum.
    """
    if k < 1:
        raise InvalidParams("coefficient bound must be >= 1")
    limit = enumeration_budget()
    support = [i for i, a in enumerate(inst.ints) if a]
    nl = (len(support) + 1) // 2
    if (2 * k + 1) ** nl > limit:
        raise BudgetExceeded(
            f"(2k+1)^ceil(|S|/2) exceeds budget {limit} on the support, |S| = {len(support)}"
        )
    x = [-k] * inst.n
    if not support:
        return verify(inst, x, k)
    ints = [inst.ints[i] for i in support]
    if len(support) < inst.n:
        # one list at a time: the left one is only a set of distinct values
        best, found = 0, set(_magnitudes(ints[:nl], k)).intersection(_magnitudes(ints[nl:], k))
        found.add(0)
    else:
        left, right = _magnitudes(ints[:nl], k), _magnitudes(ints[nl:], k)
        right.insert(0, 0)  # the zero right half
        best, found = _closest_pairs(left, right)
        # the zero left half, against the least nonzero right half; on a tie a
        # left half that leads negative and reaches best comes first in lex order
        if len(right) > 1 and right[1] < best:
            best, found = right[1], {0}
    head = _lex_first(ints[:nl], k, found.union([-v for v in found]))
    u = sum(map(mul, ints[:nl], head))
    for pos, v in zip(support, head + _lex_first(ints[nl:], k, {best - u, -best - u})):
        x[pos] = v
    return verify(inst, x, k)


def pigeonhole_solve(inst: NbpInstance, N: int) -> NbpSolution:
    """Polynomially many pigeons: subset sums of binary encodings of 0..N.

    The N+1 candidate sums over the first m = ceil(log2(N+1)) coordinates all
    lie in [-m, m], so two of them differ by at most 2m/N; their encoding
    difference is the returned sign vector.

    Pigeon t is the int (sum_t << w) + t with w = m + 1, so sorted ints are
    in (sum, t) order.  The pigeons are built one bit of t at a time, from
    the top bit down, and sorted after each bit: the pigeons so far plus a
    shifted copy, so each sort merges two sorted runs.  The pair is the
    first smallest adjacent gap of that order.  When the first m entries
    are all 0 that pair is t = 0, 1, and e_1 is returned without pigeons.
    More than enumeration_budget() pigeons are refused up front.
    """
    if N < 1:
        raise InvalidParams("pigeon count must be >= 1")
    limit = enumeration_budget()
    if N + 1 > limit:
        raise BudgetExceeded(f"N + 1 = {N + 1} pigeons exceeds budget {limit}")
    m = N.bit_length()  # = ceil(log2(N+1)) for N >= 1
    if m > inst.n:
        raise PreconditionFailed(f"need {m} coordinates, instance has {inst.n}")
    ints = inst.ints
    if not any(ints[:m]):
        # every pigeon sum is 0, so (sum, t) order is t order and the first
        # pair at the smallest gap is t = 0, 1
        return verify(inst, [1] + [0] * (inst.n - 1), 1)
    w, half = m + 1, 1 << m
    packed, top = [0], 0
    for j in range(m - 1, -1, -1):
        # packed holds the t <= N with bits 0..j clear, and top the largest
        # of them; each t gains bit j, except top when bit j of N is 0
        step = (ints[j] << w) + (1 << j)
        shifted = [p + step for p in packed]
        if N >> j & 1:
            top += step
        else:
            del shifted[bisect_left(shifted, top + step)]
        packed += shifted
        packed.sort()
    # Adjacent differences are (gap << w) + (t2 - t1) with |t2 - t1| < half,
    # so a difference is below limit exactly when its gap is the smallest.
    diffs = list(map(sub, packed[1:], packed))
    limit = ((min(diffs) + half) >> w << w) + half
    idx = next(compress(count(), map(limit.__gt__, diffs)))  # the first smallest gap
    t_lo, t_hi = packed[idx] % half, packed[idx + 1] % half
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
    ints, n = inst.ints, inst.n
    heap = [(-abs(v), i) for i, v in enumerate(ints)]
    heapq.heapify(heap)
    merges: list[tuple[int, int]] = []  # node n + c is merges[c][0] - merges[c][1]
    while len(heap) > 1:
        key1, larger = heapq.heappop(heap)
        key2, smaller = heap[0]
        heapq.heapreplace(heap, (key1 - key2, n + len(merges)))
        merges.append((larger, smaller))
    residual = Fraction(-heap[0][0], inst.den)
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
    """Exact <a, x> for an integer vector, summed on the instance's integers."""
    return Fraction(sum(map(mul, inst.ints, map(int, x))), inst.den)
