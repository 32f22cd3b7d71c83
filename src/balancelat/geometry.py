"""The cube-slab body, its lexicographic walk, ellipsoids, the exact
Minkowski oracle, and ellipsoid well-rounding with the axis form read off
its LLL certificate.

The cube-slab body is the one body that the reduction from balancing to
Minkowski's problem asks about: the open cube (-r, r)^n cut by the slab
|<a, x>| <= delta, built on an NbpInstance.  It tests integer points on the
instance's integers.  One walk (cube_slab_walk) searches it, in
lexicographic order, for integer points: it carries the integer partial
sum of the prefix over those integers and asks the body for the range of
values the next coordinate may take: box cap slab, in closed form.  A range
only drops values that provably admit no member, and the body's symmetry
keeps the walk to the points whose first nonzero entry is negative.  The
walk stops t coordinates early, for a t that grows with the nodes spent:
one sorted table of the tail's sums (Horowitz and Sahni's
meet-in-the-middle) answers each head leaf with at most two bisects and
one min over the tails that fit.  The exact Minkowski oracle is the walk
that returns its first point; nbp.brute_force_min is the walk that shrinks
the slab to just below each point it finds.

An ellipsoid E = {x : |A x|^2 <= 1} is held as the LatticeBasis of A's
columns: its integer points are the coefficient vectors of the lattice
vectors of norm at most 1.  The basis carries det A, and its form
LatticeBasis.quad evaluates |A x|^2 at integer tuples on A's integer rows.
The reduction from Minkowski's problem to balancing well-rounds it and
builds no body.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

from .errors import (
    BudgetExceeded,
    InternalContradiction,
    InvalidParams,
    NotFound,
    PreconditionFailed,
)
from .lattice import LatticeBasis, LllCertificate, UnimodularTransform, lll_min_gain, lll_reduce
from .linalg import RMatrix, RVector
from .nbp import NbpInstance, _decode, enumeration_budget
from .rationals import frac, sqrt_upper


class CubeSlabBody:
    """The open cube (-r, r)^n cut by the slab |<a, x>| <= bound, for an instance a.

    This is the body the reduction from balancing to Minkowski's problem
    asks about.  With the instance's a = A / den, |<a, x>| <= bound becomes
    |sum x_i A_i| * sd <= rhs with integers sd = bound's denominator and
    rhs = bound's numerator * den.  After a prefix with partial sum s,
    coordinate d may take v only if |s + v A_d| <= reach[d] =
    (rhs + sd * suffix[d+1]) // sd, where suffix[j] is the most that
    coordinates j.. can still cancel inside the box; reach[n-1] is
    slab_reach = rhs // sd, the largest |<A, x>| the slab admits.
    ``contains`` tests an integer point against the integer box limit and
    the integer slab.
    """

    def __init__(self, inst: NbpInstance, slab_bound, box_radius) -> None:
        self.inst = inst
        self.dim = n = inst.n
        self.slab_bound = frac(slab_bound)
        self.box_radius = frac(box_radius)
        ints, den = inst.ints, inst.den
        self._limit = limit = math.ceil(self.box_radius) - 1  # largest integer inside (-r, r)
        suffix = [0] * (n + 1)
        for i in range(n - 1, -1, -1):
            suffix[i] = suffix[i + 1] + limit * abs(ints[i])
        self._rhs = rhs = self.slab_bound.numerator * den
        self._sd = sd = self.slab_bound.denominator
        self.slab_reach = rhs // sd
        self._steps = [(limit, (rhs + sd * suffix[d + 1]) // sd, ints[d]) for d in range(n)]

    def contains(self, x: Sequence[int]) -> bool:
        """Membership of the integer point x."""
        if len(x) != self.dim:
            raise InvalidParams("dimension mismatch")
        m = self._limit
        return (-m <= min(x) and max(x) <= m
                and abs(sum(map(mul, self.inst.ints, x))) * self._sd <= self._rhs)

    def int_box_limit(self) -> int:
        """Largest integer coordinate magnitude any member can have."""
        return self._limit

    def dilate(self, rho) -> "CubeSlabBody":
        rho = frac(rho)
        if rho <= 0:
            raise InvalidParams("dilation factor must be positive")
        return CubeSlabBody(self.inst, rho * self.slab_bound, rho * self.box_radius)

    def prefix_feasible(self, s: int, depth: int) -> tuple[int, int]:
        """Range [lo, hi] of coordinate ``depth`` after a prefix with partial sum s.

        Box cap slab: the v in [-m, m] with |s + v A_depth| <= reach[depth].
        Sound: no member extends the prefix with a value outside the range
        (empty when lo > hi).
        """
        m, r, a = self._steps[depth]
        if a > 0:
            lo, hi = -((r + s) // a), (r - s) // a
        elif a < 0:
            lo, hi = -((r - s) // -a), (r + s) // -a
        elif -r <= s <= r:
            return -m, m
        else:
            return 1, 0
        return (lo if lo > -m else -m), (hi if hi < m else m)


def _sorted_half(ints: Sequence[int], k: int, b: int) -> list[int]:
    """The packed ints (<a, x> << b) + i for x in {-k..k}^m, sorted.

    i < 2^b is the index of x in lex order (nbp._decode reads it back), so
    equal sums sit in lex order of x.  Coordinates are added last to first,
    each as the new leading digit of i: a level is 2k+1 shifted copies of
    the sorted level below, and one sort merges these runs in linear time.
    """
    level, width = [0], 1
    for a in reversed(ints):
        steps = [((v * a) << b) + (v + k) * width for v in range(-k, k + 1)]
        level = [p + d for d in steps for p in level]
        level.sort()
        width *= 2 * k + 1
    return level


def cube_slab_walk(body: CubeSlabBody, balance: bool) -> Optional[tuple[int, ...]]:
    """The lexicographic walk of the body's nonzero integer points that lead
    negative: the one search of the exact Minkowski oracle and of brute force.

    A depth-first search over the head, the first n - t coordinates, carries
    the integer partial sum down; each expanded head node visits its
    ``body.prefix_feasible`` range in ascending order, stopping at 0 after
    an all-zero prefix (a flag), as the body is symmetric.  The tail is one
    sorted table of packed (sum << b) + index (_sorted_half).  At a head
    leaf with partial sum s, bisects find the tails with |s + tail| <=
    slab_reach, after the all-zero head only those below the zero tail's
    index, which lead negative.  One ``min`` over them picks the leaf's
    point, which ``body.contains`` confirms.  Its key is the rule:

    - balance False (Minkowski): the smallest index, the leaf's
      lexicographically smallest completion, which the walk returns.
    - balance True (balancing): the smallest (e, index), e = |s + tail|.
      The walk returns the point when e = 0, and otherwise goes on with the
      slab shrunk to (e - 1) / den, so every later point is strictly
      better; its last point is the lexicographically smallest minimizer.

    The walk starts at t = 0, a one-entry table.  Leaving a node at depth
    head - 1 with (2m+1)^(t+1) nodes spent since the last build (m the box's
    integer limit), it builds the table one coordinate longer and goes on,
    in the same lexicographic order.  No table outgrows the nodes spent, so
    the tables' memory, like their build time, is O(nodes).

    Returns None when no point is found.  ``enumeration_budget()`` caps the
    nodes: expanded head nodes, the root included, and one tail probe per
    head leaf.  BudgetExceeded, also raised when a table build runs out of
    memory, says where the search stood; InternalContradiction, that a
    leaf's point failed ``body.contains``.
    """
    limit = enumeration_budget()
    inst, w, n, m = body.inst, body.inst.ints, body.dim, body.int_box_limit()
    head, built = n, 0  # t = n - head tail coordinates; nodes spent at the last build
    size, b, table = 1, 1, [0]  # the table holds size = (2m+1)^t packed sums
    mask, zero = 1, 0  # the zero tail: every digit is m
    reach = body.slab_reach
    x = [0] * n  # the path; x[d] runs up to top[d]
    top = [0] * n
    sums = [0] * (n + 1)  # sums[d] = sum_{i < d} x_i w_i
    lead = [False] * (n + 1)  # lead[d]: some x_i with i < d is nonzero
    found, nodes, depth = None, 0, 0

    def refused(why: str) -> BudgetExceeded:  # where the search stood
        return BudgetExceeded(f"Minkowski enumeration {why}: {nodes} nodes visited, limit "
                              f"{limit}, dimension {n}, depth {depth}, tail length {n - head}")
    while True:
        nodes += 1
        if nodes > limit:
            raise refused("exceeded budget")
        if depth == head:  # a tail probe
            s = sums[head]
            lo, end = bisect_left(table, (-reach - s) << b), (reach - s + 1) << b
            if lo < len(table) and table[lo] < end:  # some tail fits the slab
                cap = size if lead[head] else zero
                fits = [p for p in table[lo:bisect_left(table, end, lo)] if p & mask < cap]
                if fits:
                    e, i = min((abs(s + (p >> b)) if balance else 0, p & mask) for p in fits)
                    x[head:] = _decode(i, n - head, m)
                    if not body.contains(x):
                        raise InternalContradiction("a tail table completion is not in the body")
                    found = tuple(x)
                    if e == 0:  # always so under the Minkowski rule
                        return found
                    body = CubeSlabBody(inst, Fraction(e - 1, inst.den), body.box_radius)
                    reach = body.slab_reach
            if depth == 0:
                return found
            depth -= 1
            x[depth] += 1
        else:
            x[depth], hi = body.prefix_feasible(sums[depth], depth)
            top[depth] = hi if lead[depth] or hi < 0 else 0
        while True:  # move to the next node to visit
            v = x[depth]
            if v > top[depth]:
                if depth == 0:
                    return found
                if depth == head - 1 and nodes - built >= size * (2 * m + 1):  # grow the table
                    head, built, size = depth, nodes, size * (2 * m + 1)
                    b = size.bit_length()
                    mask, zero, table = (1 << b) - 1, size // 2, None  # free the old table
                    try:
                        table = _sorted_half(w[head:], m, b)
                    except MemoryError:
                        raise refused(f"ran out of memory for {size} tail sums") from None
                depth -= 1
                x[depth] += 1
            else:
                sums[depth + 1] = sums[depth] + v * w[depth]
                lead[depth + 1] = lead[depth] or v != 0
                depth += 1
                break


def minkowski_exact_oracle(body: CubeSlabBody) -> tuple[int, ...]:
    """Lexicographically smallest nonzero integer point of the cube-slab body.

    Realizes an exact (rho = 1) Minkowski oracle: cube_slab_walk under its
    Minkowski rule, which finds that point first, as it leads negative.
    Raises NotFound when the body holds no nonzero integer point (e.g. when
    its volume bound fails), and BudgetExceeded as the walk does.
    """
    x = cube_slab_walk(body, False)
    if x is None:
        raise NotFound("no nonzero integer point in the body")
    return x


def ellipsoid_from_axes(axes: Sequence[RVector], lengths: Sequence[Fraction]) -> LatticeBasis:
    """The ellipsoid with axes a_i and lengths lambda_i: A = diag(1/lambda) V^T.

    Refuses (InvalidParams), before any division, axes that are not n
    vectors of dimension n for n lengths, a length <= 0, and axes that
    are not orthonormal within 2^-20.
    """
    lengths = [frac(l) for l in lengths]
    n = len(lengths)
    if len(axes) != n or any(ax.dim != n for ax in axes):
        raise InvalidParams("axis form needs n axes of dimension n for n lengths")
    if any(l <= 0 for l in lengths):
        raise InvalidParams("axis lengths must be positive")
    tol = Fraction(1, 2**20)
    for i in range(n):
        for j in range(i, n):
            if abs(axes[i].dot(axes[j]) - int(i == j)) > tol:
                raise InvalidParams("axes are not orthonormal within tolerance")
    rows = [[e / l for e in ax] for ax, l in zip(axes, lengths)]  # row i of diag(1/lambda) V^T
    return LatticeBasis(RMatrix(rows))


@dataclass(frozen=True)
class WellRoundResult:
    """Outcome of well_round: an integer point, or a rounded ellipsoid."""

    branch: str
    point: Optional[tuple[int, ...]] = None
    transform: Optional[UnimodularTransform] = None
    rounded: Optional[LatticeBasis] = None
    cert: Optional[LllCertificate] = None


def well_round(ellipsoid: LatticeBasis) -> WellRoundResult:
    """Either an integer point of E, or a unimodular rounding of E.

    E = {x : |A x|^2 <= 1} is the basis of A's columns; LLL reduces it to
    AU.  A reduced column of norm <= 1 yields the integer point U e_i (branch
    "integer-point").  Otherwise all reduced columns have norm > 1 and E' =
    {y : |(AU) y|^2 <= 1} together with the 2^(-3n) quadratic-form
    certificate bounds every point of E' by |y|_2^2 <= 2^(3n) (branch
    "rounded").  The transform is LLL's
    own: x = U y, transform.apply, maps E' back to E.  The rounded branch
    also carries the LLL certificate of AU, from which axis_extract reads the
    axis form of E'.  E' is the reduced basis itself, so nothing is
    eliminated here.
    """
    n = ellipsoid.n
    reduced, transform, cert = lll_reduce(ellipsoid)
    b = reduced.B
    for i in range(n):
        if sum(row[i] ** 2 for row in b.ints) <= b.den**2:
            p = tuple(row[i] for row in transform.U.ints)
            if ellipsoid.quad(p) > 1:
                raise InternalContradiction("a reduced column of norm <= 1 maps outside E")
            return WellRoundResult("integer-point", point=p)
    lll_min_gain(reduced, cert)  # raises unless the 2^(-3n) certificate holds
    return WellRoundResult("rounded", transform=transform, rounded=reduced, cert=cert)


def axis_extract(cert: LllCertificate) -> tuple[list[RVector], list[Fraction], list[Fraction]]:
    """The axis form of E' = {x : |B' x|^2 <= 1}, read off the LLL certificate of B'.

    Gram-Schmidt writes B' x = sum_i bhat_i (x_i + sum_{j > i} mu_ji x_j), so
    |B' x|^2 = sum_i |bhat_i|^2 <a_i, x>^2 exactly for a_i = e_i + sum_{j > i}
    mu_ji e_j.  The axes need not be orthogonal.  Size reduction gives
    |mu_ji| <= 1/2, so every a_i lies in [-1, 1]^n, and lambda_i =
    sqrt_upper(1 / |bhat_i|^2) >= 1 / |bhat_i| gives prod lambda_i >=
    1 / |det B'|.  mu_ji = lam[j][i] / d_{i+1} and |bhat_i|^2 = d_{i+1} /
    (d_i F^2) come from the certificate's integers, so no Gram-Schmidt runs.

    Returns (axes, lengths, norms_sq) sorted by ascending length, where
    norms_sq holds the |bhat_i|^2 of each axis.
    """
    if not cert.size_reduced:
        raise PreconditionFailed("the axis form needs a size-reduced basis")
    d, lam, f2 = cert.d, cert.lam, cert.scale**2
    n = len(d) - 1
    axes = [RVector([Fraction(lam[j][i], d[i + 1]) if j > i else int(j == i) for j in range(n)])
            for i in range(n)]
    norms_sq = [Fraction(d[i + 1], d[i] * f2) for i in range(n)]
    lengths = [sqrt_upper(1 / w, 64) for w in norms_sq]
    order = sorted(range(n), key=lengths.__getitem__)
    return [axes[i] for i in order], [lengths[i] for i in order], [norms_sq[i] for i in order]
