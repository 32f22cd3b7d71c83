import random
import re
from fractions import Fraction
from itertools import product

import pytest

from balancelat import geometry
from balancelat.errors import (
    BudgetExceeded,
    InternalContradiction,
    InvalidParams,
    NotFound,
    PreconditionFailed,
)
from balancelat.generators import gen_basis, gen_ellipsoid
from balancelat.geometry import (
    CubeSlabBody,
    axis_extract,
    ellipsoid_from_axes,
    minkowski_exact_oracle,
    well_round,
)
from balancelat.lattice import LatticeBasis, check_reduction_conditions, lll_min_gain, lll_reduce
from balancelat.linalg import RMatrix, RVector, determinant
from balancelat.nbp import NbpInstance, mitm_min
from balancelat.rationals import sqrt_upper
from body_helpers import count_builds, open_cube, slab_member
from linalg_helpers import diagonal, integer_points, norm_sq, scale, sub, transpose, unit


def rational_rotation(rng, n):
    """Exactly orthogonal rational matrix: product of circle-point Givens rotations."""
    rows = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        p, q = rng.sample(range(n), 2)
        u = Fraction(rng.randint(-64, 64), 128)
        c = (1 - u * u) / (1 + u * u)
        s = 2 * u / (1 + u * u)
        for i in range(n):
            vp, vq = rows[i][p], rows[i][q]
            rows[i][p] = c * vp - s * vq
            rows[i][q] = s * vp + c * vq
    return RMatrix(rows)


class TestMember:
    def test_unit_cube_contains_origin(self):
        cube = open_cube(2, Fraction(3, 2))
        assert cube.contains((0, 0)) and slab_member(cube, (0, 0))

    def test_ellipsoid_boundary(self):
        e = LatticeBasis(diagonal([Fraction(1, 2)] * 2))
        assert e.quad((2, 0)) == 1 and e.quad((0, -2)) == 1
        assert e.quad((2, 1)) == Fraction(5, 4) and e.quad((1, 1)) == Fraction(1, 2)

    def test_theorem5_style_body(self):
        a = RVector([Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)])
        delta = Fraction(3) * Fraction(1, 3) ** 2  # n (rho/(k+1))^(n-1)
        body = CubeSlabBody(NbpInstance.from_values(a), delta, Fraction(3))
        x = (1, -1, 0)
        assert abs(a.dot(RVector(x))) == Fraction(1, 6) <= delta
        assert body.contains(x) and slab_member(body, x)

    def test_symmetry(self):
        rng = random.Random(31)
        a = RVector([Fraction(rng.randint(-8, 8), 9) for _ in range(4)])
        body = CubeSlabBody(NbpInstance.from_values(a), Fraction(1, 3), Fraction(2))
        for _ in range(50):
            x = [rng.randint(-2, 2) for _ in range(4)]
            assert body.contains(x) == body.contains([-v for v in x])


def reference_quad(e, x):
    """|A x|^2 entry by entry in Fractions, on the Fraction view of A."""
    return norm_sq([sum((a * v for a, v in zip(row, x)), Fraction(0)) for row in e.B.rows])


class TestQuadMatchesReference:
    """quad(x), on A's integer rows, is the Fraction |A x|^2 at integer points."""

    def assert_matches(self, e, rng):
        for x in integer_points(rng, e.n, 12):
            q = e.quad(x)
            assert type(q) is Fraction and q == reference_quad(e, x)

    def test_generated_ellipsoids(self):
        rng = random.Random(611)
        for n in range(1, 6):
            for seed in range(4):
                self.assert_matches(gen_ellipsoid(n, seed), rng)

    def test_axes_and_lengths_over_mixed_denominators(self):
        rng = random.Random(612)
        for n in range(1, 6):
            for _ in range(3):
                rot = rational_rotation(rng, n) if n > 1 else RMatrix.identity(1)
                lengths = sorted(Fraction(rng.randint(1, 60), rng.randint(1, 17)) for _ in range(n))
                e = ellipsoid_from_axes([rot.column(i) for i in range(n)], lengths)
                assert e.B.den > 1
                self.assert_matches(e, rng)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidParams, match="dimension mismatch"):
            gen_ellipsoid(3, 1).quad((1, 0))


class TestMinkowskiOracle:
    def test_closed_cube_lexicographic(self):
        # the cube [-1, 1]^2 is the open cube of radius 3/2
        assert minkowski_exact_oracle(open_cube(2, Fraction(3, 2))) == (-1, -1)

    def test_open_cube_has_no_point(self):
        with pytest.raises(NotFound):
            minkowski_exact_oracle(open_cube(2, 1))

    def test_result_is_always_member(self):
        rng = random.Random(32)
        for n in (4, 5, 6):
            a = RVector([2 * Fraction(rng.randrange(2**20), 2**20) - 1 for _ in range(n)])
            delta = n * Fraction(1, 2) ** (n - 1)  # k = 1, rho = 1
            body = CubeSlabBody(NbpInstance.from_values(a), delta, Fraction(2))
            x = minkowski_exact_oracle(body)
            assert any(x)
            assert slab_member(body, x)
            assert max(abs(v) for v in x) <= 1
            assert abs(a.dot(RVector(x))) <= delta

    def test_pruned_search_matches_generic_predicate_search(self):
        rng = random.Random(33)
        for _ in range(5):
            n = 4
            a = RVector([Fraction(rng.randint(-15, 15), 16) for _ in range(n)])
            delta = Fraction(1, 3)
            body = CubeSlabBody(NbpInstance.from_values(a), delta, Fraction(2))
            try:
                fast = minkowski_exact_oracle(body)
            except NotFound:
                fast = None
            assert fast == reference_minkowski(body, prune=False)[0]


def reference_minkowski(body, prune=True):
    """The recursive search the exact oracle ran before closed-form slab ranges.

    Tries every value of [-m, m] at each level and keeps a child when the
    cube-slab prefix test (re-summing the prefix) admits it; with
    prune=False it admits every child, a search by the predicate alone.
    Leaves take the Fraction test ``slab_member``.  The body is symmetric,
    so its first point leads negative: the pruned search, like the
    library's, tries at most 0 after an all-zero prefix.  Returns (point
    or None, nodes).  The nodes are counted as the library counts them,
    under its growth rule for the tail table: the head starts as all n
    coordinates, and on returning from a node at depth head - 1, once
    (2m+1)^(t+1) nodes have been spent since the last growth (t = n - head),
    the head gives its last coordinate to the tail.  A node is a head node
    whose children are tried or a head leaf reached (where the library
    probes its tail table).
    """
    n = body.dim
    m = body.int_box_limit()
    head, built = [n], [0]  # the current head and the nodes spent at the last growth
    prefix = [0] * n
    nodes = [0]
    ints, den = body.inst.ints, body.inst.den
    rhs, sd = body.slab_bound.numerator * den, body.slab_bound.denominator
    suffix = [sum(m * abs(v) for v in ints[d:]) for d in range(n + 1)]

    def feasible(depth):
        if not prune:
            return True
        s = 0
        for i in range(depth):
            if abs(prefix[i]) > m:
                return False
            s += prefix[i] * ints[i]
        return abs(s) * sd <= rhs + sd * suffix[depth]

    def descend(depth):
        if depth <= head[0]:
            nodes[0] += 1
        if depth == n:
            x = tuple(prefix)
            return x if any(x) and slab_member(body, x) else None
        for v in range(-m, (m if not prune or any(prefix[:depth]) else 0) + 1):
            prefix[depth] = v
            if feasible(depth + 1):
                found = descend(depth + 1)
                if found is not None:
                    return found
                grown = (2 * m + 1) ** (n - head[0] + 1)
                if depth + 2 == head[0] and nodes[0] - built[0] >= grown:
                    head[0], built[0] = depth + 1, nodes[0]
        prefix[depth] = 0
        return None

    return descend(0), nodes[0]


def searched(body):
    """minkowski_exact_oracle's point (None on NotFound) and its nodes: the
    least budget that it does not exceed, found by bisection."""

    def run(budget):
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("BALANCELAT_BUDGET", str(budget))
            try:
                return minkowski_exact_oracle(body)
            except NotFound:
                return None

    lo, hi = 0, 1  # every search exceeds budget 0
    while True:
        try:
            point = run(hi)
            break
        except BudgetExceeded:
            lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            point, hi = run(mid), mid
        except BudgetExceeded:
            lo = mid
    return point, hi


def slab_draws(seed):
    """Cube-slab bodies, n = 1-8 and box limit m = 1-3, with slab bounds at,
    just above and just below the optimum min |<a, x>| over the box.

    Boxes are open, with integral and non-integral radii; entries include
    zeros, negatives and repeats (some negated)."""
    rng = random.Random(seed)
    for n in range(1, 9):
        for m in (1, 2, 3):
            if (2 * m + 1) ** n > 20_000:
                continue
            for radius in (Fraction(m + 1), Fraction(2 * m + 1, 2)):
                a = []
                for _ in range(n):
                    roll = rng.random()
                    if roll < 0.07:
                        a.append(Fraction(0))
                    elif roll < 0.17 and a:
                        a.append(rng.choice((1, -1)) * rng.choice(a))
                    else:
                        q = rng.choice((7, 1024, 2**20))
                        a.append(Fraction(rng.randint(-q, q), q))
                opt = mitm_min(NbpInstance.from_values(a), m).error
                eps = Fraction(1, 10**6)
                for bound in (opt, opt + eps, opt - eps):
                    body = CubeSlabBody(NbpInstance.from_values(a), bound, radius)
                    assert body.int_box_limit() == m
                    yield body


class TestMinkowskiMatchesReference:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_slab_bodies(self, seed):
        for body in slab_draws(seed):
            assert searched(body) == reference_minkowski(body), (
                body.inst, body.slab_bound, body.box_radius)

    def test_generic_bodies(self):
        # the pruned search finds the point that the predicate alone finds
        rng = random.Random(35)
        for n, radius in ((1, Fraction(7, 2)), (3, Fraction(5, 2)), (4, Fraction(3, 2))):
            a = RVector([Fraction(rng.randint(-9, 9), 10) for _ in range(n)])
            slab = CubeSlabBody(NbpInstance.from_values(a), Fraction(1, 10), radius)
            assert searched(slab)[0] == reference_minkowski(slab, prune=False)[0]
        # the walk starts with every coordinate in the head, so its first
        # leaf, the fourth node, holds the first point
        cube = open_cube(3, Fraction(3, 2))
        assert searched(cube) == reference_minkowski(cube) == ((-1, -1, -1), 4)


def box_points(n, m, rng, cap=50):
    """Every integer point of [-m, m]^n, or cap random ones when it holds more."""
    if (2 * m + 1) ** n <= cap:
        return list(product(range(-m, m + 1), repeat=n))
    return [tuple(rng.randint(-m, m) for _ in range(n)) for _ in range(cap)]


class TestContains:
    """``contains(x)``, the integer test, agrees with the Fraction test ``slab_member``."""

    def test_slab_bodies_agree_with_the_fraction_test(self):
        # each box one step past its integer limit, plus the search's point
        # (on the slab's edge when the bound is the optimum), its double and
        # its neighbours one step away along each axis
        rng = random.Random(36)
        for body in slab_draws(1):
            try:
                edge = minkowski_exact_oracle(body)
            except NotFound:
                edge = (0,) * body.dim
            near = [edge, tuple(2 * v for v in edge)]
            for i, step in product(range(body.dim), (-1, 1)):
                near.append(edge[:i] + (edge[i] + step,) + edge[i + 1:])
            for dilated in (body, body.dilate(2), body.dilate(Fraction(3, 2))):
                points = box_points(body.dim, dilated.int_box_limit() + 1, rng) + near
                for x in points:
                    assert dilated.contains(x) == slab_member(dilated, x), (
                        body.inst, dilated.slab_bound, dilated.box_radius, x)

    def test_slab_bodies_are_symmetric(self):
        # the searches visit only points that lead negative, which is sound
        # only because x and -x are members together
        rng = random.Random(39)
        for body in slab_draws(1):
            for x in box_points(body.dim, body.int_box_limit() + 1, rng):
                assert body.contains(x) == body.contains(tuple(-v for v in x)), (body.inst, x)

    @pytest.mark.parametrize("rho", [0, -1, Fraction(-1, 2)])
    def test_dilation_must_be_positive(self, rho):
        with pytest.raises(InvalidParams, match="must be positive"):
            open_cube(2, 2).dilate(rho)

    def test_wrong_length_is_refused(self):
        slab = CubeSlabBody(NbpInstance.from_values([Fraction(1, 2)] * 3),
                            Fraction(1), Fraction(2))
        for body in (slab, open_cube(3, Fraction(3, 2))):
            for x in ((0, 0), (1, -1, 0, 0)):
                with pytest.raises(InvalidParams, match="dimension mismatch"):
                    body.contains(x)


class TestMinkowskiBudget:
    def body(self):
        a = RVector([Fraction(v, 1024) for v in (1000, -731, 517, 389, -251, 97)])
        inst = NbpInstance.from_values(a)
        return CubeSlabBody(inst, Fraction(6, 4**5), Fraction(4))

    def test_passes_at_exactly_the_nodes_it_needs(self, monkeypatch):
        point, nodes = reference_minkowski(self.body())
        assert point is not None and nodes > 1
        monkeypatch.setenv("BALANCELAT_BUDGET", str(nodes))
        assert minkowski_exact_oracle(self.body()) == point

    def test_one_node_short_names_where_it_stopped(self, monkeypatch):
        _, nodes = reference_minkowski(self.body())
        monkeypatch.setenv("BALANCELAT_BUDGET", str(nodes - 1))
        with pytest.raises(BudgetExceeded) as info:
            minkowski_exact_oracle(self.body())
        stop = re.fullmatch(
            f"Minkowski enumeration exceeded budget: {nodes} nodes visited, "
            f"limit {nodes - 1}, dimension 6, depth (\\d+), tail length (\\d+)", str(info.value))
        depth, tail = map(int, stop.groups())
        assert 0 <= depth <= 6 - tail and 0 <= tail < 6

    def test_budget_runs_out_on_a_tail_probe(self, monkeypatch):
        # m = 3: the walk grows its table once, to 7 sums, and a search ends
        # on the probe that finds its point, so one node short it stops
        # there, at depth 5 with a tail of 1
        builds = count_builds(monkeypatch)
        _, nodes = reference_minkowski(self.body())
        monkeypatch.setenv("BALANCELAT_BUDGET", str(nodes - 1))
        with pytest.raises(BudgetExceeded, match=f"^Minkowski enumeration exceeded budget: "
                           f"{nodes} nodes visited, limit {nodes - 1}, dimension 6, depth 5, "
                           f"tail length 1$"):
            minkowski_exact_oracle(self.body())
        assert builds == [(1, 7)]

    def test_a_table_that_does_not_fit_is_refused(self, monkeypatch):
        # the walk's one build, of 7 sums, runs out of memory: a refusal that
        # says where the search stood, with the tail length it was building
        def no_memory(ints, k, b):
            raise MemoryError

        monkeypatch.setattr(geometry, "_sorted_half", no_memory)
        monkeypatch.delenv("BALANCELAT_BUDGET", raising=False)
        with pytest.raises(BudgetExceeded, match="^Minkowski enumeration ran out of memory for "
                           "7 tail sums: [0-9]+ nodes visited, limit 100000000, dimension 6, "
                           "depth 5, tail length 1$") as info:
            minkowski_exact_oracle(self.body())
        assert info.value.__cause__ is None and info.value.__suppress_context__

    def test_budget_counts_nodes_not_the_box(self, monkeypatch):
        # the box holds 7^6 points, more than the budget; the pruned search needs fewer nodes
        monkeypatch.setenv("BALANCELAT_BUDGET", str(7**5))
        assert minkowski_exact_oracle(self.body())

    def test_environment_budget(self, monkeypatch):
        monkeypatch.setenv("BALANCELAT_BUDGET", "1")
        with pytest.raises(BudgetExceeded, match="2 nodes visited, limit 1, dimension 6"):
            minkowski_exact_oracle(self.body())

    def test_a_block_of_the_n256_full_reduction(self, monkeypatch):
        # the costliest of the 17 block calls that `reduce to-nbp --full
        # --oracle exact-mink` makes on `gen nbp --n 256 --seed 3 --signed`:
        # 16 entries at box limit 3.  A table fixed at 3^5 sums left it a
        # head of 14 levels and several seconds of search; the grown table
        # ends it at 142 548 nodes
        ints = (-277110002, -513047667, -198382025, -42232256, -472025104, 451530243,
                468325520, 295113576, 153425402, -499586132, 285813504, -466719823,
                82550444, -335378114, 253064449, -116792521)
        body = CubeSlabBody(NbpInstance.from_ints(ints, 2**29), Fraction(1, 2**26), 4)
        assert body.int_box_limit() == 3
        nodes = 142_548
        monkeypatch.setenv("BALANCELAT_BUDGET", str(nodes))
        assert minkowski_exact_oracle(body) == (
            -3, -3, -3, -3, -1, -1, -2, -1, -2, 1, 0, -1, -3, 2, -2, 1)
        monkeypatch.setenv("BALANCELAT_BUDGET", str(nodes - 1))
        with pytest.raises(BudgetExceeded, match=f"^Minkowski enumeration exceeded budget: "
                           f"{nodes} nodes visited, limit {nodes - 1}, dimension 16, "):
            minkowski_exact_oracle(body)


def matches_reference(body):
    """The search's point and nodes agree with the pruned reference, and its
    point with the unpruned one; returns the point."""
    point, nodes = searched(body)
    assert (point, nodes) == reference_minkowski(body), (body.inst, body.slab_bound)
    assert point == reference_minkowski(body, prune=False)[0], (body.inst, body.slab_bound)
    return point


def slab_body(values, bound, radius):
    return CubeSlabBody(NbpInstance.from_values(values), Fraction(bound), Fraction(radius))


def search_point(body):
    """minkowski_exact_oracle's point, or None on NotFound."""
    try:
        return minkowski_exact_oracle(body)
    except NotFound:
        return None


class TestMinkowskiTailTable:
    """The edges of the split between the searched head and the tail table,
    which grows with the nodes the walk spends."""

    def test_the_head_keeps_its_first_coordinate(self, monkeypatch):
        # m = 1 and entries 1/2 + 3^j / (3^n 2^8), which no nonzero point
        # cancels: the walk searches the whole box, so every table it may
        # build it builds, and about half of the coordinates stay in the
        # head.  The root is never a probe: at n = 1 the table never grows
        builds = count_builds(monkeypatch)
        for n, tails in enumerate(([], [1], [1], [1, 2], [1, 2], [1, 2, 3], [1, 2, 3],
                                   [1, 2, 3, 4]), 1):
            builds.clear()
            values = [Fraction(1, 2) + Fraction(3**j, 3**n * 2**8) for j in range(n)]
            body = slab_body(values, Fraction(1, 3**n * 2**9), 2)
            assert search_point(body) is None
            assert [t for t, _ in builds] == tails
            assert matches_reference(body) is None

    def test_no_tail_when_the_box_is_wide(self, monkeypatch):
        # 2m + 1 = 399: a table of one coordinate would hold more sums than
        # the walk spends nodes, so it never grows and every head leaf is a
        # whole point
        builds = count_builds(monkeypatch)
        body = slab_body([Fraction(1, 3), Fraction(1, 2)], Fraction(1, 6), 200)
        assert body.int_box_limit() == 199
        assert matches_reference(body) == (-199, 133)
        body = slab_body([Fraction(1, 3)], Fraction(1, 6), 200)
        assert matches_reference(body) is None
        assert builds == []

    def test_zero_head_with_only_the_zero_tail(self, monkeypatch):
        # m = 1, n = 7: tails whose nonzero sums all exceed the slab bound;
        # the last probe, at the zero head, must skip the zero tail, after
        # the table has grown twice
        builds = count_builds(monkeypatch)
        values = [Fraction(1, 2), Fraction(1, 3)] + [Fraction(1, 2**j) for j in range(3, 8)]
        body = slab_body(values, Fraction(1, 2**9), 2)
        assert search_point(body) is None
        assert builds == [(1, 3), (2, 9)]
        assert matches_reference(body) is None

    def test_zero_head_with_a_nonzero_tail(self):
        # no tail cancels a nonzero head, so the answer's head is zero
        values = [Fraction(1), Fraction(1, 2)] + [Fraction(1, 2**j) for j in range(3, 8)]
        body = slab_body(values, Fraction(1, 2**7), 2)
        assert matches_reference(body) == (0, 0, -1, 1, 1, 1, 1)

    def test_zero_entries_inside_the_tail(self, monkeypatch):
        # a zero among the last two entries; at slab bounds 0 and 1/64 most
        # walks grow their table past it
        builds = count_builds(monkeypatch)
        rng = random.Random(38)
        covered = 0
        for _ in range(20):
            n = rng.randint(5, 8)
            a = [Fraction(rng.randint(-31, 31), 32) for _ in range(n)]
            a[rng.randrange(n - 2, n)] = Fraction(0)
            body = slab_body(a, Fraction(rng.randint(0, 1), 64), 2)
            builds.clear()
            search_point(body)
            t = max((t for t, _ in builds), default=0)
            covered += not all(a[n - t:])
            matches_reference(body)
        assert covered >= 10
        # two zeros among the last five entries, at slab bounds up to 4/64:
        # a zero entry puts its unit vector in the body, so each walk ends on
        # a point
        for _ in range(20):
            n = rng.randint(4, 8)
            a = [Fraction(rng.randint(-31, 31), 32) for _ in range(n)]
            for i in rng.sample(range(max(n - 5, 0), n), 2):
                a[i] = Fraction(0)
            assert matches_reference(slab_body(a, Fraction(rng.randint(0, 4), 64), 2))

    def test_box_limit_zero(self, monkeypatch):
        # 2m + 1 = 1: each table holds the one zero tail, and the walk grows
        # it once it leaves the last head node
        builds = count_builds(monkeypatch)
        body = slab_body([Fraction(1, 2)] * 4, 1, 1)
        assert body.int_box_limit() == 0
        with pytest.raises(NotFound):
            minkowski_exact_oracle(body)
        assert builds == [(1, 1)]
        assert searched(body) == reference_minkowski(body) == (None, 5)

    def test_degenerate_bodies_hold_no_point(self, monkeypatch):
        # a negative slab bound: every probe's window is empty, in a walk
        # that grows its table three times
        builds = count_builds(monkeypatch)
        body = slab_body([Fraction(1, 2)] * 5 + [1], Fraction(-1, 2), 2)
        assert search_point(body) is None
        assert builds == [(1, 3), (2, 9), (3, 27)]
        assert matches_reference(body) is None
        # a box radius <= 0, or a slab that ends the walk before any leaf:
        # the walk stops at the root, or one level below it
        for bound, radius, nodes in ((-1, 2, 2), (-1, 1, 1), (1, 0, 1), (1, Fraction(-3, 2), 1)):
            body = slab_body([Fraction(1, 2)] * 3, bound, radius)
            assert searched(body) == reference_minkowski(body) == (None, nodes)

    def test_each_build_grows_the_table_within_the_nodes_spent(self, monkeypatch):
        # per search, t rises by one from build to build, and the sums built,
        # the one-entry table at t = 0 included, never pass the nodes plus one
        builds = count_builds(monkeypatch)
        grown = 0
        for body in slab_draws(1):
            builds.clear()
            point = search_point(body)
            ts = [t for t, _ in builds]
            assert ts == list(range(1, len(ts) + 1))
            point_, nodes = reference_minkowski(body)
            assert point == point_
            assert 1 + sum(sums for _, sums in builds) <= nodes + 1
            grown += len(ts) >= 2
        assert grown >= 20

    def test_wrong_table_completion_is_a_contradiction(self, monkeypatch):
        # min |<a, x>| over the box is above 1/10^4: no point, until each
        # table reads one nonzero tail's sum as 0
        body = slab_body([Fraction(1, p) for p in (2, 3, 5, 7, 11)], Fraction(1, 10**4), 2)
        builds = count_builds(monkeypatch)
        with pytest.raises(NotFound):
            minkowski_exact_oracle(body)
        assert builds == [(1, 3), (2, 9)]
        original = geometry._sorted_half

        def one_wrong_sum(ints, k, b):
            table = original(ints, k, b)
            wrong = table[0] & ((1 << b) - 1)  # the smallest sum's tail, not the zero tail
            return sorted(table[1:] + [wrong])

        monkeypatch.setattr(geometry, "_sorted_half", one_wrong_sum)
        with pytest.raises(InternalContradiction, match="not in the body"):
            minkowski_exact_oracle(body)


class TestWellRound:
    def test_unit_ball_returns_unit_vector(self):
        result = well_round(LatticeBasis(RMatrix.identity(3)))
        assert result.branch == "integer-point"
        assert sorted(abs(v) for v in result.point) == [0, 0, 1]

    def test_short_axis_gives_integer_point(self):
        e = LatticeBasis(diagonal([Fraction(1, 10), 10]))
        result = well_round(e)
        assert result.branch == "integer-point"
        assert e.quad(result.point) <= 1

    def test_integer_point_outside_ellipsoid_raises(self, monkeypatch):
        monkeypatch.setattr(LatticeBasis, "quad", lambda self, x: Fraction(2))
        with pytest.raises(InternalContradiction):
            well_round(LatticeBasis(RMatrix.identity(3)))

    def test_skewed_ellipsoid_right_branch(self):
        a = RMatrix([[3, 100, 7], [0, 5, 91], [0, 0, 4]])
        e = LatticeBasis(a)
        result = well_round(e)
        assert result.branch == "rounded"
        n = 3
        gain_sq = lll_min_gain(result.rounded, result.cert)
        assert gain_sq == Fraction(1, 2 ** (3 * n))
        b = result.rounded.B
        # volume / determinant preserved under the unimodular change
        assert abs(determinant(b)) == abs(determinant(a))
        rng = random.Random(34)
        for _ in range(100):
            x = RVector([Fraction(rng.randint(-30, 30), 7) for _ in range(n)])
            assert norm_sq(b.matvec(x)) >= gain_sq * norm_sq(x)

    def test_transform_orientation(self):
        a = RMatrix([[3, 100], [0, 5]])
        e = LatticeBasis(a)
        result = well_round(e)
        if result.branch != "rounded":
            pytest.skip("left branch")
        # A U is exactly the rounded form matrix: x = U y maps E' back to E
        assert a.matmul(result.transform.U) == result.rounded.B
        y = (1, -2)
        assert e.quad(result.transform.apply(y)) == result.rounded.quad(y)


def seeded_bases(n):
    """(reduced basis, LLL certificate) of an integer gen_basis draw and a rational draw."""
    rng = random.Random(400 + n)
    while True:
        m = RMatrix([[Fraction(rng.randint(-99, 99), rng.randint(1, 16)) for _ in range(n)]
                     for _ in range(n)])
        if determinant(m) != 0:
            break
    return [lll_reduce(b)[::2] for b in (gen_basis(n, 400 + n, 99), LatticeBasis(m))]


def pivot(axis):
    """The index i of a_i = e_i + sum_{j > i} mu_ji e_j: its first nonzero entry, 1."""
    return list(axis).index(1)


class TestAxisExtract:
    """axis_extract reads the axis form |B' y|^2 = sum_i |bhat_i|^2 <a_i, y>^2 off the certificate."""

    def test_diagonal(self):
        axes, lengths, norms_sq = axis_extract(
            check_reduction_conditions(diagonal([2, Fraction(1, 2)]))
        )
        assert lengths == [Fraction(1, 2), 2]
        assert norms_sq == [4, Fraction(1, 4)]
        assert axes == [RVector([1, 0]), RVector([0, 1])]

    def test_two_by_two_hand_oracle(self):
        # LLL size-reduces (1, 4) against (2, 0) to b1 = (-1, 4): bhat_0 = (2, 0),
        # mu_10 = -1/2, bhat_1 = (0, 4), so |B' y|^2 = 4 (y0 - y1/2)^2 + 16 y1^2
        result = well_round(LatticeBasis(RMatrix([[2, 1], [0, 4]])))
        assert result.branch == "rounded"
        assert result.rounded.B == RMatrix([[2, -1], [0, 4]])
        axes, lengths, norms_sq = axis_extract(result.cert)
        assert axes == [RVector([0, 1]), RVector([1, Fraction(-1, 2)])]
        assert lengths == [Fraction(1, 4), Fraction(1, 2)]
        assert norms_sq == [16, 4]

    def test_reconstruction_residual_random(self):
        # sum_i |bhat_i|^2 a_i a_i^T is B'^T B' exactly: the residual is zero
        rng = random.Random(35)
        for _ in range(3):
            rot = rational_rotation(rng, 3)
            diag = diagonal([Fraction(rng.randint(9, 40), rng.randint(1, 4))
                                     for _ in range(3)])
            result = well_round(LatticeBasis(diag.matmul(transpose(rot))))
            axes, _, norms_sq = axis_extract(result.cert)
            recon = [[sum(w * ax[i] * ax[j] for ax, w in zip(axes, norms_sq)) for j in range(3)]
                     for i in range(3)]
            b = result.rounded.B
            assert RMatrix(recon) == transpose(b).matmul(b)

    def test_lengths_sorted_ascending(self):
        # Gram-Schmidt lengths 1/2, 1, 1/2, 1/4: the three lists move together,
        # and the tie keeps the Gram-Schmidt order
        axes, lengths, norms_sq = axis_extract(
            check_reduction_conditions(diagonal([2, 1, 2, 4]))
        )
        assert lengths == [Fraction(1, 4), Fraction(1, 2), Fraction(1, 2), 1]
        assert axes == [unit(4, i) for i in (3, 0, 2, 1)]
        assert norms_sq == [16, 4, 4, 1]

    @pytest.mark.parametrize("n", range(1, 11))
    def test_form_contract_on_seeded_bases(self, n):
        rng = random.Random(500 + n)
        for reduced, cert in seeded_bases(n):
            axes, lengths, norms_sq = axis_extract(cert)
            for _ in range(20):
                y = RVector([rng.randint(-50, 50) for _ in range(n)])
                form = sum((w * ax.dot(y) ** 2 for ax, w in zip(axes, norms_sq)), Fraction(0))
                assert form == norm_sq(reduced.B.matvec(y))
            assert all(abs(e) <= 1 for ax in axes for e in ax)
            product = Fraction(1)
            for l in lengths:
                product *= l
            assert product >= 1 / abs(determinant(reduced.B))
            assert lengths == sorted(lengths)
            d, f2 = cert.d, cert.scale**2
            assert sorted(map(pivot, axes)) == list(range(n))
            for ax, l, w in zip(axes, lengths, norms_sq):
                i = pivot(ax)
                assert w == Fraction(d[i + 1], d[i] * f2)
                assert l * l * d[i + 1] >= d[i] * f2  # lambda_i >= 1 / |bhat_i|

    def test_refuses_a_basis_that_is_not_size_reduced(self):
        cert = check_reduction_conditions(RMatrix([[1, 1], [0, 1]]))  # mu_10 = 1
        with pytest.raises(PreconditionFailed, match="size-reduced"):
            axis_extract(cert)


def reference_axis_form(b):
    """The axis form from a textbook Fraction Gram-Schmidt of the columns of b."""
    n = b.ncols
    bhat, mu = [], [[Fraction(0)] * n for _ in range(n)]
    for k in range(n):
        v = b.column(k)
        for j in range(k):
            mu[k][j] = b.column(k).dot(bhat[j]) / norm_sq(bhat[j])
            v = sub(v, scale(bhat[j], mu[k][j]))
        bhat.append(v)
    axes = [RVector([mu[j][i] if j > i else int(i == j) for j in range(n)]) for i in range(n)]
    lengths = [sqrt_upper(1 / norm_sq(v), 64) for v in bhat]
    order = sorted(range(n), key=lambda i: lengths[i])
    return ([axes[i] for i in order], [lengths[i] for i in order],
            [norm_sq(bhat[i]) for i in order])


def assert_axes_match_reference(e):
    result = well_round(e)
    assert result.branch == "rounded"
    assert axis_extract(result.cert) == reference_axis_form(result.rounded.B)


def rounded_draws(n, count):
    """The first `count` gen_ellipsoid seeds whose well-rounding is the rounded branch."""
    out = []
    seed = 0
    while len(out) < count:
        if well_round(gen_ellipsoid(n, seed)).branch == "rounded":
            out.append(gen_ellipsoid(n, seed))
        seed += 1
    return out


class TestAxisExtractMatchesReference:
    """The form read off the integer certificate equals a Fraction Gram-Schmidt's."""

    @pytest.mark.parametrize("n, count", [(2, 4), (3, 4), (4, 1)])
    def test_rounded_gen_ellipsoids(self, n, count):
        for e in rounded_draws(n, count):
            assert_axes_match_reference(e)

    def test_rational_rotation_ellipsoids(self):
        rng = random.Random(36)
        for n in (2, 3, 3, 4):
            rot = rational_rotation(rng, n)
            diag = diagonal(
                [Fraction(rng.randint(9, 40), rng.randint(1, 4)) for _ in range(n)]
            )
            a = diag.matmul(transpose(rot))
            assert_axes_match_reference(LatticeBasis(a))

    def test_diagonal_needs_no_rotation(self):
        # orthogonal columns: the axes are coordinate axes of B' (LLL swaps the
        # last two columns), in ascending length
        e = LatticeBasis(diagonal([2, 8, 4]))
        assert_axes_match_reference(e)
        axes, lengths, _ = axis_extract(well_round(e).cert)
        assert axes == [unit(3, 2), unit(3, 1), unit(3, 0)]
        assert lengths == [Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)]

    def test_repeated_eigenvalues(self):
        # equal axis lengths tie the sort; it keeps the Gram-Schmidt order
        rng = random.Random(37)
        for lengths in ([2, 2, 1], [1, 1, 1], [3, 1, 3, 1]):
            rot = rational_rotation(rng, len(lengths))
            diag = diagonal([Fraction(3, l) for l in lengths])
            a = diag.matmul(transpose(rot))
            assert_axes_match_reference(LatticeBasis(a))
