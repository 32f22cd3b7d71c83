import bisect
import heapq
import itertools
import json
import random
from fractions import Fraction

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balancelat import nbp
from balancelat.cli import main
from balancelat.errors import (
    BudgetExceeded,
    InternalContradiction,
    InvalidParams,
    PreconditionFailed,
)
from balancelat.nbp import (
    NbpInstance,
    NbpSolution,
    brute_force_min,
    instance_inner,
    karmarkar_karp,
    mitm_min,
    pigeonhole_bound,
    pigeonhole_solve,
    verify,
)
from balancelat.geometry import CubeSlabBody
from balancelat.linalg import RVector
from balancelat.rationals import common_denominator_ints
from body_helpers import slab_member
from linalg_helpers import entries


def dyadic_instance(rng, n, bits=30, signed=True):
    vals = []
    for _ in range(n):
        u = Fraction(rng.randrange(2**bits), 2**bits)
        vals.append(2 * u - 1 if signed else u)
    return NbpInstance.from_values(vals)


def small_int_instance(rng, n, span=3):
    """Entries j/span with |j| <= span: many equal sums, so many ties."""
    return NbpInstance.from_values([Fraction(rng.randint(-span, span), span) for _ in range(n)])


# The solvers as they were, kept as the references of the current ones: the
# same witnesses and tie-breaks, so they must return equal NbpSolutions.
# MITM and pigeonhole on (sum, tuple) pairs and a key= sort, KK on a Fraction
# heap, and brute force as a pruned recursion down to every leaf.


def reference_brute_force(inst, k):
    ints, den = inst.ints, inst.den
    n = inst.n
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + k * abs(ints[i])
    best = [None, None]
    prefix = [0] * n

    def descend(i, s, nonzero_seen):
        if i == n:
            if nonzero_seen and (best[0] is None or abs(s) < best[0]):
                best[0], best[1] = abs(s), tuple(prefix)
            return
        if best[0] is not None and abs(s) - suffix[i] >= best[0]:
            return
        for v in range(-k, (k if nonzero_seen else 0) + 1):
            prefix[i] = v
            descend(i + 1, s + v * ints[i], nonzero_seen or v != 0)
        prefix[i] = 0

    descend(0, 0, False)
    return verify(inst, best[1], k)


def _reference_half_sums(ints, k):
    items = [(0, ())]
    for a in ints:
        items = [(s + v * a, x + (v,)) for s, x in items for v in range(-k, k + 1)]
    return items


def reference_mitm(inst, k):
    nl = (inst.n + 1) // 2
    ints, den = inst.ints, inst.den
    left = _reference_half_sums(ints[:nl], k)
    right = _reference_half_sums(ints[nl:], k)
    left_sorted = sorted(s for s, _ in left)
    min_abs_nonzero_left = min((abs(s) for s, x in left if any(x)), default=None)
    best = None
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
    min_xr, min_xr_nonzero = {}, {}
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


def reference_pigeonhole(inst, N):
    m = N.bit_length()
    ints, den = inst.ints, inst.den
    sums = [0] * (N + 1)
    for t in range(1, N + 1):
        low = t & -t
        sums[t] = sums[t & (t - 1)] + ints[low.bit_length() - 1]
    order = sorted(range(N + 1), key=lambda t: (sums[t], t))
    best_gap = best_pair = None
    for idx in range(N):
        t1, t2 = order[idx], order[idx + 1]
        gap = sums[t2] - sums[t1]
        if best_gap is None or gap < best_gap:
            best_gap, best_pair = gap, (t1, t2)
    t_lo, t_hi = best_pair
    x = [0] * inst.n
    for j in range(m):
        x[j] = ((t_hi >> j) & 1) - ((t_lo >> j) & 1)
    return verify(inst, x, 1)


def reference_kk(inst):
    heap = []
    for i, ai in enumerate(entries(inst)):
        vec = [0] * inst.n
        vec[i] = 1 if ai >= 0 else -1
        heapq.heappush(heap, (-abs(ai), i, abs(ai), vec))
    counter = inst.n
    while len(heap) > 1:
        _, _, v1, x1 = heapq.heappop(heap)
        _, _, v2, x2 = heapq.heappop(heap)
        heapq.heappush(heap, (-(v1 - v2), counter, v1 - v2, [a - b for a, b in zip(x1, x2)]))
        counter += 1
    _, _, residual, vec = heap[0]
    solution = verify(inst, vec, 1)
    assert solution.error == residual
    return solution


def random_instances(seed, count, max_n):
    """Dyadic and tie-heavy small-integer instances of dimension 1..max_n."""
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randint(1, max_n)
        yield dyadic_instance(rng, n, bits=12) if i % 2 else small_int_instance(rng, n)


def exhaustive_min(inst, k):
    """Independent oracle: scan every vector in {-k..k}^n \\ {0}."""
    best = None
    witness = None
    for x in itertools.product(range(-k, k + 1), repeat=inst.n):
        if all(v == 0 for v in x):
            continue
        err = abs(instance_inner(inst, x))
        if best is None or err < best:
            best, witness = err, x
    return best, witness


class TestVerify:
    def test_cancelling_pair(self):
        inst = NbpInstance.from_values([Fraction(1, 2), Fraction(1, 2)])
        sol = verify(inst, (1, -1), 1)
        assert sol.error == 0

    def test_zero_vector_rejected(self):
        inst = NbpInstance.from_values([Fraction(1, 2), Fraction(1, 2)])
        with pytest.raises(InvalidParams, match="solution vector is zero"):
            verify(inst, (0, 0), 1)

    def test_exact_inner_product(self):
        inst = NbpInstance.from_values([Fraction(3, 10), Fraction(11, 20), Fraction(13, 20)])
        sol = verify(inst, (0, -1, 1), 1)
        assert sol.error == Fraction(1, 10)

    def test_out_of_range_coefficient(self):
        inst = NbpInstance.from_values([Fraction(1, 2)])
        with pytest.raises(InvalidParams, match=r"exceeds declared bound 1"):
            verify(inst, (2,), 1)

    @pytest.mark.parametrize("x", [[Fraction(1, 2), 1], [1.9, 0], ["1", 0], [float("nan"), 1],
                                   [float("inf"), 1], [float("-inf"), 1], [None, 1]])
    def test_non_integer_entry_is_refused_not_truncated(self, x):
        # int() would read the first three as (0, 1), (1, 0) and (1, 0), and
        # raises ValueError on NaN, OverflowError on an infinity, TypeError on None
        inst = NbpInstance.from_values([Fraction(1, 2), Fraction(1, 3)])
        with pytest.raises(InvalidParams, match="solution entries must be integers"):
            verify(inst, x, 1)

    def test_integer_valued_entries_are_accepted(self):
        inst = NbpInstance.from_values([Fraction(1, 2), Fraction(1, 3)])
        assert verify(inst, [Fraction(1), -1.0], 1) == verify(inst, (1, -1), 1)


def mixed_instance(rng, n):
    """Entries p/q over assorted denominators, so that restrict's gcd has work to do."""
    vals = []
    for _ in range(n):
        q = rng.choice([1, 2, 3, 4, 6, 12, 2**30, 3**7 * 5, rng.randint(1, 10**6)])
        vals.append(Fraction(rng.randint(-q, q), q))
    return NbpInstance.from_values(vals)


class TestIntegerForm:
    """Each instance's (ints, den), its one constructor, and the sums taken on it."""

    def test_pair_is_the_common_denominator_form(self):
        rng = random.Random(61)
        for _ in range(200):
            inst = mixed_instance(rng, rng.randint(1, 12))
            ints, den = common_denominator_ints(entries(inst))
            assert inst.ints == tuple(ints) and inst.den == den

    def test_restrict_equals_from_values(self):
        rng = random.Random(62)
        for _ in range(200):
            inst = mixed_instance(rng, rng.randint(1, 12))
            idx = [rng.randrange(inst.n) for _ in range(rng.randint(1, inst.n))]
            sub = inst.restrict(idx)
            ref = NbpInstance.from_values([entries(inst)[i] for i in idx])
            assert (sub.n, entries(sub), sub.ints, sub.den) == (ref.n, entries(ref), ref.ints, ref.den)

    def test_restrict_reduces_by_the_gcd(self):
        inst = NbpInstance.from_values([Fraction(1, 3), Fraction(1, 4), Fraction(-1, 2)])
        assert (inst.ints, inst.den) == ((4, 3, -6), 12)
        sub = inst.restrict([1, 2])
        assert (sub.ints, sub.den) == ((1, -2), 4)
        assert (inst.restrict([2]).ints, inst.restrict([2]).den) == ((-1,), 2)

    def test_from_ints_equals_from_values(self):
        rng = random.Random(63)
        for _ in range(200):
            den = rng.randint(1, 10**4)
            ints = [rng.randint(-den, den) for _ in range(rng.randint(1, 8))]
            got = NbpInstance.from_ints(ints, den)
            ref = NbpInstance.from_values([Fraction(p, den) for p in ints])
            assert (got.n, entries(got), got.ints, got.den) == (ref.n, entries(ref), ref.ints, ref.den)

    def test_inner_products_equal_the_fraction_sum(self):
        rng = random.Random(64)
        for _ in range(200):
            inst = mixed_instance(rng, rng.randint(1, 12))
            k = rng.randint(1, 5)
            x = [rng.randint(-k, k) for _ in range(inst.n)]
            x[rng.randrange(inst.n)] = k  # nonzero
            textbook = sum((ai * xi for ai, xi in zip(entries(inst), x)), Fraction(0))
            assert instance_inner(inst, x) == textbook
            assert verify(inst, x, k).error == abs(textbook)

    @pytest.mark.parametrize(
        "bad", [1 + Fraction(1, 2**30), -1 - Fraction(1, 2**30), Fraction(3, 2)]
    )
    def test_entry_just_outside_the_range_raises(self, bad):
        with pytest.raises(InvalidParams, match=r"\[-1, 1\]"):
            NbpInstance.from_values([Fraction(1, 2), bad])
        with pytest.raises(InvalidParams, match=r"\[-1, 1\]"):
            NbpInstance.from_ints([1, bad.numerator], bad.denominator)

    def test_unit_entries_are_accepted(self):
        inst = NbpInstance.from_values([1, -1, 0])
        assert (inst.ints, inst.den) == ((1, -1, 0), 1)

    def test_entry_just_outside_the_range_exits_3(self, tmp_path, capsys):
        f = tmp_path / "i.json"
        f.write_text(json.dumps({"n": 2, "a": ["0.5", str(1 + Fraction(1, 2**30))]}))
        assert main(["solve", "--algo", "kk", "--input", str(f)]) == 3
        assert "[-1, 1]" in capsys.readouterr().err

    def test_empty_instance_raises(self):
        with pytest.raises(InvalidParams):
            NbpInstance.from_values([])
        with pytest.raises(InvalidParams):
            NbpInstance.from_values([Fraction(1, 2)]).restrict([])

    @pytest.mark.parametrize(
        "ints, den", [((2, 4), 8), ((1,), 0), ((1,), -2), ((), 1), ((3,), 2)]
    )
    def test_constructor_takes_only_lowest_terms_in_range(self, ints, den):
        with pytest.raises(InvalidParams):
            NbpInstance(ints, den)

    def test_from_ints_refuses_a_zero_denominator(self):
        with pytest.raises(InvalidParams):
            NbpInstance.from_ints([0, 0], 0)

    def test_every_path_gives_one_instance(self):
        rng = random.Random(65)
        for _ in range(200):
            den = rng.randint(1, 10**4)
            ints = [rng.randint(-den, den) for _ in range(rng.randint(1, 8))]
            wide = NbpInstance.from_ints(ints + [den], den)
            forms = (
                NbpInstance.from_values([Fraction(p, den) for p in ints]),
                NbpInstance.from_ints(ints, den),
                NbpInstance.from_ints([3 * p for p in ints], 3 * den),
                wide.restrict(range(len(ints))),
            )
            assert len(set(forms)) == 1 and len({hash(f) for f in forms}) == 1
            assert NbpInstance.from_values(entries(forms[0])) == forms[0]

    def test_slab_member_equals_the_fraction_test(self):
        rng = random.Random(66)
        for i in range(300):
            inst = mixed_instance(rng, rng.randint(1, 6))
            x = [rng.randint(-4, 4) for _ in range(inst.n)]
            inner = abs(entries(inst).dot(RVector(x)))
            # on the slab's edge, just inside it, and anywhere
            bound = (inner, inner + Fraction(1, 10**9), Fraction(rng.randint(0, 20), 7))[i % 3]
            body = CubeSlabBody(inst, bound, rng.choice((3, Fraction(5, 2))))
            in_box = all(abs(e) < body.box_radius for e in x)
            assert body.contains(x) == slab_member(body, x) == (in_box and inner <= bound)


class TestBruteForce:
    def test_equal_pair_cancels(self):
        inst = NbpInstance.from_values([Fraction(1, 2), Fraction(1, 2)])
        sol = brute_force_min(inst, 1)
        assert sol.error == 0
        # lexicographically smallest among the two optimal sign patterns
        assert sol.x == (-1, 1)

    def test_three_values_against_scan(self):
        inst = NbpInstance.from_values([Fraction(3, 10), Fraction(11, 20), Fraction(13, 20)])
        sol = brute_force_min(inst, 1)
        expected, _ = exhaustive_min(inst, 1)
        assert sol.error == expected == Fraction(1, 10)

    def test_single_coordinate(self):
        inst = NbpInstance.from_values([1])
        sol = brute_force_min(inst, 1)
        assert sol.error == 1

    def test_matches_scan_on_random_instances(self):
        rng = random.Random(11)
        for _ in range(15):
            n = rng.randint(1, 6)
            k = rng.randint(1, 2)
            inst = dyadic_instance(rng, n, bits=10)
            sol = brute_force_min(inst, k)
            expected, _ = exhaustive_min(inst, k)
            assert sol.error == expected

    def test_lexicographic_tiebreak_against_scan(self):
        # duplicated entries create many optima; compare with a full lex scan
        inst = NbpInstance.from_values(
            [Fraction(1, 4), Fraction(1, 4), Fraction(1, 4), Fraction(3, 4)]
        )
        sol = brute_force_min(inst, 2)
        best = None
        for x in itertools.product(range(-2, 3), repeat=4):
            if all(v == 0 for v in x):
                continue
            err = abs(instance_inner(inst, x))
            if best is None or err < best[0] or (err == best[0] and x < best[1]):
                best = (err, x)
        assert (sol.error, sol.x) == best

    def test_budget(self, monkeypatch):
        monkeypatch.setenv("BALANCELAT_BUDGET", "1000")
        inst = NbpInstance.from_values([Fraction(1, 2)] * 30)
        with pytest.raises(BudgetExceeded):
            brute_force_min(inst, 1)


    def test_search_without_nonzero_leaf_raises(self):
        # no real instance has n = 0; a stand-in gives a search with no leaf
        empty = SimpleNamespace(n=0, ints=(), den=1)
        with pytest.raises(InternalContradiction):
            brute_force_min(empty, 1)


class TestMitm:
    def test_matches_brute_force_exactly(self):
        rng = random.Random(12)
        for _ in range(25):
            n = rng.randint(1, 9)
            k = rng.randint(1, 2)
            inst = dyadic_instance(rng, n, bits=12)
            a = brute_force_min(inst, k)
            b = mitm_min(inst, k)
            assert a.error == b.error
            assert a.x == b.x  # tie-break contract matches too

    def test_cancelling_pair(self):
        inst = NbpInstance.from_values([Fraction(1, 2), Fraction(1, 2)])
        assert mitm_min(inst, 1).error == 0

    def test_witness_lost_between_passes_raises(self, monkeypatch):
        # a merge that claims a cancellation the instance lacks, with no value
        # pair to show for it, leaves the witness search empty
        monkeypatch.setattr(nbp, "_closest_pairs", lambda xs, ys: (0, set()))
        with pytest.raises(InternalContradiction):
            mitm_min(NbpInstance.from_values([Fraction(1, 2), Fraction(1, 3)]), 1)

    @pytest.mark.parametrize("k", [1, 2])
    def test_matches_reference(self, k):
        for inst in random_instances(20 + k, 60, 10 if k == 1 else 8):
            assert mitm_min(inst, k) == reference_mitm(inst, k)

    def test_optimum_needs_zero_left_half(self):
        # left sums are 0, +-1/2, +-1, +-3/2 and right sums 0, +-1/8: the only
        # optimum, 1/8, pairs the zero left half with a nonzero right half
        inst = NbpInstance.from_values([Fraction(1), Fraction(1, 2), Fraction(1, 8)])
        sol = mitm_min(inst, 1)
        assert sol == reference_mitm(inst, 1) == NbpSolution((0, 0, -1), 1, Fraction(1, 8))

    def test_zero_sums_besides_the_zero_vectors(self):
        # zero entries give nonzero halves of sum 0 on both sides
        for values in ([0, 0], [0, Fraction(1, 2)], [Fraction(1, 2), 0], [0, 0, 0, 1],
                       [Fraction(1, 3), Fraction(-1, 3), Fraction(1, 5)]):
            inst = NbpInstance.from_values(values)
            for k in (1, 2):
                assert mitm_min(inst, k) == reference_mitm(inst, k) == brute_force_min(inst, k)

    def test_single_coordinate_k2(self):
        inst = NbpInstance.from_values([Fraction(1, 4)])
        assert mitm_min(inst, 2).error == Fraction(1, 4)


class TestPigeonhole:
    def test_gap_bound_small(self):
        rng = random.Random(13)
        inst = dyadic_instance(rng, 8, bits=20)
        sol = pigeonhole_solve(inst, 15)
        assert sol.error <= Fraction(8, 15)
        # independent check: recompute all 16 candidate sums and their best gap
        sums = sorted(
            sum((entries(inst)[j] for j in range(4) if (t >> j) & 1), Fraction(0))
            for t in range(16)
        )
        min_gap = min(b - a for a, b in zip(sums, sums[1:]))
        assert sol.error == min_gap

    def test_duplicates_collide(self):
        vals = [Fraction(1, 3), Fraction(1, 3)] + [Fraction(i, 7) for i in range(1, 7)]
        inst = NbpInstance.from_values(vals)
        sol = pigeonhole_solve(inst, 15)
        assert sol.error == 0

    def test_default_pigeons(self):
        rng = random.Random(14)
        inst = dyadic_instance(rng, 16, bits=30)
        sol = pigeonhole_solve(inst, inst.n**3)
        assert sol.error <= pigeonhole_bound(16**3)

    def test_matches_reference(self):
        # pigeon counts of every form, not only 2^m - 1
        rng = random.Random(23)
        for inst in random_instances(24, 60, 10):
            for N in {1, 2, 3, rng.randint(1, 2**inst.n - 1), 2**inst.n - 1}:
                if N.bit_length() <= inst.n:
                    assert pigeonhole_solve(inst, N) == reference_pigeonhole(inst, N)

    def test_default_pigeons_match_reference(self):
        inst = dyadic_instance(random.Random(25), 16, bits=30)
        assert pigeonhole_solve(inst, inst.n**3) == reference_pigeonhole(inst, inst.n**3)

    def test_dimension_too_small(self):
        inst = NbpInstance.from_values([Fraction(1, 2), Fraction(1, 3)])
        with pytest.raises(PreconditionFailed, match="need 7 coordinates, instance has 2"):
            pigeonhole_solve(inst, 100)

    def test_pigeons_over_the_budget_are_refused(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("BALANCELAT_BUDGET", "1000")
        inst = dyadic_instance(random.Random(26), 12, bits=20)
        assert pigeonhole_solve(inst, 999) == reference_pigeonhole(inst, 999)
        with pytest.raises(BudgetExceeded, match="exceeds budget"):
            pigeonhole_solve(inst, 1000)
        assert main(["gen", "nbp", "--n", "12", "--seed", "26"]) == 0
        f = tmp_path / "i.json"
        f.write_text(capsys.readouterr().out)
        argv = ["solve", "--algo", "pigeonhole", "--input", str(f), "--pigeons"]
        assert main(argv + ["999"]) == 0
        capsys.readouterr()
        assert main(argv + ["1000"]) == 3
        assert "exceeds budget" in capsys.readouterr().err


class TestKarmarkarKarp:
    def test_hand_simulated_ldm(self):
        # LDM trace: (4/5,7/10)->1/10; (3/5,1/2)->1/10; (2/5,1/10)->3/10;
        # (3/10,1/10)->1/5
        inst = NbpInstance.from_values(
            [Fraction(2, 5), Fraction(1, 2), Fraction(3, 5), Fraction(7, 10), Fraction(4, 5)]
        )
        sol = karmarkar_karp(inst)
        assert sol.error == Fraction(1, 5)
        assert brute_force_min(inst, 1).error == 0

    def test_cancelling_pair(self):
        inst = NbpInstance.from_values([Fraction(1, 2), Fraction(1, 2)])
        assert karmarkar_karp(inst).error == 0

    def test_residual_mismatch_raises(self, monkeypatch):
        def off_by_one(inst, x, k):
            sol = verify(inst, x, k)
            return NbpSolution(sol.x, sol.coeff_bound, sol.error + 1)

        monkeypatch.setattr(nbp, "verify", off_by_one)
        with pytest.raises(InternalContradiction):
            karmarkar_karp(NbpInstance.from_values([Fraction(1, 2), Fraction(1, 3)]))

    def test_matches_reference(self):
        for inst in random_instances(26, 80, 40):
            assert karmarkar_karp(inst) == reference_kk(inst)

    def test_zero_and_equal_entries_match_reference(self):
        for values in ([0], [0, 0], [0, Fraction(1, 2)], [Fraction(1, 2)] * 5,
                       [Fraction(-1, 2), Fraction(1, 2), 0, Fraction(-1, 2), 0],
                       [1, 1, Fraction(1, 2), Fraction(1, 2), 0, -1]):
            inst = NbpInstance.from_values(values)
            assert karmarkar_karp(inst) == reference_kk(inst)

    def test_single(self):
        inst = NbpInstance.from_values([1])
        sol = karmarkar_karp(inst)
        assert sol.x == (1,)
        assert sol.error == 1

    def test_never_beats_brute_force(self):
        rng = random.Random(15)
        for _ in range(20):
            inst = dyadic_instance(rng, rng.randint(1, 8), bits=16)
            assert karmarkar_karp(inst).error >= brute_force_min(inst, 1).error


def tie_heavy_instances(seed):
    """All-zero, all-equal, +-pair and 2-5-bit instances: many equal sums."""
    rng = random.Random(seed)
    for n in range(1, 9):
        yield NbpInstance.from_values([0] * n)
        yield NbpInstance.from_values([Fraction(rng.randint(-4, 4), 4)] * n)
        pairs = [Fraction(rng.randint(1, 4), 4) * rng.choice((-1, 1)) for _ in range(n // 2)]
        values = pairs + [-v for v in pairs] + [0] * (n % 2)
        rng.shuffle(values)
        yield NbpInstance.from_values(values)
        for bits in (2, 3, 4, 5):
            yield NbpInstance.from_values(
                [Fraction(rng.randint(-(2**bits), 2**bits), 2**bits) for _ in range(n)]
            )


class TestTieHeavy:
    """Every exact solver against its reference where ties are everywhere."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_exact_solvers_match_references(self, k):
        for inst in tie_heavy_instances(30 + k):
            if (2 * k + 1) ** inst.n <= 10**5:
                assert brute_force_min(inst, k) == reference_brute_force(inst, k)
            assert mitm_min(inst, k) == reference_mitm(inst, k)

    def test_pigeonhole_matches_reference(self):
        rng = random.Random(33)
        for inst in tie_heavy_instances(33):
            for N in {1, 2, 3, rng.randint(1, 2**inst.n - 1), 2**inst.n - 1}:
                if N.bit_length() <= inst.n:
                    assert pigeonhole_solve(inst, N) == reference_pigeonhole(inst, N)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_only_the_zero_left_half_reaches_the_optimum(self, k):
        # every nonzero left sum is at least 1/4 from 0 and every right sum
        # within 3/32 of it, so the optimum 1/32 needs the zero left half
        inst = NbpInstance.from_values([1, Fraction(3, 4), Fraction(1, 32)])
        expected = NbpSolution((0, 0, -1), k, Fraction(1, 32))
        assert mitm_min(inst, k) == brute_force_min(inst, k) == reference_mitm(inst, k) == expected

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_several_right_halves_sum_to_zero(self, k):
        # no nonzero left half sums to a multiple of 1/3 (mod 4, 5 and 7 each
        # coefficient would be 0), while every right half (-j, j, v) sums to 0
        inst = NbpInstance.from_values(
            [Fraction(1, 4), Fraction(1, 5), Fraction(1, 7), Fraction(1, 3), Fraction(1, 3), 0]
        )
        expected = NbpSolution((0, 0, 0, -k, k, -k), k, Fraction(0))
        assert mitm_min(inst, k) == brute_force_min(inst, k) == reference_mitm(inst, k) == expected

    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_mitm_all_zero_witness(self, n):
        # reduce to-minkowski truncates its instances to all zeros at these sizes
        assert mitm_min(NbpInstance.from_values([0] * n), 1) == NbpSolution((-1,) * n, 1, 0)

    @pytest.mark.parametrize("n", [16, 36, 64])
    def test_pigeonhole_all_zero_witness(self, n):
        # pigeons 0 and 1 are the first pair at gap 0
        sol = pigeonhole_solve(NbpInstance.from_values([0] * n), n**3)
        assert sol == NbpSolution((1,) + (0,) * (n - 1), 1, 0)


def leads_negative(x):
    return next((v < 0 for v in x if v), False)


class CountedSet(set):
    """A set that counts the values read from it: each one iterated and
    each membership test."""

    def __init__(self, values):
        super().__init__(values)
        self.reads = 0

    def __contains__(self, v):
        self.reads += 1
        return super().__contains__(v)

    def __iter__(self):
        for v in super().__iter__():
            self.reads += 1
            yield v


class TestMitmTables:
    """The sign-normalised half lists and the lex-first witness lookup."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_magnitudes_match_reference(self, k):
        # one |sum| per +-pair of nonzero points: those whose first nonzero
        # entry is negative, with equal-magnitude and zero entries
        rng = random.Random(50 + k)
        for m in range(1, 7):
            a = rng.randint(1, 9)
            cases = [[rng.randint(-99, 99) for _ in range(m)], [a] * m,
                     [a * (-1) ** j for j in range(m)],
                     [rng.choice((-a, a, 2 * a, 0)) for _ in range(m)]]
            for ints in cases:
                expected = sorted(abs(s) for s, x in _reference_half_sums(ints, k)
                                  if leads_negative(x))
                assert nbp._magnitudes(ints, k) == expected
        assert nbp._magnitudes([], k) == []

    @pytest.mark.parametrize("case", ["all-halves-n22", "zero-entry-den1000-n23", "den5-k2-n14"])
    def test_tie_heavy_witness_reads_one_pass_per_half(self, monkeypatch, case):
        # each lookup reads at most (2k+1)^m sums, m its half's coordinates:
        # a target it iterates or a sum it tests against the targets
        reads = []
        original = nbp._lex_first

        def counted(ints, k, targets):
            targets = CountedSet(targets)
            x = original(ints, k, targets)
            reads.append((len(ints), targets.reads))
            return x

        monkeypatch.setattr(nbp, "_lex_first", counted)
        rng = random.Random(55)
        if case == "all-halves-n22":
            inst, k = NbpInstance.from_values([Fraction(1, 2)] * 22), 1
        elif case == "zero-entry-den1000-n23":
            values = [Fraction(rng.randint(-1000, 1000), 1000) for _ in range(23)]
            values[11] = 0
            inst, k = NbpInstance.from_values(values), 1
        else:
            inst, k = NbpInstance.from_values([Fraction(rng.randint(-5, 5), 5) for _ in range(14)]), 2
        assert mitm_min(inst, k) == reference_mitm(inst, k)
        support = sum(1 for a in inst.ints if a)
        assert [m for m, _ in reads] == [(support + 1) // 2, support // 2]
        assert all(0 < r <= (2 * k + 1) ** m for m, r in reads)

    def test_lex_first_reads_the_shorter_side_per_head(self):
        # the only hit is the last point, (1, ..., 1), so all 27 heads are
        # walked; each reads at most min(|targets|, 7 distinct tail sums)
        for targets in ({6}, {6, *range(100, 100 + 3**6)}):
            counted = CountedSet(targets)
            assert nbp._lex_first([1] * 6, 1, counted) == (1,) * 6
            assert counted.reads <= 3**3 * min(len(targets), 7)


def zero_entry_instances(seed, k):
    """Instances with zero entries: all zero, one nonzero entry, a support
    whose only zero sum in {-k..k}^S is y = 0, and random mixes."""
    rng = random.Random(seed)
    for n in range(1, 9):
        yield NbpInstance.from_values([0] * n)
        if n > 1:
            one = [0] * n
            one[rng.randrange(n)] = Fraction(rng.randint(1, 8), 8) * rng.choice((-1, 1))
            yield NbpInstance.from_values(one)
        # digits of base 2k+1: a balanced base-(2k+1) expansion is unique
        s = rng.randint(1, n - 1) if n > 1 else 0
        values = [Fraction((2 * k + 1) ** j, (2 * k + 1) ** s) for j in range(s)]
        values += [0] * (n - s)
        rng.shuffle(values)
        yield NbpInstance.from_values(values)
        for bits in (2, 4):
            values = [Fraction(rng.randint(-(2**bits), 2**bits), 2**bits) for _ in range(n)]
            values[rng.randrange(n)] = 0
            yield NbpInstance.from_values(values)


def first_zero_sum_on_support(inst, k):
    """x_Z = -k and x_S the first zero sum of {-k..k}^S in lex order, by a scan."""
    support = [i for i, a in enumerate(inst.ints) if a]
    for y in itertools.product(range(-k, k + 1), repeat=len(support)):
        if sum(inst.ints[i] * v for i, v in zip(support, y)) == 0:
            x = [-k] * inst.n
            for i, v in zip(support, y):
                x[i] = v
            return verify(inst, x, k)


class TestMitmOnSupport:
    """mitm_min on instances with zero entries searches only the support."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_zero_entries_match_references(self, k):
        for inst in zero_entry_instances(40 + k, k):
            expected = reference_mitm(inst, k)
            assert mitm_min(inst, k) == expected
            assert expected.error == 0 and expected.x[inst.ints.index(0)] == -k
            if (2 * k + 1) ** inst.n <= 10**5:
                assert reference_brute_force(inst, k) == brute_force_min(inst, k) == expected

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_support_without_nonzero_zero_sum(self, k):
        values = [0, Fraction(1, (2 * k + 1) ** 2), 0, Fraction(1, 2 * k + 1), 1, 0]
        inst = NbpInstance.from_values(values)
        expected = NbpSolution((-k, 0, -k, 0, 0, -k), k, Fraction(0))
        assert mitm_min(inst, k) == reference_mitm(inst, k) == brute_force_min(inst, k) == expected

    def test_budget_counts_the_support(self, monkeypatch):
        # 8 nonzero entries of 20 need 3^4 = 81 half sums; the full
        # coordinates would need 3^10
        rng = random.Random(44)
        values = [0] * 20
        for i in rng.sample(range(20), 8):
            values[i] = Fraction(rng.randint(1, 2**12), 2**12) * rng.choice((-1, 1))
        inst = NbpInstance.from_values(values)
        monkeypatch.setenv("BALANCELAT_BUDGET", "81")
        assert mitm_min(inst, 1) == first_zero_sum_on_support(inst, 1)
        monkeypatch.setenv("BALANCELAT_BUDGET", "80")
        with pytest.raises(BudgetExceeded, match=r"\|S\| = 8"):
            mitm_min(inst, 1)

    def test_halves_cover_only_the_support(self, monkeypatch):
        # the left list is built on ceil(|S|/2) coordinates, then the right
        # one on the rest, with or without zero entries
        covered = []
        original = nbp._magnitudes

        def counted(ints, k):
            covered.append(len(ints))
            return original(ints, k)

        monkeypatch.setattr(nbp, "_magnitudes", counted)
        assert mitm_min(NbpInstance.from_values([0] * 12), 1).x == (-1,) * 12
        assert covered == []
        for inst in zero_entry_instances(45, 2):
            covered.clear()
            assert mitm_min(inst, 2) == first_zero_sum_on_support(inst, 2)
            support = sum(1 for a in inst.ints if a)
            assert covered == ([] if support == 0 else [(support + 1) // 2, support // 2])
        rng = random.Random(46)
        for n in range(1, 8):
            covered.clear()
            inst = dyadic_instance(rng, n, bits=8)
            assert 0 not in inst.ints
            assert mitm_min(inst, 2) == reference_mitm(inst, 2)
            assert covered == [(n + 1) // 2, n // 2]


def head_leaf_instances(seed, n, k):
    """Tie-heavy, zero-entry and random 30-bit instances of dimension n, and
    entries j/R with R about (2k+1)^n / (nk): there the sums are dense near
    0, so the optimum is a few units but rarely 0, and often reached from
    more than one head."""
    rng = random.Random(seed)
    span = (2 * k + 1) ** n // (n * k)
    for _ in range(4):
        yield NbpInstance.from_values([Fraction(rng.randint(-span, span), span) for _ in range(n)])
    yield NbpInstance.from_values([Fraction(rng.randint(1, 4), 4)] * n)
    pairs = [Fraction(rng.randint(1, 4), 4) * rng.choice((-1, 1)) for _ in range(n // 2)]
    values = pairs + [-v for v in pairs] + [Fraction(1, 3)] * (n % 2)
    rng.shuffle(values)
    yield NbpInstance.from_values(values)
    for bits in (2, 3, 5):
        yield NbpInstance.from_values(
            [Fraction(rng.randint(-(2**bits), 2**bits), 2**bits) for _ in range(n)]
        )
    values = [Fraction(rng.randint(-8, 8), 8) for _ in range(n)]
    values[rng.randrange(n)] = 0
    yield NbpInstance.from_values(values)
    for _ in range(2):
        yield dyadic_instance(rng, n)


class TestBruteForceHeadLeaves:
    """brute_force_min where its recursion has a head above the tail table,
    so the leaves' sorted-row test decides which leaves scan the row."""

    @pytest.mark.parametrize("k, n", [(1, 9), (1, 10), (1, 11), (2, 7), (2, 8), (3, 6), (3, 7)])
    def test_matches_reference(self, k, n):
        for inst in head_leaf_instances(70 + 10 * k + n, n, k):
            assert brute_force_min(inst, k) == reference_brute_force(inst, k)

    @pytest.mark.parametrize("n", [12, 13])
    def test_matches_mitm_reference(self, n):
        rng = random.Random(90 + n)
        for inst in (dyadic_instance(rng, n), dyadic_instance(rng, n, bits=4)):
            assert brute_force_min(inst, 1) == reference_mitm(inst, 1)

    def test_optimum_needs_the_all_zero_head(self):
        # every nonzero head is at least 1/4 from 0 and every tail within
        # 6/2^20 of it, so only the restricted row of the zero head reaches
        # the optimum
        rng = random.Random(95)
        tail = [Fraction(rng.randint(1, 2**10), 2**30) * rng.choice((-1, 1)) for _ in range(6)]
        inst = NbpInstance.from_values([1, Fraction(3, 4), Fraction(1, 2)] + tail)
        sol = brute_force_min(inst, 1)
        assert sol == reference_brute_force(inst, 1) == reference_mitm(inst, 1)
        assert sol.x[:3] == (0, 0, 0) and sol.x[3:] < (0,) * 6

    @pytest.mark.parametrize("n", [1, 2])
    def test_no_tail_when_one_coordinate_outgrows_the_table(self, n):
        # 2k+1 = 731 > TAIL_TABLE, so t = 0 and every coordinate is head
        k = 365
        assert 2 * k + 1 > nbp.TAIL_TABLE
        inst = NbpInstance.from_values([Fraction(1, 3), Fraction(-2, 7)][:n])
        assert brute_force_min(inst, k) == mitm_min(inst, k)

    def test_shares_no_table_code_with_mitm(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("brute force called MITM's table code")

        for name in ("_sorted_half", "_shifted", "_magnitudes", "_closest_pairs", "_lex_first"):
            monkeypatch.setattr(nbp, name, refuse)
        rng = random.Random(96)
        for n in (7, 8, 9):
            for inst in (dyadic_instance(rng, n), small_int_instance(rng, n)):
                assert brute_force_min(inst, 1) == reference_brute_force(inst, 1)


def pigeon_counts(n):
    """N = 1, 2^j - 1, 2^j and n^3, those that n coordinates can hold."""
    counts = {1, n**3} | {2**j - 1 for j in range(1, n + 1)} | {2**j for j in range(n)}
    return sorted(N for N in counts if N.bit_length() <= n)


class TestPigeonholeZeroPrefix:
    """pigeonhole_solve against its reference where the first m entries are 0."""

    @pytest.mark.parametrize("n", [3, 6, 10, 12])
    def test_zero_prefix_with_nonzero_tail(self, n):
        rng = random.Random(50 + n)
        for N in pigeon_counts(n):
            m = N.bit_length()
            tail = [Fraction(rng.randint(1, 2**10), 2**10) * rng.choice((-1, 1)) for _ in range(n - m)]
            inst = NbpInstance.from_values([0] * m + tail)
            expected = NbpSolution((1,) + (0,) * (n - 1), 1, Fraction(0))
            assert pigeonhole_solve(inst, N) == reference_pigeonhole(inst, N) == expected

    @pytest.mark.parametrize("n", [3, 6, 10, 12])
    def test_partly_zero_prefix(self, n):
        rng = random.Random(60 + n)
        for N in pigeon_counts(n):
            m = N.bit_length()
            for _ in range(3):
                values = [Fraction(rng.randint(-4, 4), 4) for _ in range(n)]
                values[rng.randrange(m)] = Fraction(rng.choice((-1, 1)), 2)  # one nonzero in the prefix
                if m > 1:
                    values[rng.randrange(m)] = 0
                inst = NbpInstance.from_values(values)
                assert pigeonhole_solve(inst, N) == reference_pigeonhole(inst, N)

    @pytest.mark.parametrize("n", [1, 4, 10])
    def test_all_zero(self, n):
        for N in pigeon_counts(n):
            inst = NbpInstance.from_values([0] * n)
            assert pigeonhole_solve(inst, N) == reference_pigeonhole(inst, N)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.fractions(min_value=-1, max_value=1, max_denominator=64),
        min_size=1,
        max_size=7,
    ),
    st.integers(min_value=1, max_value=2),
)
def test_solvers_agree_and_respect_contracts(values, k):
    inst = NbpInstance.from_values(values)
    brute = brute_force_min(inst, k)
    mitm = mitm_min(inst, k)
    assert brute.error == mitm.error
    assert any(v != 0 for v in brute.x)
    assert max(abs(v) for v in brute.x) <= k
    kk = karmarkar_karp(inst)
    assert kk.error >= brute.error
    assert abs(instance_inner(inst, kk.x)) == kk.error
