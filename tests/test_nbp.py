import itertools
import random
from fractions import Fraction

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balancelat import nbp
from balancelat.errors import (
    BudgetExceeded,
    CoefficientOutOfRange,
    DimensionTooSmall,
    InternalContradiction,
    ZeroVector,
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


def dyadic_instance(rng, n, bits=30, signed=True):
    vals = []
    for _ in range(n):
        u = Fraction(rng.randrange(2**bits), 2**bits)
        vals.append(2 * u - 1 if signed else u)
    return NbpInstance.from_values(vals)


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
        with pytest.raises(ZeroVector):
            verify(inst, (0, 0), 1)

    def test_exact_inner_product(self):
        inst = NbpInstance.from_values([Fraction(3, 10), Fraction(11, 20), Fraction(13, 20)])
        sol = verify(inst, (0, -1, 1), 1)
        assert sol.error == Fraction(1, 10)

    def test_out_of_range_coefficient(self):
        inst = NbpInstance.from_values([Fraction(1, 2)])
        with pytest.raises(CoefficientOutOfRange):
            verify(inst, (2,), 1)


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

    def test_budget(self):
        inst = NbpInstance.from_values([Fraction(1, 2)] * 30)
        with pytest.raises(BudgetExceeded):
            brute_force_min(inst, 1, budget=1000)


    def test_search_without_nonzero_leaf_raises(self):
        # no real instance has n = 0; a stand-in gives a search with no leaf
        empty = SimpleNamespace(n=0, scaled_ints=lambda: ([], 1))
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
        # half-sums that can be read only once leave the witness pass empty
        half_sums = nbp._half_sums
        monkeypatch.setattr(nbp, "_half_sums", lambda ints, k: iter(half_sums(ints, k)))
        with pytest.raises(InternalContradiction):
            mitm_min(NbpInstance.from_values([Fraction(1, 2), Fraction(1, 3)]), 1)

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
            sum((inst.a[j] for j in range(4) if (t >> j) & 1), Fraction(0))
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
        sol = pigeonhole_solve(inst)
        assert sol.error <= pigeonhole_bound(16**3)

    def test_dimension_too_small(self):
        inst = NbpInstance.from_values([Fraction(1, 2), Fraction(1, 3)])
        with pytest.raises(DimensionTooSmall):
            pigeonhole_solve(inst, 100)


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
