import random
import re
import sys
from dataclasses import replace
from fractions import Fraction
from math import ceil, floor, prod
from types import SimpleNamespace

import pytest

from balancelat import linalg, reduce_to_minkowski
from balancelat.errors import (
    InternalContradiction,
    InvalidParams,
    OracleContractViolation,
    PreconditionFailed,
)
from balancelat.generators import gen_ellipsoid
from balancelat.geometry import ellipsoid_from_axes, well_round
from balancelat.lattice import LatticeBasis
from balancelat.linalg import RMatrix, RVector, determinant
from balancelat.nbp import NbpInstance, instance_inner
from balancelat.oracles import kk_delta_oracle, mitm_delta_oracle
from balancelat.rationals import nth_root_upper
from balancelat.reduce_to_minkowski import (
    extended_range_balance,
    generalized_nbp,
    minkowski_from_nbp,
    multi_vector_balance,
)
from linalg_helpers import add, diagonal, discretized, entries
from oracle_helpers import adversarial_delta_oracle, claimed_delta_oracle


def rand_unit_vector(rng, n, bits=16):
    return RVector([2 * Fraction(rng.randrange(2**bits), 2**bits) - 1 for _ in range(n)])


def instances(vectors):
    return [NbpInstance.from_values(v) for v in vectors]


def paper_oracle():
    """The canonical f(d) = 2^-d claim, re-verified per call."""
    return claimed_delta_oracle(lambda d: Fraction(1, 2**d), name="paper-form-mitm")


# The Fraction balancing layers as they were, kept as the references of the
# integer ones: the same truncation, sum, oracle call and checks, entry by
# entry on Fractions.


def reference_multi_vector_balance(vectors, deltas, oracle):
    n = vectors[0].dim
    truncated = discretized(vectors, deltas)
    c = truncated[0]
    for d in truncated[1:]:
        c = add(c, d)
    x = oracle.solve(NbpInstance.from_values([e / 2 for e in c])).x
    xv = RVector(x)
    for d in truncated:
        if d.dot(xv) != 0:
            raise InternalContradiction("divisibility invariant failed")
    for v, d in zip(vectors, deltas):
        if abs(v.dot(xv)) > 2 * n * n * d:
            raise InternalContradiction("final bound failed")
    return x


def reference_extended_range_balance(vectors, deltas, Q, oracle):
    levels = Q.bit_length() - 1
    n = vectors[0].dim
    inflated = [RVector([v[j] / 2**level for j in range(n) for level in range(1, levels + 1)])
                for v in vectors]
    y = reference_multi_vector_balance(inflated, deltas, oracle)
    x = tuple(sum((Q >> level) * y[j * levels + level - 1] for level in range(1, levels + 1))
              for j in range(n))
    for v, b, d in zip(vectors, inflated, deltas):
        if v.dot(RVector(x)) != Q * b.dot(RVector(y)):
            raise InternalContradiction("recombination identity failed")
        if abs(v.dot(RVector(x))) > d * Q * 2 * (n * levels) ** 2:
            raise InternalContradiction("range-extended bound failed")
    return x, y, inflated


def reference_generalized_nbp(vectors, lambdas, oracle, Q):
    """generalized_nbp's Fraction form: the root R and each delta_i = lambda_i R
    as Fractions, then the Fraction range extension; returns (x, deltas)."""
    levels = Q.bit_length() - 1
    root = nth_root_upper(oracle.delta(vectors[0].dim * levels) / prod(lambdas), len(vectors),
                          bits=64)
    deltas = [l * root for l in lambdas]
    if any(d > Fraction(1, 2) for d in deltas):
        raise PreconditionFailed("computed delta_i exceeds 1/2")
    x, _, _ = reference_extended_range_balance(vectors, deltas, Q, oracle)
    return x, deltas


def recording_oracle(seen):
    """The exact MITM delta oracle, keeping every instance it is asked to balance."""
    mitm = mitm_delta_oracle()
    return replace(mitm, solver=lambda inst: seen.append(inst) or mitm.solver(inst))


def odd_fraction(rng, low, high, used):
    """A random Fraction in [low, high] whose denominator is odd (so not
    dyadic), at least 3 and not in used; the denominator is added to used.
    An odd q >= 2 / (high - low) leaves at least two multiples of 1/q to draw."""
    least = max(3, ceil(2 / (high - low)))
    while True:
        q = rng.randrange(least, 100 * least) | 1
        d = Fraction(rng.randint(ceil(low * q), floor(high * q)), q)
        if d.denominator > 1 and d.denominator not in used:
            used.add(d.denominator)
            return d


def unequal_deltas(rng, k, guarantee):
    """k deltas in (0, 1/2] with unequal odd denominators and prod delta_i at or
    just above guarantee: k - 1 of them in [1/4, 1/2], and the last the least
    multiple of 1/q at or above guarantee / (the product of the others), for
    an odd q."""
    for _ in range(100):
        used = set()
        deltas = [odd_fraction(rng, Fraction(1, 4), Fraction(1, 2), used) for _ in range(k - 1)]
        rest = guarantee / prod(deltas)
        if rest <= Fraction(5, 11):
            deltas.append(odd_fraction(rng, rest, rest * Fraction(11, 10), used))
            rng.shuffle(deltas)
            return deltas
    raise AssertionError(f"no {k} deltas in (0, 1/2] reach {guarantee}")


def multi_cases():
    """(vectors, deltas) for multi_vector_balance with the exact MITM oracle:
    1-3 vectors, n = 9-12, the first grid below 1 and some entries negative
    multiples of it exactly."""
    oracle = mitm_delta_oracle()
    for seed in range(24):
        rng = random.Random(300 + seed)
        n, k = 9 + seed % 4, 1 + seed % 3
        deltas = [oracle.delta(n) * 2 ** (k - 1)] + [Fraction(1, 2)] * (k - 1)
        grid = 2 * n * deltas[0]
        vectors = [rand_unit_vector(rng, n) for _ in range(k)]
        on_grid = list(vectors[0])
        for j in rng.sample(range(n), 3):
            on_grid[j] = -rng.randint(0, int(1 / grid)) * grid
        yield [RVector(on_grid)] + vectors[1:], deltas


def range_cases():
    """(vectors, deltas, Q) for extended_range_balance with the exact MITM
    oracle: 1-3 vectors, n = 2-3, Q = 16, 256 and 4096, with delta_i = the
    k-th root of the guarantee, as generalized_nbp sets it for lambda = 1.
    The cells left out have supports of 20 coordinates or more."""
    oracle = mitm_delta_oracle()
    for Q in (16, 256, 4096):
        for n in (2, 3):
            for k in (1, 2, 3):
                if (Q, n, k) in ((256, 3, 1), (4096, 2, 1), (4096, 3, 1), (4096, 3, 2)):
                    continue
                root = nth_root_upper(oracle.delta(n * (Q.bit_length() - 1)), k, bits=64)
                for seed in (0, 1):
                    rng = random.Random(Q + 10 * n + k + 100 * seed)
                    yield [rand_unit_vector(rng, n) for _ in range(k)], [root] * k, Q


def kept_balances(monkeypatch):
    """Record (vectors, deltas, x) of every multi_vector_balance call the
    reductions make, as (Fraction vectors, deltas, sign vector)."""
    kept = []
    balance = multi_vector_balance

    def kept_balance(vectors, deltas, oracle):
        x = balance(vectors, deltas, oracle)
        kept.append(([entries(v) for v in vectors], deltas, x))
        return x

    monkeypatch.setattr(reduce_to_minkowski, "multi_vector_balance", kept_balance)
    return kept


class TestIntegerLayersMatchReference:
    def test_multi_vector_balance(self):
        nonzero = 0
        for vectors, deltas in multi_cases():
            oracle = mitm_delta_oracle()
            x = multi_vector_balance(instances(vectors), deltas, oracle)
            assert x == reference_multi_vector_balance(vectors, deltas, oracle)
            nonzero += any(v != 0 for v in discretized(vectors, deltas)[0])
        assert nonzero >= 12

    def test_extended_range_balance(self, monkeypatch):
        kept = kept_balances(monkeypatch)
        nonzero_at_4096 = 0
        for vectors, deltas, Q in range_cases():
            oracle = mitm_delta_oracle()
            kept.clear()
            x = extended_range_balance(instances(vectors), deltas, Q, oracle)
            ref_x, ref_y, inflated = reference_extended_range_balance(vectors, deltas, Q, oracle)
            [(inner_vectors, inner_deltas, y)] = kept
            assert (x, y, inner_vectors, inner_deltas) == (ref_x, ref_y, inflated, deltas)
            if Q == 4096:
                nonzero_at_4096 += any(v != 0 for d in discretized(inflated, deltas) for v in d)
        assert nonzero_at_4096 >= 4


class TestIntegerLayersOnUnequalDenominators:
    """The integer layers equal their Fraction references on deltas and scales
    whose denominators are odd and differ, and at each refusal's boundary."""

    def test_multi_vector_balance(self):
        rng = random.Random(401)
        nonzero = 0
        for case in range(20):
            n, k = 11 + case % 3, 1 + case % 3
            vectors = [rand_unit_vector(rng, n) for _ in range(k)]
            deltas = unequal_deltas(rng, k, mitm_delta_oracle().delta(n))
            seen, ref_seen = [], []
            x = multi_vector_balance(instances(vectors), deltas, recording_oracle(seen))
            assert x == reference_multi_vector_balance(vectors, deltas, recording_oracle(ref_seen))
            assert seen == ref_seen
            nonzero += any(v != 0 for d in discretized(vectors, deltas) for v in d)
        assert nonzero >= 10

    @pytest.mark.parametrize("n, Q", [(4, 4), (2, 16), (3, 16), (2, 256), (4, 16)])
    def test_extended_range_balance(self, monkeypatch, n, Q):
        kept = kept_balances(monkeypatch)
        rng = random.Random(402 + n * Q)
        inner_dim = n * (Q.bit_length() - 1)
        for k in (1, 2, 3):
            vectors = [rand_unit_vector(rng, n) for _ in range(k)]
            deltas = unequal_deltas(rng, k, mitm_delta_oracle().delta(inner_dim))
            kept.clear()
            x = extended_range_balance(instances(vectors), deltas, Q, mitm_delta_oracle())
            ref_x, ref_y, inflated = reference_extended_range_balance(
                vectors, deltas, Q, mitm_delta_oracle())
            [(inner_vectors, inner_deltas, y)] = kept
            assert (x, y, inner_vectors, inner_deltas) == (ref_x, ref_y, inflated, deltas)

    @pytest.mark.parametrize("n, Q", [(2, 16), (3, 16), (2, 256)])
    def test_generalized_nbp(self, monkeypatch, n, Q):
        kept = kept_balances(monkeypatch)
        rng = random.Random(403 + n * Q)
        for k in (1, 2, 3):
            while True:
                used = set()
                lambdas = sorted(odd_fraction(rng, Fraction(1, 2), Fraction(3), used)
                                 for _ in range(k))
                if prod(lambdas) >= 1:
                    break
            vectors = [rand_unit_vector(rng, n) for _ in range(k)]
            kept.clear()
            x = generalized_nbp(instances(vectors), lambdas, mitm_delta_oracle(), Q_override=Q)
            [(_, deltas, _)] = kept
            assert (x, deltas) == reference_generalized_nbp(vectors, lambdas,
                                                            mitm_delta_oracle(), Q)

    @pytest.mark.parametrize("deltas", [[Fraction(1, 2)], [Fraction(1, 2)] * 3,
                                        [Fraction(1, 3), Fraction(1, 2)]])
    def test_delta_one_half_is_accepted(self, deltas):
        vectors = [rand_unit_vector(random.Random(404), 9) for _ in deltas]
        oracle = mitm_delta_oracle()
        x = multi_vector_balance(instances(vectors), deltas, oracle)
        assert x == reference_multi_vector_balance(vectors, deltas, oracle)

    @pytest.mark.parametrize("delta", [Fraction(1, 2) + Fraction(1, 3 * 10**40), Fraction(0),
                                       Fraction(-1, 3), Fraction(7, 13)])
    def test_delta_outside_the_range_is_refused(self, delta):
        vectors = instances([rand_unit_vector(random.Random(405), 9)] * 2)
        with pytest.raises(PreconditionFailed,
                           match=re.escape("every delta_i must lie in (0, 1/2]")):
            multi_vector_balance(vectors, [Fraction(1, 3), delta], mitm_delta_oracle())

    def test_product_equal_to_the_guarantee_is_accepted(self):
        n = 9
        oracle = mitm_delta_oracle()
        deltas = [Fraction(1, 3), Fraction(3, 7), 7 * oracle.delta(n)]  # 7 * 18/511
        assert prod(deltas) == oracle.delta(n) and deltas[2] == Fraction(18, 73)
        vectors = [rand_unit_vector(random.Random(406), n) for _ in deltas]
        x = multi_vector_balance(instances(vectors), deltas, oracle)
        assert x == reference_multi_vector_balance(vectors, deltas, oracle)

    def test_product_just_below_the_guarantee_is_refused(self):
        n = 9
        deltas = [Fraction(1, 3), Fraction(3, 7), Fraction(18, 73) - Fraction(1, 10**30)]
        vectors = instances(rand_unit_vector(random.Random(406), n) for _ in deltas)
        message = f"prod delta_i = {prod(deltas)} < oracle guarantee 18/511"
        with pytest.raises(PreconditionFailed, match=re.escape(message)):
            multi_vector_balance(vectors, deltas, mitm_delta_oracle())

    def test_computed_delta_one_half_is_accepted(self):
        # f = 1/2 and one vector with lambda = 1: R = 1/2 exactly, so delta = 1/2
        vectors = [rand_unit_vector(random.Random(407), 2)]
        oracle = claimed_delta_oracle(lambda d: Fraction(1, 2))
        x = generalized_nbp(instances(vectors), [1], oracle, Q_override=4)
        assert x == reference_generalized_nbp(vectors, [1], oracle, 4)[0]

    def test_computed_delta_just_above_one_half_is_refused(self):
        # R is rounded up to the 2^-64 grid: 1/2 + 2^-64 > 1/2
        vectors = instances([rand_unit_vector(random.Random(407), 2)])
        oracle = claimed_delta_oracle(lambda d: Fraction(1, 2) + Fraction(1, 2**70))
        message = "computed delta_i exceeds 1/2; oracle guarantee too weak at this scale"
        with pytest.raises(PreconditionFailed, match=re.escape(message)):
            generalized_nbp(vectors, [1], oracle, Q_override=4)

    def test_lambda_product_one_is_accepted_and_just_below_refused(self):
        vectors = [rand_unit_vector(random.Random(408), 2) for _ in range(2)]
        oracle = mitm_delta_oracle()
        lambdas = [Fraction(3, 7), Fraction(7, 3)]
        x = generalized_nbp(instances(vectors), lambdas, oracle, Q_override=256)
        assert x == reference_generalized_nbp(vectors, lambdas, oracle, 256)[0]
        lambdas[1] -= Fraction(1, 10**30)
        with pytest.raises(PreconditionFailed, match=re.escape("prod lambda_i must be >= 1")):
            generalized_nbp(instances(vectors), lambdas, oracle, Q_override=256)


class TestMultiVectorBalance:
    def test_single_vector(self):
        rng = random.Random(61)
        n = 9
        a = rand_unit_vector(rng, n)
        oracle = mitm_delta_oracle()
        delta = oracle.delta(n)
        x = multi_vector_balance(instances([a]), [delta], oracle)
        assert any(x)
        assert max(abs(v) for v in x) <= 1
        assert abs(a.dot(RVector(x))) <= 2 * n * n * delta

    def test_two_vectors_n9(self):
        rng = random.Random(62)
        n = 9
        vectors = [rand_unit_vector(rng, n) for _ in range(2)]
        deltas = [Fraction(1, 4), Fraction(1, 2)]
        x = multi_vector_balance(instances(vectors), deltas, mitm_delta_oracle())
        for v, d in zip(vectors, deltas):
            assert abs(v.dot(RVector(x))) <= 2 * n * n * d
        # the divisibility invariant is re-verified internally; double-check
        for disc in discretized(vectors, deltas):
            assert disc.dot(RVector(x)) == 0

    def test_duplicate_entries_still_bounded(self):
        n = 9
        vals = [Fraction(1, 3)] * 2 + [Fraction(i, 11) for i in range(2, 9)]
        a = RVector(vals)
        oracle = mitm_delta_oracle()
        x = multi_vector_balance(instances([a]), [Fraction(1, 4)], oracle)
        assert abs(a.dot(RVector(x))) <= 2 * n * n * Fraction(1, 4)

    def test_precondition_checks(self):
        rng = random.Random(63)
        a = rand_unit_vector(rng, 4)
        oracle = mitm_delta_oracle()
        with pytest.raises(PreconditionFailed):
            multi_vector_balance(instances([a]), [Fraction(2, 3)], oracle)  # delta > 1/2
        with pytest.raises(PreconditionFailed):
            multi_vector_balance(instances([a]), [Fraction(1, 1000)], oracle)  # prod too small
        with pytest.raises(PreconditionFailed):
            multi_vector_balance(instances([[1]]), [Fraction(1, 2)], oracle)  # dim 1

    @pytest.mark.parametrize("vectors, deltas, error, message", [
        ([], [], InvalidParams, "need matching nonempty vectors and deltas"),
        ([[0, 0]], [Fraction(1, 2)] * 2, InvalidParams,
         "need matching nonempty vectors and deltas"),
        ([[0, 0], [0, 0, 0]], [Fraction(1, 2)] * 2, InvalidParams,
         "vectors must share one dimension"),
        ([[1]], [Fraction(1, 2)], PreconditionFailed,
         "multi-vector balancing needs dimension >= 2"),
    ], ids=["empty", "unmatched", "dimensions", "dimension-1"])
    def test_refusals_are_pinned(self, vectors, deltas, error, message):
        with pytest.raises(error, match=re.escape(message)):
            multi_vector_balance(instances(vectors), deltas, mitm_delta_oracle())


class TestExtendedRangeBalance:
    def test_q2_degenerates_to_signs(self, monkeypatch):
        kept = kept_balances(monkeypatch)
        rng = random.Random(64)
        n = 4
        vectors = [rand_unit_vector(rng, n)]
        x = extended_range_balance(instances(vectors), [Fraction(1, 2)], 2, paper_oracle())
        [(inflated, _, y)] = kept
        assert inflated == [RVector([e / 2 for e in vectors[0]])]  # one level, n entries
        assert x == y  # x_j = 2 * (y_j1 / 2)

    def test_recombination_arithmetic(self, monkeypatch):
        kept = kept_balances(monkeypatch)
        rng = random.Random(65)
        n, Q = 3, 4
        vectors = [rand_unit_vector(rng, n)]
        x = extended_range_balance(instances(vectors), [Fraction(1, 2)], Q, paper_oracle())
        [(_, _, y)] = kept
        levels = 2
        for j in range(n):
            acc = sum(
                (Q >> level) * y[j * levels + level - 1]
                for level in range(1, levels + 1)
            )
            assert x[j] == acc
        assert max(abs(v) for v in x) <= Q

    def test_q256_exact_mitm(self, monkeypatch):
        kept = kept_balances(monkeypatch)
        rng = random.Random(66)
        n, Q = 2, 2**8
        vectors = [rand_unit_vector(rng, n) for _ in range(2)]
        deltas = [Fraction(1, 32), Fraction(1, 16)]
        x = extended_range_balance(instances(vectors), deltas, Q, mitm_delta_oracle())
        [(inflated, _, y)] = kept
        assert [v.dim for v in inflated] == [16, 16]  # n log Q
        for v, d in zip(vectors, deltas):
            assert abs(v.dot(RVector(x))) <= d * Q * 2 * 16**2

    def test_q_must_be_power_of_two(self):
        with pytest.raises(PreconditionFailed):
            extended_range_balance(
                instances([[Fraction(1, 2), 0]]), [Fraction(1, 2)], 3, paper_oracle()
            )

    @pytest.mark.parametrize("length", [3, 5])
    def test_vectors_must_share_one_dimension(self, length):
        # refused by multi_vector_balance: the inflated vectors differ in dimension too
        vectors = instances([[Fraction(1, 2)] * 4, [Fraction(1, 3)] * length])
        with pytest.raises(InvalidParams, match="share one dimension"):
            extended_range_balance(vectors, [Fraction(1, 2)] * 2, 4, paper_oracle())

    def test_empty_family_is_refused_by_the_inflated_balance(self):
        with pytest.raises(InvalidParams, match="need matching nonempty vectors and deltas"):
            extended_range_balance([], [], 4, paper_oracle())


def unchecked_oracle(x):
    """An oracle handle claiming delta = 1/8 that returns x as its solution, unchecked."""
    return SimpleNamespace(delta=lambda d: Fraction(1, 8), solve=lambda inst: SimpleNamespace(x=x))


class TestChecksStillRaise:
    """Replies that skip the oracle contract reach the layers' own checks."""

    def test_divisibility(self):
        # grid 2 * 2 * 1/8 = 1/2, so a~ = (1/2, 0) and <a~, e_1> != 0
        with pytest.raises(InternalContradiction, match="divisibility"):
            multi_vector_balance(instances([[Fraction(1, 2), 0]]), [Fraction(1, 8)],
                                 unchecked_oracle((1, 0)))

    def test_final_bound(self):
        # grid 1 truncates a to 0, so any x is divisible; |<a, x>| = 9/2 > 2
        with pytest.raises(InternalContradiction, match="final bound"):
            multi_vector_balance(instances([[Fraction(1, 2), 0]]), [Fraction(1, 4)],
                                 unchecked_oracle((9, 0)))

    def test_recombined_range_and_bound(self, monkeypatch):
        def balanced(y):
            return lambda vectors, deltas, oracle: y

        vectors, deltas = instances([[Fraction(1, 2), 0]]), [Fraction(1, 2**20)]
        monkeypatch.setattr(reduce_to_minkowski, "multi_vector_balance", balanced((5, 5, 0, 0)))
        with pytest.raises(InternalContradiction, match="exceeds Q"):
            extended_range_balance(vectors, deltas, 4, paper_oracle())
        monkeypatch.setattr(reduce_to_minkowski, "multi_vector_balance", balanced((1, 0, 0, 0)))
        with pytest.raises(InternalContradiction, match="range-extended bound"):
            extended_range_balance(vectors, deltas, 4, paper_oracle())
        monkeypatch.setattr(reduce_to_minkowski, "multi_vector_balance", balanced((0, 0, 0, 0)))
        with pytest.raises(InternalContradiction, match="recombined vector vanished"):
            extended_range_balance(vectors, deltas, 4, paper_oracle())

    def test_unimodular_image_vanished(self, monkeypatch):
        # a transform that maps the balanced point to 0 is not unimodular
        def collapsed(ellipsoid):
            return replace(well_round(ellipsoid),
                           transform=SimpleNamespace(apply=lambda y: (0,) * len(y)))

        monkeypatch.setattr(reduce_to_minkowski, "well_round", collapsed)
        with pytest.raises(InternalContradiction, match="unimodular image"):
            minkowski_from_nbp(gen_ellipsoid(2, 16), mitm_delta_oracle(), Q_override=None)


class TestGeneralizedNbp:
    def test_boundary_product_one(self):
        rng = random.Random(67)
        n = 2
        vectors, lambdas = instances(rand_unit_vector(rng, n) for _ in range(n)), [1, 1]
        oracle = mitm_delta_oracle()
        x = generalized_nbp(vectors, lambdas, oracle, Q_override=2**8)
        assert any(x)
        inner_dim = n * 8
        # delta_i = lambda_i R, R the 64-bit upper k-th root of f(n log Q) / prod lambda_i
        # over the k vectors, and prod lambda_i = 1 here
        root = nth_root_upper(oracle.delta(inner_dim), len(vectors), bits=64)
        for v, lam in zip(vectors, lambdas):
            assert abs(instance_inner(v, x)) <= 2 * inner_dim**2 * 2**8 * lam * root

    def test_single_vector_small_q(self, monkeypatch):
        kept = kept_balances(monkeypatch)
        vectors = instances([[Fraction(1, 3)]])
        x = generalized_nbp(vectors, [1], paper_oracle(), Q_override=None)  # n = 1 -> Q = 16
        [(inflated, deltas, y)] = kept
        assert inflated[0].dim == 4  # log Q = 4 levels
        assert deltas == [nth_root_upper(Fraction(1, 2**4), 1, bits=64)] == [Fraction(1, 16)]
        assert any(x)
        assert max(abs(v) for v in x) <= 16

    def test_weak_oracle_rejected(self):
        rng = random.Random(68)
        vectors = instances(rand_unit_vector(rng, 2) for _ in range(2))
        with pytest.raises(PreconditionFailed):
            generalized_nbp(vectors, [1, 1], kk_delta_oracle(), Q_override=2**8)

    def test_descending_lambdas_rejected(self):
        with pytest.raises(InvalidParams, match="ascending"):
            generalized_nbp(instances([[0, 0], [0, 0]]), [2, 1], mitm_delta_oracle(),
                            Q_override=None)

    @pytest.mark.parametrize("vectors, lambdas, error, message", [
        ([], [], InvalidParams, "need matching vectors and lambdas"),
        ([[0, 0]], [1, 1], InvalidParams, "need matching vectors and lambdas"),
        ([[0, 0], [0]], [1, 1], InvalidParams, "vectors must share one dimension"),
        ([[0, 0]], [0], InvalidParams, "lambdas must be positive"),
        ([[0, 0], [0, 0]], [Fraction(1, 4), 1], PreconditionFailed,
         "prod lambda_i must be >= 1"),
    ], ids=["empty", "unmatched", "dimensions", "lambda-0", "product-below-1"])
    def test_instance_refusals_are_pinned(self, vectors, lambdas, error, message):
        with pytest.raises(error, match=re.escape(message)):
            generalized_nbp(instances(vectors), lambdas, mitm_delta_oracle(), Q_override=None)

    def test_zero_delta_claim_is_refused_by_the_balance(self):
        # f = 0 makes every delta_i 0; multi_vector_balance refuses it
        vectors = instances([[Fraction(1, 2), 0]] * 2)
        message = re.escape("every delta_i must lie in (0, 1/2]")
        with pytest.raises(PreconditionFailed, match=message):
            generalized_nbp(vectors, [1, 1], claimed_delta_oracle(lambda d: Fraction(0)),
                            Q_override=2**8)


class TestMinkowskiFromNbp:
    def test_unit_ball_left_branch(self):
        e = LatticeBasis(RMatrix.identity(2))
        result = minkowski_from_nbp(e, mitm_delta_oracle(), Q_override=None)
        assert result.branch == "integer-point"
        assert result.rho_star == 1
        assert e.quad(result.x) <= 1

    def test_pipeline_branch_n2(self):
        # axes (3/5, 4/5), (-4/5, 3/5); lengths 5/7 and 7/5 leave no integer
        # point inside, so the reduction has to run
        axes = [RVector([Fraction(-4, 5), Fraction(3, 5)]), RVector([Fraction(3, 5), Fraction(4, 5)])]
        lengths = [Fraction(5, 7), Fraction(7, 5)]
        e = ellipsoid_from_axes(axes, lengths)
        assert abs(determinant(e.B)) == 1  # prod lambda = 1
        result = minkowski_from_nbp(e, mitm_delta_oracle(), Q_override=2**8)
        assert result.branch == "pipeline"
        assert any(result.x)
        # certified membership in rho* E, exactly
        assert e.quad(result.x) <= result.rho_star**2

    def test_volume_hypothesis_checked(self):
        # prod lambda = 1/4 < 1; without this check generalized_nbp would refuse
        # the axis lengths later, with a message of its own
        e = LatticeBasis(diagonal([2, 2]))
        with pytest.raises(PreconditionFailed, match="the volume hypothesis fails"):
            minkowski_from_nbp(e, mitm_delta_oracle(), Q_override=None)

    def test_adversarial_oracle_is_caught_on_the_rounded_branch(self):
        e = gen_ellipsoid(2, 16)
        assert well_round(e).branch == "rounded"
        with pytest.raises(OracleContractViolation, match="adversarial-delta"):
            minkowski_from_nbp(e, adversarial_delta_oracle(), Q_override=None)

    @pytest.mark.parametrize("n, seed, Q, x, rho_star", [
        (2, 16, 4096, (-511, -511), Fraction(15400235740020933061073, 2**64)),
        (2, 20, 4096, (0, -511), Fraction(11014302366443154441987, 2**64)),
        (3, 41, None, (511, 0, -1022), Fraction(9609054602283951320245, 2**63)),
        (3, 60, None, (-1022, -511, -511), Fraction(20504041219240915850527, 2**64)),
    ], ids=["gen16", "gen20", "n3-gen41", "n3-gen60"])
    def test_pipeline_on_nonzero_truncated_entries(self, monkeypatch, n, seed, Q, x, rho_star):
        # at Q = 4096 some entries survive truncation to the grid, so x depends
        # on the axis form; at Q = 256 (the default at n = 2) every truncated
        # entry is 0.  At n = 3 the default Q is 4096, and the oracle's MITM
        # runs on the instance's 9 nonzero entries of 36
        kept = kept_balances(monkeypatch)
        e = gen_ellipsoid(n, seed)
        result = minkowski_from_nbp(e, mitm_delta_oracle(), Q_override=Q)
        assert result.branch == "pipeline"
        [(inflated, deltas, y)] = kept
        truncated = discretized(inflated, deltas)
        assert any(v != 0 for disc in truncated for v in disc)
        for disc in truncated:
            assert disc.dot(RVector(y)) == 0
        assert e.quad(result.x) <= result.rho_star**2
        assert (result.x, result.rho_star) == (x, rho_star)

    def test_axis_form_reuses_the_lll_certificate(self, monkeypatch):
        calls = []
        original = linalg.gram_schmidt

        def counted(*args):
            calls.append(args)
            return original(*args)

        for name, module in list(sys.modules.items()):
            if name.startswith("balancelat") and getattr(module, "gram_schmidt", None) is original:
                monkeypatch.setattr(module, "gram_schmidt", counted)
        result = minkowski_from_nbp(gen_ellipsoid(2, 16), mitm_delta_oracle(), Q_override=None)
        assert result.branch == "pipeline"
        assert len(calls) == 2  # the LLL set-up and the certificate

    def test_axis_form_mismatch_raises(self, monkeypatch):
        extract = reduce_to_minkowski.axis_extract

        def doubled(cert):
            axes, lengths, norms_sq = extract(cert)
            return axes, lengths, [2 * w for w in norms_sq]

        monkeypatch.setattr(reduce_to_minkowski, "axis_extract", doubled)
        with pytest.raises(InternalContradiction, match="axis form"):
            minkowski_from_nbp(gen_ellipsoid(2, 16), mitm_delta_oracle(), Q_override=None)
