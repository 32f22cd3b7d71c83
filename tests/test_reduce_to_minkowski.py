import random
from fractions import Fraction

import pytest

from balancelat.errors import OracleContractViolation, PreconditionFailed
from balancelat.generators import gen_ellipsoid
from balancelat.geometry import Ellipsoid, well_round
from balancelat.linalg import RMatrix, RVector, determinant
from balancelat.oracles import kk_delta_oracle, mitm_delta_oracle
from balancelat.reduce_to_minkowski import (
    GeneralizedInstance,
    extended_range_balance,
    generalized_nbp,
    minkowski_from_nbp,
    multi_vector_balance,
)
from oracle_helpers import adversarial_delta_oracle, claimed_delta_oracle


def rand_unit_vector(rng, n, bits=16):
    return RVector([2 * Fraction(rng.randrange(2**bits), 2**bits) - 1 for _ in range(n)])


def paper_oracle():
    """The canonical f(d) = 2^-d claim, re-verified per call."""
    return claimed_delta_oracle(lambda d: Fraction(1, 2**d), name="paper-form-mitm")


class TestMultiVectorBalance:
    def test_single_vector(self):
        rng = random.Random(61)
        n = 9
        a = rand_unit_vector(rng, n)
        oracle = mitm_delta_oracle()
        delta = oracle.delta(n)
        result = multi_vector_balance([a], [delta], oracle)
        assert any(result.x)
        assert max(abs(v) for v in result.x) <= 1
        assert abs(a.dot(RVector(result.x))) <= 2 * n * n * delta

    def test_two_vectors_n9(self):
        rng = random.Random(62)
        n = 9
        vectors = [rand_unit_vector(rng, n) for _ in range(2)]
        deltas = [Fraction(1, 4), Fraction(1, 2)]
        result = multi_vector_balance(vectors, deltas, mitm_delta_oracle())
        for v, d, bound in zip(vectors, deltas, result.bounds):
            assert bound == 2 * n * n * d
            assert abs(v.dot(RVector(result.x))) <= bound
        # the divisibility invariant is re-verified internally; double-check
        for disc in result.discretized:
            assert disc.dot(RVector(result.x)) == 0

    def test_duplicate_entries_still_bounded(self):
        n = 9
        vals = [Fraction(1, 3)] * 2 + [Fraction(i, 11) for i in range(2, 9)]
        a = RVector(vals)
        oracle = mitm_delta_oracle()
        result = multi_vector_balance([a], [Fraction(1, 4)], oracle)
        assert abs(a.dot(RVector(result.x))) <= 2 * n * n * Fraction(1, 4)

    def test_precondition_checks(self):
        rng = random.Random(63)
        a = rand_unit_vector(rng, 4)
        oracle = mitm_delta_oracle()
        with pytest.raises(PreconditionFailed):
            multi_vector_balance([a], [Fraction(2, 3)], oracle)  # delta > 1/2
        with pytest.raises(PreconditionFailed):
            multi_vector_balance([a], [Fraction(1, 1000)], oracle)  # prod too small
        with pytest.raises(PreconditionFailed):
            multi_vector_balance([RVector([1])], [Fraction(1, 2)], oracle)  # dim 1


class TestExtendedRangeBalance:
    def test_q2_degenerates_to_signs(self):
        rng = random.Random(64)
        n = 4
        vectors = [rand_unit_vector(rng, n)]
        result = extended_range_balance(vectors, [Fraction(1, 2)], 2, paper_oracle())
        assert result.inner_dim == n
        assert result.x == result.y  # x_j = 2 * (y_j1 / 2)

    def test_recombination_arithmetic(self):
        rng = random.Random(65)
        n, Q = 3, 4
        vectors = [rand_unit_vector(rng, n)]
        result = extended_range_balance(vectors, [Fraction(1, 2)], Q, paper_oracle())
        levels = 2
        for j in range(n):
            acc = sum(
                (Q >> level) * result.y[j * levels + level - 1]
                for level in range(1, levels + 1)
            )
            assert result.x[j] == acc
        assert max(abs(v) for v in result.x) <= Q

    def test_q256_exact_mitm(self):
        rng = random.Random(66)
        n, Q = 2, 2**8
        vectors = [rand_unit_vector(rng, n) for _ in range(2)]
        deltas = [Fraction(1, 32), Fraction(1, 16)]
        result = extended_range_balance(vectors, deltas, Q, mitm_delta_oracle())
        assert result.inner_dim == 16
        for v, d in zip(vectors, deltas):
            assert abs(v.dot(RVector(result.x))) <= d * Q * 2 * 16**2

    def test_q_must_be_power_of_two(self):
        with pytest.raises(PreconditionFailed):
            extended_range_balance(
                [RVector([Fraction(1, 2), 0])], [Fraction(1, 2)], 3, paper_oracle()
            )


class TestGeneralizedNbp:
    def test_boundary_product_one(self):
        rng = random.Random(67)
        n = 2
        gi = GeneralizedInstance.create(
            [rand_unit_vector(rng, n) for _ in range(n)], [1, 1]
        )
        result = generalized_nbp(gi, mitm_delta_oracle(), Q_override=2**8)
        assert any(result.x)
        inner_dim = n * 8
        for v, d, bound in zip(gi.vectors, result.deltas, result.bounds):
            assert bound == 2 * inner_dim**2 * result.Q * d
            assert abs(v.dot(RVector(result.x))) <= bound

    def test_single_vector_small_q(self):
        gi = GeneralizedInstance.create([RVector([Fraction(1, 3)])], [1])
        result = generalized_nbp(gi, paper_oracle())  # n = 1 -> Q = 16
        assert result.Q == 16
        assert any(result.x)

    def test_weak_oracle_rejected(self):
        rng = random.Random(68)
        gi = GeneralizedInstance.create(
            [rand_unit_vector(rng, 2) for _ in range(2)], [1, 1]
        )
        with pytest.raises(PreconditionFailed):
            generalized_nbp(gi, kk_delta_oracle(), Q_override=2**8)

    def test_descending_lambdas_rejected(self):
        with pytest.raises(Exception):
            GeneralizedInstance.create(
                [RVector([0, 0]), RVector([0, 0])], [2, 1]
            )


class TestMinkowskiFromNbp:
    def test_unit_ball_left_branch(self):
        result = minkowski_from_nbp(Ellipsoid(RMatrix.identity(2)), mitm_delta_oracle())
        assert result.branch == "integer-point"
        assert result.rho_star == 1
        assert result.rho_star_sq <= 1

    def test_pipeline_branch_n2(self):
        # axes (3/5, 4/5), (-4/5, 3/5); lengths 5/7 and 7/5 leave no integer
        # point inside, so the reduction has to run
        axes = [RVector([Fraction(-4, 5), Fraction(3, 5)]), RVector([Fraction(3, 5), Fraction(4, 5)])]
        lengths = [Fraction(5, 7), Fraction(7, 5)]
        e = Ellipsoid.from_axes(axes, lengths)
        assert abs(determinant(e.A)) == 1  # prod lambda = 1
        result = minkowski_from_nbp(
            e, mitm_delta_oracle(), Q_override=2**8, precision_bits=96
        )
        assert result.branch == "pipeline"
        assert any(result.x)
        # certified membership in rho* E, exactly
        assert result.rho_star_sq == e.quad(RVector(result.x))
        assert result.rho_star_sq <= result.rho_star**2

    def test_volume_hypothesis_checked(self):
        e = Ellipsoid(RMatrix.diagonal([2, 2]))  # prod lambda = 1/4 < 1
        with pytest.raises(PreconditionFailed):
            minkowski_from_nbp(e, mitm_delta_oracle())

    def test_adversarial_oracle_is_caught_on_the_rounded_branch(self):
        e = gen_ellipsoid(2, 16)
        assert well_round(e).branch == "rounded"
        with pytest.raises(OracleContractViolation, match="adversarial-delta"):
            minkowski_from_nbp(e, adversarial_delta_oracle())
