import random
from fractions import Fraction

import pytest

from balancelat import reduce_to_nbp
from balancelat.errors import (
    IncompatibleDimension,
    InternalContradiction,
    NotPerfectSquare,
    OracleContractViolation,
    ParameterOutOfRange,
)
from balancelat.linalg import RVector, determinant
from balancelat.nbp import NbpInstance, brute_force_min
from balancelat.oracles import (
    adversarial_minkowski_oracle,
    exact_minkowski_oracle,
    exact_svp_oracle,
    lll_svp_oracle,
)
from balancelat.reduce_to_nbp import (
    balancing_body,
    default_halving_schedule,
    full_self_reduction,
    halve_coefficients,
    minkowski_bounded_oracle,
    nbp_full_pipeline,
    nbp_via_minkowski,
    nbp_via_svp,
    represent_small_coeffs,
    svp_bounded_oracle,
    svp_embedding_basis,
)
from oracle_helpers import mitm_bounded_oracle


def dyadic_instance(rng, n, bits=30, signed=True):
    vals = []
    for _ in range(n):
        u = Fraction(rng.randrange(2**bits), 2**bits)
        vals.append(2 * u - 1 if signed else u)
    return NbpInstance.from_values(vals)


class TestBalancingBody:
    def test_paper_delta_formula(self):
        # n = 3, k = 2, rho = 1: delta = 3 * (1/3)^2 = 1/3
        body = balancing_body(RVector([Fraction(1, 2)] * 3), 2, 1)
        assert body.slab_bound == Fraction(1, 3)
        assert body.box_radius == 3

    def test_volume_promise_brute_check(self):
        # tiny n: lower-bound the volume by counting grid cells inside
        body = balancing_body(RVector([Fraction(1, 2), Fraction(1, 3)]), 1, 1)
        steps = 40
        cell = Fraction(2 * body.box_radius, steps)
        count = 0
        for i in range(steps):
            for j in range(steps):
                x = RVector(
                    [-body.box_radius + cell * (i + Fraction(1, 2)),
                     -body.box_radius + cell * (j + Fraction(1, 2))]
                )
                if body.member(x):
                    count += 1
        # vol >= 2^n = 4; the midpoint grid may overcount slightly, so only
        # sanity-check the promise is plausible, not tight
        assert count * cell * cell > 2


class TestNbpViaMinkowski:
    def test_exact_oracle_small(self):
        inst = NbpInstance.from_values([Fraction(1, 2), Fraction(1, 2), Fraction(1, 5)])
        result = nbp_via_minkowski(inst, 2, exact_minkowski_oracle())
        assert result.claimed_bound == Fraction(1, 3)
        assert result.solution.error <= Fraction(1, 3)
        assert brute_force_min(inst, 2).error == 0

    def test_k1_bound(self):
        rng = random.Random(41)
        inst = dyadic_instance(rng, 6, bits=20)
        result = nbp_via_minkowski(inst, 1, exact_minkowski_oracle())
        assert result.claimed_bound == Fraction(3, 16)  # 6 * 2^-5
        assert result.solution.error <= Fraction(3, 16)
        assert max(abs(v) for v in result.solution.x) <= 1

    def test_adversarial_oracle_caught(self):
        rng = random.Random(42)
        inst = dyadic_instance(rng, 4, bits=10)
        with pytest.raises(OracleContractViolation):
            nbp_via_minkowski(inst, 1, adversarial_minkowski_oracle())


class TestNbpViaSvp:
    def test_determinant_one(self):
        for n in (2, 3, 5):
            for k in (1, 3):
                for rho in (Fraction(1), Fraction(3, 2)):
                    a = RVector([Fraction(1, i + 2) for i in range(n)])
                    basis = svp_embedding_basis(a, k, rho)
                    assert determinant(basis.B) == 1

    def test_exact_oracle_run(self):
        rng = random.Random(43)
        inst = dyadic_instance(rng, 4, bits=16)
        k = 3
        result = nbp_via_svp(inst, k, exact_svp_oracle())
        n = 4
        expected_bound = 2 * n * k * Fraction(1, 3**n)
        assert result.claimed_bound == expected_bound == Fraction(8, 27)
        assert result.solution.error <= expected_bound
        assert max(abs(v) for v in result.solution.x) <= k

    def test_embedding_determinant_checked(self, monkeypatch):
        monkeypatch.setattr(reduce_to_nbp, "determinant", lambda m: Fraction(2))
        inst = NbpInstance.from_values([Fraction(1, 2), Fraction(1, 3)])
        with pytest.raises(InternalContradiction):
            nbp_via_svp(inst, 3, exact_svp_oracle())

    def test_trivial_branch_threshold(self):
        inst = NbpInstance.from_values([Fraction(1, 3)])
        oracle = exact_svp_oracle()
        oracle.rho = Fraction(2)  # rho (rho/k)^n = 2 >= 1/2 at k = 2, n = 1
        result = nbp_via_svp(inst, 2, oracle)
        assert result.details["branch"] == "trivial"
        assert result.solution.x == (1,)

    def test_formula_evaluation(self):
        # 2 n k rho (rho/k)^n at n=9, k=3, rho=1
        n, k = 9, 3
        bound = 2 * n * k * Fraction(1, 1) * Fraction(1, 3) ** n
        assert bound == Fraction(54, 19683)

    def test_lll_oracle_path(self):
        rng = random.Random(44)
        inst = dyadic_instance(rng, 4, bits=12)
        oracle = lll_svp_oracle(5)
        result = nbp_via_svp(inst, 9, oracle)
        assert result.solution.error <= result.claimed_bound


class TestRepresentSmallCoeffs:
    def test_paper_identity_case(self):
        alphas = [Fraction(-5), Fraction(1), Fraction(1)]  # sum i*alpha_i = 0
        lam = represent_small_coeffs(alphas, r=2, j=2)
        assert lam == [-1, 0, -1]
        beta = alphas[1] + alphas[2]
        assert sum(l * a for l, a in zip(lam, alphas)) == 2 * beta == 4
        assert max(abs(v) for v in lam) == 1  # max(r-1, k-r)

    def test_small_j_is_exact(self):
        alphas = [Fraction(-5), Fraction(1), Fraction(1)]
        lam = represent_small_coeffs(alphas, r=2, j=1)
        assert lam == [0, 1, 1]
        beta = alphas[1] + alphas[2]
        assert sum(l * a for l, a in zip(lam, alphas)) == beta

    def test_residual_bounded_by_slack(self):
        rng = random.Random(45)
        for _ in range(50):
            k = rng.randint(2, 8)
            r = rng.randint(1, k - 1)
            j = rng.randint(-k, k)
            alphas = [Fraction(rng.randint(-40, 40), 8) for _ in range(k)]
            s = sum(Fraction(i + 1) * alphas[i] for i in range(k))
            lam = represent_small_coeffs(alphas, r, j, slack=abs(s))
            beta = sum(alphas[r - 1 :], Fraction(0))
            residual = abs(j * beta - sum(l * a for l, a in zip(lam, alphas)))
            assert max(abs(v) for v in lam) <= max(r - 1, k - r)
            if abs(j) < r:
                assert residual == 0
            else:
                assert residual == abs(s)  # exactly one use of the relation

    def test_parameter_validation(self):
        with pytest.raises(ParameterOutOfRange):
            represent_small_coeffs([Fraction(1)] * 3, r=3, j=1)
        with pytest.raises(ParameterOutOfRange):
            represent_small_coeffs([Fraction(1)] * 3, r=1, j=4)
        with pytest.raises(ParameterOutOfRange):
            represent_small_coeffs([Fraction(1), Fraction(1)], r=1, j=1, slack=Fraction(1))


class TestHalveCoefficients:
    def test_one_round_n16(self):
        rng = random.Random(46)
        inst = dyadic_instance(rng, 16, bits=24)
        oracle = mitm_bounded_oracle(2)
        outcome = halve_coefficients(inst, 2, 1, oracle)
        sol = outcome.result.solution
        assert any(sol.x)
        assert max(abs(v) for v in sol.x) <= 1
        assert sol.error <= outcome.result.claimed_bound == 8 * oracle.guarantee(4)

    def test_requires_perfect_square(self):
        rng = random.Random(47)
        inst = dyadic_instance(rng, 6, bits=10)
        with pytest.raises(NotPerfectSquare):
            halve_coefficients(inst, 2, 1, mitm_bounded_oracle(2))

    def test_small_coefficient_early_exit(self):
        # a stub oracle that answers with sign vectors triggers the first
        # early exit as soon as r - 1 >= 1
        from balancelat.oracles import BoundedNbpOracle

        inst = NbpInstance.from_values([Fraction(1, 16)] * 4)
        stub = BoundedNbpOracle(
            k=3,
            guarantee=lambda d: Fraction(1),
            solver=lambda sub: (1,) + (0,) * (sub.n - 1),
            name="stub-signs",
        )
        outcome = halve_coefficients(inst, 3, 2, stub)
        assert outcome.branch == "small-coefficients"
        assert outcome.result.solution.x == (1, 0, 0, 0)

    def test_small_block_value_early_exit(self):
        # lexicographic exact optima hug -k, so equal entries give a zero
        # block value and the second early exit fires
        inst = NbpInstance.from_values(
            [Fraction(1, 2), Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]
        )
        oracle = mitm_bounded_oracle(3)
        outcome = halve_coefficients(inst, 3, 2, oracle)
        assert outcome.branch == "small-block-value"
        assert max(abs(v) for v in outcome.result.solution.x) <= 1


class TestFullSelfReduction:
    def test_default_schedules(self):
        assert default_halving_schedule(1) == []
        assert default_halving_schedule(2) == [1]
        assert default_halving_schedule(3) == [2]
        assert default_halving_schedule(4) == [2, 1]
        assert default_halving_schedule(8) == [4, 2, 1]

    def test_k1_passthrough(self):
        rng = random.Random(48)
        inst = dyadic_instance(rng, 9, bits=16)
        oracle = mitm_bounded_oracle(1)
        result = full_self_reduction(inst, 1, oracle)
        assert result.solution.error <= oracle.guarantee(9)
        assert max(abs(v) for v in result.solution.x) <= 1

    def test_k2_one_round(self):
        rng = random.Random(49)
        inst = dyadic_instance(rng, 16, bits=20)
        result = full_self_reduction(inst, 2, mitm_bounded_oracle(2))
        assert max(abs(v) for v in result.solution.x) <= 1
        assert result.solution.error <= result.claimed_bound

    def test_k3_two_round_schedule(self):
        rng = random.Random(50)
        inst = dyadic_instance(rng, 16, bits=20)
        result = full_self_reduction(inst, 3, mitm_bounded_oracle(3), r_schedule=(1, 1))
        assert max(abs(v) for v in result.solution.x) <= 1
        assert result.solution.error <= result.claimed_bound
        assert [r["r"] for r in result.details["rounds"]] == [1, 1]

    def test_incompatible_dimension(self):
        rng = random.Random(51)
        inst = dyadic_instance(rng, 12, bits=10)
        with pytest.raises(IncompatibleDimension):
            full_self_reduction(inst, 2, mitm_bounded_oracle(2))

    def test_bad_schedule(self):
        rng = random.Random(52)
        inst = dyadic_instance(rng, 16, bits=10)
        with pytest.raises(ParameterOutOfRange):
            full_self_reduction(inst, 3, mitm_bounded_oracle(3), r_schedule=(2, 1))


class TestFullPipelines:
    def test_minkowski_full_exact(self):
        rng = random.Random(53)
        inst = dyadic_instance(rng, 16, bits=20)
        oracle = exact_minkowski_oracle()
        result = nbp_full_pipeline(inst, oracle.rho, lambda k: minkowski_bounded_oracle(k, oracle))
        assert result.formula == "full-self-reduction"
        assert result.details["k"] == 3
        assert any(result.solution.x)
        assert max(abs(v) for v in result.solution.x) <= 1
        assert result.solution.error <= result.claimed_bound

    def test_minkowski_large_rho_falls_back(self):
        rng = random.Random(54)
        inst = dyadic_instance(rng, 16, bits=12)
        oracle = exact_minkowski_oracle()
        oracle.rho = Fraction(16)
        result = nbp_full_pipeline(inst, oracle.rho, lambda k: minkowski_bounded_oracle(k, oracle))
        assert result.formula == "karmarkar-karp-fallback"

    def test_svp_full_exact(self):
        rng = random.Random(55)
        inst = dyadic_instance(rng, 16, bits=20)
        result = nbp_full_pipeline(
            inst, Fraction(1), lambda k: svp_bounded_oracle(k, lambda dim: exact_svp_oracle())
        )
        assert result.formula == "full-self-reduction"
        assert max(abs(v) for v in result.solution.x) <= 1
        assert result.solution.error <= result.claimed_bound

    def test_theorem5_bound_dominates_2_to_minus_n(self):
        # with k = 3 rho: n (rho/(3rho+1))^(n-1) <= n 3^-(n-1) <= 2^-n
        # holds for all n >= 8 (and fails at n = 7)
        for n in range(8, 17):
            assert n * Fraction(1, 3) ** (n - 1) <= Fraction(1, 2**n)
        assert 7 * Fraction(1, 3) ** 6 > Fraction(1, 2**7)
