import random
import sys
from fractions import Fraction
from math import isqrt
from types import SimpleNamespace

import pytest

from balancelat import geometry, linalg, nbp, oracles, rationals, reduce_to_nbp
from balancelat.cli import main
from balancelat.errors import (
    InternalContradiction,
    InvalidParams,
    OracleContractViolation,
    PreconditionFailed,
)
from balancelat.generators import gen_nbp
from balancelat.lattice import LatticeBasis
from balancelat.linalg import RMatrix, RVector, determinant
from balancelat.nbp import NbpInstance, brute_force_min, verify
from balancelat.oracles import (
    BoundedNbpOracle,
    adversarial_minkowski_oracle,
    exact_minkowski_oracle,
    exact_svp_oracle,
    lll_svp_oracle,
)
from balancelat.reduce_to_nbp import (
    HalveOutcome,
    balancing_body,
    default_halving_schedule,
    full_self_reduction,
    halve_coefficients,
    minkowski_bound,
    minkowski_bounded_oracle,
    nbp_full_pipeline,
    nbp_via_minkowski,
    nbp_via_svp,
    represent_small_coeffs,
    svp_bounded_oracle,
    svp_embedding_basis,
)
from body_helpers import slab_member
from linalg_helpers import diagonal, entries
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
        body = balancing_body(NbpInstance.from_values([Fraction(1, 2)] * 3), 2, 1)
        assert body.slab_bound == Fraction(1, 3)
        assert body.box_radius == 3

    def test_volume_promise_brute_check(self):
        # tiny n: lower-bound the volume by counting grid cells inside
        body = balancing_body(NbpInstance.from_values([Fraction(1, 2), Fraction(1, 3)]), 1, 1)
        steps = 40
        cell = Fraction(2 * body.box_radius, steps)
        count = 0
        for i in range(steps):
            for j in range(steps):
                x = RVector(
                    [-body.box_radius + cell * (i + Fraction(1, 2)),
                     -body.box_radius + cell * (j + Fraction(1, 2))]
                )
                if slab_member(body, x):
                    count += 1
        # vol >= 2^n = 4; the midpoint grid may overcount slightly, so only
        # sanity-check the promise is plausible, not tight
        assert count * cell * cell > 2

    @pytest.mark.parametrize("rho", [0, -1])
    def test_rho_must_be_positive(self, rho):
        inst = NbpInstance.from_values([Fraction(1, 2), Fraction(1, 3)])
        for build in (balancing_body, svp_embedding_basis):
            with pytest.raises(InvalidParams, match="rho must be positive"):
                build(inst, 2, rho)


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


class TestExactRoutesAgree:
    def test_svp_and_minkowski_routes_on_the_same_instances(self):
        """The exact SVP route (Theorem 9, at rho = 1) and the exact Minkowski
        route (Theorem 5) each meet their own bound on the same seeded
        instances, both answers re-verify, and neither beats the optimum."""
        svp_oracle, mink_oracle = exact_svp_oracle(), exact_minkowski_oracle()
        for n in range(2, 7):
            for k in (1, 2, 3):
                for seed in range(5):
                    inst = gen_nbp(n, seed=9000 + 100 * n + 10 * k + seed, signed=True)
                    optimum = brute_force_min(inst, k).error
                    svp = nbp_via_svp(inst, k, svp_oracle)
                    mink = nbp_via_minkowski(inst, k, mink_oracle)
                    assert svp.claimed_bound == 2 * n * k * Fraction(1, k) ** n
                    assert mink.claimed_bound == n * Fraction(1, k + 1) ** (n - 1)
                    for result in (svp, mink):
                        assert verify(inst, result.solution.x, k) == result.solution
                        assert optimum <= result.solution.error <= result.claimed_bound


class TestNbpViaSvp:
    def test_determinant_one(self):
        for n in (2, 3, 5):
            for k in (1, 3):
                for rho in (Fraction(1), Fraction(3, 2)):
                    a = NbpInstance.from_values([Fraction(1, i + 2) for i in range(n)])
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
        # a faulty embedding: a real basis, but of determinant 2
        det2 = LatticeBasis(diagonal([2, 1, 1]))
        monkeypatch.setattr(reduce_to_nbp, "svp_embedding_basis", lambda inst, k, rho: det2)
        inst = NbpInstance.from_values([Fraction(1, 2), Fraction(1, 3)])
        with pytest.raises(InternalContradiction, match="does not have determinant 1"):
            nbp_via_svp(inst, 3, exact_svp_oracle())

    def test_exact_oracle_refuses_determinant_above_one(self):
        with pytest.raises(PreconditionFailed, match="requires det <= 1"):
            exact_svp_oracle().find(LatticeBasis(diagonal([2, 1, 1])))

    # Faulty oracle replies, past the handle's own re-verification: each
    # reaches one of nbp_via_svp's checks on a = (1/2, 1/3), k = 3, where
    # the bound is 2nk (1/k)^n = 4/3.
    @pytest.mark.parametrize("coeffs, message", [
        ((0, 0, 1), "below the trivial threshold"),  # y_{n+1} != 0
        ((0, 0, 0), "recovered coefficient vector is zero"),
        ((3, 3, 0), "exceeds the proven bound 4/3"),  # error 1/2 * 3 + 1/3 * 3 = 5/2
    ])
    def test_faulty_replies_are_caught(self, coeffs, message):
        oracle = SimpleNamespace(rho=Fraction(1), find=lambda basis: coeffs)
        inst = NbpInstance.from_values([Fraction(1, 2), Fraction(1, 3)])
        with pytest.raises(InternalContradiction, match=message):
            nbp_via_svp(inst, 3, oracle)

    def test_trivial_branch_threshold(self):
        # rho (rho/k)^n = 2 >= 1/2 at k = 2, n = 1: e_1 answers, and the
        # oracle's solver is never called
        inst = NbpInstance.from_values([Fraction(1, 3)])
        oracle = exact_svp_oracle()
        oracle.rho = Fraction(2)
        calls = []
        solve = oracle.solver
        oracle.solver = lambda basis: calls.append(basis) or solve(basis)
        result = nbp_via_svp(inst, 2, oracle)
        assert calls == []
        assert result.solution.x == (1,)
        assert result.claimed_bound == 8  # 2 n k rho (rho/k)^n

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
        lam = represent_small_coeffs(3, r=2, j=2)
        assert lam == [-1, 0, -1]
        beta = alphas[1] + alphas[2]
        assert sum(l * a for l, a in zip(lam, alphas)) == 2 * beta == 4
        assert max(abs(v) for v in lam) == 1  # max(r-1, k-r)

    def test_small_j_is_exact(self):
        alphas = [Fraction(-5), Fraction(1), Fraction(1)]
        lam = represent_small_coeffs(3, r=2, j=1)
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
            lam = represent_small_coeffs(k, r, j)
            beta = sum(alphas[r - 1 :], Fraction(0))
            residual = abs(j * beta - sum(l * a for l, a in zip(lam, alphas)))
            assert max(abs(v) for v in lam) <= max(r - 1, k - r)
            if abs(j) < r:
                assert residual == 0
            else:
                assert residual == abs(s)  # exactly one use of the relation: |S| is the slack

    def test_parameter_validation(self):
        with pytest.raises(InvalidParams, match=r"need 0 < r < k, got r=3, k=3"):
            represent_small_coeffs(3, r=3, j=1)
        with pytest.raises(InvalidParams, match=r"need \|j\| <= k, got j=4"):
            represent_small_coeffs(3, r=1, j=4)


class TestHalveCoefficients:
    def test_one_round_n16(self):
        rng = random.Random(46)
        inst = dyadic_instance(rng, 16, bits=24)
        oracle = mitm_bounded_oracle(2)
        outcome = halve_coefficients(inst, 2, 1, oracle)
        sol = outcome.solution
        assert any(sol.x)
        assert max(abs(v) for v in sol.x) <= 1
        assert sol.error <= 2 * 4 * oracle.guarantee(4)  # 2 sqrt(n) g(sqrt(n))

    def test_requires_perfect_square(self):
        rng = random.Random(47)
        inst = dyadic_instance(rng, 6, bits=10)
        with pytest.raises(PreconditionFailed, match="n = 6 is not a perfect square"):
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
        assert outcome.solution.x == (1, 0, 0, 0)

    def test_small_block_value_early_exit(self):
        # lexicographic exact optima hug -k, so equal entries give a zero
        # block value and the second early exit fires
        inst = NbpInstance.from_values(
            [Fraction(1, 2), Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]
        )
        oracle = mitm_bounded_oracle(3)
        outcome = halve_coefficients(inst, 3, 2, oracle)
        assert outcome.branch == "small-block-value"
        assert max(abs(v) for v in outcome.solution.x) <= 1


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

    def test_k4_two_round_schedule(self):
        # the default schedule for k = 4 is [2, 1]: the inner round takes
        # coefficients 4 -> 2 on the blocks of 4, over the oracle on blocks of
        # 2, and the outer round takes 2 -> 1 on n = 16
        rng = random.Random(50)
        inst = dyadic_instance(rng, 16, bits=20)
        oracle = mitm_bounded_oracle(4)
        result = full_self_reduction(inst, 4, oracle)
        assert max(abs(v) for v in result.solution.x) <= 1
        assert result.claimed_bound == 2 * 4 * (2 * 2 * oracle.guarantee(2))
        assert result.solution.error <= result.claimed_bound

    def test_the_outermost_round_is_checked_against_the_composed_bound(self, monkeypatch):
        # every round, the outermost included, is a checked bounded oracle: a
        # round whose reply breaks the composed bound 2 * 4 * 2^-4 is refused
        inst = NbpInstance.from_values([Fraction(3, 4)] + [Fraction(1, 8)] * 15)
        e1 = lambda sub: (1,) + (0,) * (sub.n - 1)
        oracle = BoundedNbpOracle(k=2, guarantee=lambda d: Fraction(1, 2**d), solver=e1,
                                  name="tiny")
        monkeypatch.setattr(reduce_to_nbp, "halve_coefficients",
                            lambda sub, k, r, inner: HalveOutcome(verify(sub, e1(sub), 1), "stub"))
        with pytest.raises(OracleContractViolation, match=r"^halved\(tiny, round 1\): error 3/4 "
                           r"exceeds the claimed bound 1/2 at n=16$"):
            full_self_reduction(inst, 2, oracle)

    def test_oracle_bound_must_match_k_before_any_call(self):
        # a k = 3 oracle cannot answer a k = 1 reduction, which has no round
        # to bring its replies down to signs
        calls = []
        oracle = BoundedNbpOracle(k=3, guarantee=lambda d: Fraction(1),
                                  solver=lambda sub: calls.append(sub) or (3,) + (0,) * (sub.n - 1),
                                  name="k3")
        inst = NbpInstance.from_values([Fraction(1, 2)] * 4)
        with pytest.raises(InvalidParams, match="oracle coefficient bound does not match k"):
            full_self_reduction(inst, 1, oracle)
        assert calls == []

    def test_incompatible_dimension(self):
        rng = random.Random(51)
        inst = dyadic_instance(rng, 12, bits=10)
        with pytest.raises(PreconditionFailed, match="dimension 12 is not a perfect square"):
            full_self_reduction(inst, 2, mitm_bounded_oracle(2))


class TestFullPipelines:
    def test_minkowski_full_exact(self):
        rng = random.Random(53)
        inst = dyadic_instance(rng, 16, bits=20)
        oracle = exact_minkowski_oracle()
        result = nbp_full_pipeline(inst, oracle.rho, lambda k: minkowski_bounded_oracle(k, oracle))
        assert result.formula == "full-self-reduction"
        # k = ceil(3 rho) = 3, one round: 2 sqrt(n) g(sqrt(n)) with g the k = 3 bound
        assert result.claimed_bound == 2 * 4 * minkowski_bound(4, 3, Fraction(1))
        assert result.claimed_bound == 2 * 4 * 4 * Fraction(1, 4) ** 3
        assert any(result.solution.x)
        assert max(abs(v) for v in result.solution.x) <= 1
        assert result.solution.error <= result.claimed_bound
        assert result.solution == verify(inst, result.solution.x, 1)

    def test_minkowski_large_rho_falls_back(self):
        rng = random.Random(54)
        inst = dyadic_instance(rng, 16, bits=12)
        oracle = exact_minkowski_oracle()
        oracle.rho = Fraction(16)
        result = nbp_full_pipeline(inst, oracle.rho, lambda k: minkowski_bounded_oracle(k, oracle))
        assert result.formula == "karmarkar-karp-fallback"

    def test_rho_past_the_float_range_falls_back(self):
        # 2^1100 has no float; the cutoff comparison is exact, so the
        # bounded oracle is never built
        inst = NbpInstance.from_values([Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)])

        def no_oracle(k):
            raise AssertionError("the self-reduction ran")

        result = nbp_full_pipeline(inst, Fraction(2**1100), no_oracle)
        assert result.formula == "karmarkar-karp-fallback"
        assert (result.solution, result.claimed_bound) == (nbp.karmarkar_karp(inst), 1)

    def test_svp_full_exact(self):
        rng = random.Random(55)
        inst = dyadic_instance(rng, 16, bits=20)
        oracle = exact_svp_oracle()
        result = nbp_full_pipeline(inst, oracle.rho, lambda k: svp_bounded_oracle(k, oracle))
        assert result.formula == "full-self-reduction"
        assert max(abs(v) for v in result.solution.x) <= 1
        assert result.solution.error <= result.claimed_bound
        assert result.solution == verify(inst, result.solution.x, 1)

    def test_theorem5_bound_dominates_2_to_minus_n(self):
        # with k = 3 rho: n (rho/(3rho+1))^(n-1) <= n 3^-(n-1) <= 2^-n
        # holds for all n >= 8 (and fails at n = 7)
        for n in range(8, 17):
            assert n * Fraction(1, 3) ** (n - 1) <= Fraction(1, 2**n)
        assert 7 * Fraction(1, 3) ** 6 > Fraction(1, 2**7)


def reference_halve(inst, k, r, oracle):
    """halve_coefficients with full-length {-1,0,1} layers and Fraction sums,
    the way the paper states it; returns (branch, x)."""
    n, m = inst.n, isqrt(inst.n)
    inner = lambda x: sum((ai * xi for ai, xi in zip(entries(inst), x)), Fraction(0))
    blocks = []
    for lo in range(0, n, m):
        x_sub = oracle.solve(NbpInstance.from_values(entries(inst)[lo : lo + m])).x
        x_full = (0,) * lo + x_sub + (0,) * (n - lo - m)
        if max(map(abs, x_sub)) <= r - 1:
            return "small-coefficients", x_full
        blocks.append(x_full)
    layers = [
        [tuple((v == mag) - (v == -mag) for v in x_full) for mag in range(1, k + 1)]
        for x_full in blocks
    ]
    b_values = [sum(map(inner, lv[r - 1 :]), Fraction(0)) for lv in layers]
    for lv, b in zip(layers, b_values):
        if abs(b) <= oracle.guarantee(m):
            return "small-block-value", tuple(map(sum, zip(*lv[r - 1 :])))
    y = oracle.solve(NbpInstance.from_values([b / m for b in b_values])).x
    x = [0] * n
    for lv, j in zip(layers, y):
        if j:
            lam = represent_small_coeffs(k, r, j)
            for coeff, layer in zip(lam, lv):
                x = [xi + coeff * v for xi, v in zip(x, layer)]
    return "recombined", tuple(x)


def random_halving_case(seed):
    """(inst, k, r) with n in {4, 9, 16}, 2 <= k <= 4 and 0 < r < k."""
    rng = random.Random(seed)
    n, k = rng.choice([4, 9, 16]), rng.randint(2, 4)
    r, bits = rng.randint(1, k - 1), rng.choice([3, 6, 12])
    inst = NbpInstance.from_values(
        [Fraction(rng.randint(-(2**bits), 2**bits), 2**bits) for _ in range(n)]
    )
    return inst, k, r


def test_halve_coefficients_matches_the_fraction_layers():
    branches = set()
    for seed in range(40):
        inst, k, r = random_halving_case(seed)
        oracle = mitm_bounded_oracle(k)
        outcome = halve_coefficients(inst, k, r, oracle)
        branch, x = reference_halve(inst, k, r, oracle)
        assert (outcome.branch, outcome.solution.x) == (branch, x)
        # each branch's error, early exits included, is the verified one
        assert outcome.solution == verify(inst, x, max(r - 1, k - r))
        branches.add(branch)
    assert branches == {"small-coefficients", "small-block-value", "recombined"}


@pytest.mark.parametrize("coeff, message", [
    pytest.param(0, "recombined vector vanished", id="zero"),
    pytest.param(3, "recombined error 867/256 exceeds tracked bound", id="full-magnitude"),
])
def test_faulty_recombination_is_caught(monkeypatch, coeff, message):
    # case 37 (n = 16, k = 4, r = 1) takes the recombined branch; a lower layer
    # that returns zero coefficients, or coefficients of full magnitude
    # out_k = 3 that keep |x|_inf <= out_k, reaches each of the two checks
    inst, k, r = random_halving_case(37)
    assert max(r - 1, k - r) == 3
    oracle = mitm_bounded_oracle(k)
    assert halve_coefficients(inst, k, r, oracle).branch == "recombined"
    monkeypatch.setattr(
        reduce_to_nbp, "represent_small_coeffs", lambda k, r, j: [coeff] * k
    )
    with pytest.raises(InternalContradiction, match=message):
        halve_coefficients(inst, k, r, oracle)


def test_instance_integers_are_computed_only_from_outside_values(monkeypatch, tmp_path, capsys):
    """Entries are scaled to integers only where outside values come in:
    a document's entry strings (parse_over_lcm) or outside Fractions
    (common_denominator_ints, from NbpInstance.from_values).  Over one
    `reduce to-nbp --oracle exact-mink --full` run at n = 36 that is the
    input document, once: the body, restrict, the solvers, verify and
    instance_inner read the stored pair.  Over a rounded-branch `reduce
    to-minkowski --oracle pigeonhole` run the balancing layers and the
    bodies make no call of their own."""
    originals = {rationals.common_denominator_ints, rationals.parse_over_lcm}
    callers, seen = [], []

    def counting(original):
        def counted(*args):
            frame = sys._getframe(1)
            callers.append((frame.f_globals["__name__"], frame.f_code.co_name))
            return original(*args)

        return counted

    def count(owner, name):
        wrapped = getattr(owner, name)

        def wrapper(*args, **kwargs):
            seen.append(name)
            return wrapped(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    assert main(["gen", "nbp", "--n", "36", "--seed", "5"]) == 0
    f = tmp_path / "i.json"
    f.write_text(capsys.readouterr().out)
    assert main(["gen", "ellipsoid", "--n", "3", "--seed", "41"]) == 0
    e = tmp_path / "e.json"
    e.write_text(capsys.readouterr().out)
    for name, module in list(sys.modules.items()):
        for helper in ("common_denominator_ints", "parse_over_lcm"):
            bound = getattr(module, helper, None)
            if name.startswith("balancelat") and bound in originals:
                monkeypatch.setattr(module, helper, counting(bound))
    count(NbpInstance, "__init__")
    count(NbpInstance, "restrict")
    count(NbpInstance, "from_ints")
    for module in (nbp, reduce_to_nbp, oracles):
        for name in ("verify", "instance_inner"):
            if hasattr(module, name):
                count(module, name)
    code = main(["reduce", "to-nbp", "--oracle", "exact-mink", "--full", "--input", str(f)])
    assert code == 0, capsys.readouterr().err
    assert callers == [("balancelat.serialize", "instance_from_doc")]
    assert seen.count("restrict") == 6  # one round of sqrt(36) blocks
    # every instance passes the one constructor through from_ints: the
    # input, the six blocks and the block-value instance
    assert seen.count("from_ints") == 8 and seen.count("__init__") == 8
    assert seen.count("instance_inner") >= 6 and seen.count("verify") >= 1

    callers.clear()
    code = main(["reduce", "to-minkowski", "--oracle", "pigeonhole", "--input", str(e)])
    assert code == 0, capsys.readouterr().err
    assert '"branch": "pipeline"' in capsys.readouterr().out
    assert ("balancelat.nbp", "from_values") in callers
    layers = ("balancelat.reduce_to_minkowski", "balancelat.geometry")
    assert not [c for c in callers if c[0] in layers]


@pytest.mark.parametrize("oracle, n, handle, single_call, blocks", [
    ("exact-mink", 36, "minkowski-bounded(k=3, rho=1)", "nbp_via_minkowski", 6),
    ("exact-svp", 16, "svp-bounded(k=3)", "nbp_via_svp", 1),  # block 1 exits early
], ids=["exact-mink", "exact-svp"])
def test_each_balancing_reply_is_checked_once(monkeypatch, tmp_path, capsys,
                                              oracle, n, handle, single_call, blocks):
    """Over one `reduce to-nbp --oracle ... --full` run (gen seed 5) the
    bounded handle asks the oracle's solver directly, never through the
    single-call route or MinkowskiOracle.find, and one exact error is
    computed (verify, through instance_inner) per checked handle reply,
    plus one per recombined halving round: no reply is verified twice."""
    seen, replies, branches = [], [], []
    original_verify, original_inner = nbp.verify, nbp.instance_inner
    original_solve = oracles.BoundedNbpOracle.solve
    original_halve = reduce_to_nbp.halve_coefficients

    def counted(name, original):
        def wrapper(*args):
            seen.append(name)
            return original(*args)

        return wrapper

    def counted_solve(self, inst):
        sol = original_solve(self, inst)
        replies.append(self.name)
        return sol

    def counted_halve(*args):
        outcome = original_halve(*args)
        branches.append(outcome.branch)
        return outcome

    assert main(["gen", "nbp", "--n", str(n), "--seed", "5"]) == 0
    f = tmp_path / "i.json"
    f.write_text(capsys.readouterr().out)
    for name, module in list(sys.modules.items()):
        if name.startswith("balancelat") and getattr(module, "verify", None) is original_verify:
            monkeypatch.setattr(module, "verify", counted("verify", original_verify))
    monkeypatch.setattr(nbp, "instance_inner", counted("instance_inner", original_inner))
    for route in ("nbp_via_minkowski", "nbp_via_svp"):
        monkeypatch.setattr(reduce_to_nbp, route,
                            counted(route, getattr(reduce_to_nbp, route)))
    monkeypatch.setattr(oracles.MinkowskiOracle, "find",
                        counted("MinkowskiOracle.find", oracles.MinkowskiOracle.find))
    monkeypatch.setattr(oracles.BoundedNbpOracle, "solve", counted_solve)
    monkeypatch.setattr(reduce_to_nbp, "halve_coefficients", counted_halve)
    code = main(["reduce", "to-nbp", "--oracle", oracle, "--full", "--input", str(f)])
    assert code == 0, capsys.readouterr().err
    assert single_call not in seen and "MinkowskiOracle.find" not in seen
    assert replies[-1] == f"halved({handle}, round 1)"
    assert replies.count(handle) == len(replies) - 1 >= blocks
    checked = len(replies) + branches.count("recombined")
    assert seen.count("verify") == seen.count("instance_inner") == checked


def test_minkowski_points_are_tested_on_integers(monkeypatch, tmp_path, capsys):
    """The exact Minkowski search confirms its leaves, and MinkowskiOracle.find
    re-checks the reply, on the point's integers: over one `reduce to-nbp
    --oracle exact-mink --full` run at n = 36 and one single-call `--k 2`
    run at n = 9, which goes through find, neither builds an RVector."""
    guarded = {geometry.minkowski_exact_oracle.__code__, oracles.MinkowskiOracle.find.__code__}
    original_init, original_find = RVector.__init__, oracles.MinkowskiOracle.find
    inside, finds = [], []

    def counted_init(self, *args, **kwargs):
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_code in guarded:
                inside.append(frame.f_code.co_name)
                break
            frame = frame.f_back
        original_init(self, *args, **kwargs)

    def counted_find(self, body):
        finds.append(body.dim)
        return original_find(self, body)

    paths = {}
    for n in (36, 9):
        assert main(["gen", "nbp", "--n", str(n), "--seed", "5"]) == 0
        paths[n] = tmp_path / f"i{n}.json"
        paths[n].write_text(capsys.readouterr().out)
    monkeypatch.setattr(RVector, "__init__", counted_init)
    monkeypatch.setattr(oracles.MinkowskiOracle, "find", counted_find)
    for n, flags in ((36, ["--full"]), (9, ["--k", "2"])):
        code = main(["reduce", "to-nbp", "--oracle", "exact-mink", *flags,
                     "--input", str(paths[n])])
        assert code == 0, capsys.readouterr().err
    assert finds == [9] and inside == []


def test_each_basis_is_eliminated_once(monkeypatch, tmp_path, capsys):
    """`determinant` runs once per constructed basis, in LatticeBasis: twice
    per `lll` op (input and reduced), twice per exact-SVP oracle call (the
    embedding and its LLL output; `--k 2` at n = 5 and `--full` at n = 16)
    and twice per `reduce to-minkowski` op (A and its LLL output) on either
    branch.  Every determinant check reads the carried det."""
    original = linalg.determinant
    callers = []

    def counted(m):
        callers.append(sys._getframe(1).f_code.co_name)
        return original(m)

    def write(name, *argv):
        assert main(["gen", *argv]) == 0
        f = tmp_path / name
        f.write_text(capsys.readouterr().out)
        return str(f)

    basis = write("b.json", "basis", "--n", "4", "--seed", "2")
    small = write("i5.json", "nbp", "--n", "5", "--seed", "5")
    inst = write("i16.json", "nbp", "--n", "16", "--seed", "5")
    natural = write("e2.json", "ellipsoid", "--n", "2", "--seed", "3")
    rounded = write("e3.json", "ellipsoid", "--n", "3", "--seed", "41")
    for name, module in list(sys.modules.items()):
        if name.startswith("balancelat") and getattr(module, "determinant", None) is original:
            monkeypatch.setattr(module, "determinant", counted)
    finds = []
    original_find = oracles.SvpInfOracle.find

    def counted_find(self, b):
        finds.append(b.n)
        return original_find(self, b)

    monkeypatch.setattr(oracles.SvpInfOracle, "find", counted_find)

    def eliminations(*argv):
        callers.clear()
        assert main(list(argv)) == 0, capsys.readouterr().err
        return capsys.readouterr().out, callers[:]

    _, seen = eliminations("lll", "--input", basis)
    assert seen == ["__post_init__"] * 2
    for path, flag in ((small, ["--k", "2"]), (inst, ["--full"])):
        finds.clear()
        _, seen = eliminations("reduce", "to-nbp", "--oracle", "exact-svp", *flag,
                               "--input", path)
        assert len(finds) == 1 and seen == ["__post_init__"] * 2
    for path, branch in ((natural, "integer-point"), (rounded, "pipeline")):
        out, seen = eliminations("reduce", "to-minkowski", "--oracle", "pigeonhole",
                                 "--input", path)
        assert f'"branch": "{branch}"' in out
        assert seen == ["__post_init__"] * 2
