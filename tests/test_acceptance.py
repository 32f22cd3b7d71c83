"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints an `ACCEPTANCE <id>: PASS/FAIL` line (visible with -s or in
captured output).  Tolerances and runtime caps are pinned here; the frozen
pipeline constant C for criterion 12 was established at bring-up and is a
regression bound for the fixed seeds below.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from balancelat import reduce_to_minkowski
from balancelat.errors import PreconditionFailed
from balancelat.generators import gen_basis, gen_ellipsoid, gen_nbp
from balancelat.geometry import ellipsoid_from_axes, well_round
from balancelat.lattice import lll_min_gain, lll_reduce
from balancelat.linalg import RVector, determinant
from balancelat.nbp import (
    NbpInstance,
    brute_force_min,
    instance_inner,
    karmarkar_karp,
    mitm_min,
    pigeonhole_bound,
    pigeonhole_solve,
)
from balancelat.oracles import exact_minkowski_oracle, exact_svp_oracle, mitm_delta_oracle
from balancelat.reduce_to_minkowski import (
    extended_range_balance,
    minkowski_from_nbp,
    multi_vector_balance,
)
from balancelat.reduce_to_nbp import (
    default_halving_schedule,
    full_self_reduction,
    nbp_via_minkowski,
    nbp_via_svp,
    represent_small_coeffs,
    svp_embedding_basis,
)
from balancelat.rng import SeededStream
from linalg_helpers import discretized, entries, fraction_rotation, norm_sq
from oracle_helpers import claimed_delta_oracle, mitm_bounded_oracle

# criterion 12 regression constant, frozen at bring-up (max observed
# rho*/n^4.5 was ~20.5 on the fixed seeds below)
PIPELINE_C = 32


@contextmanager
def criterion(cid: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {cid}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {cid}: PASS - {description}")


def test_criterion_01_solver_oracle_equivalence():
    with criterion(1, "mitm equals brute force on 200 seeded instances, n in [2,14]"):
        start = time.monotonic()
        for i in range(200):
            n = 2 + (i % 13)
            inst = gen_nbp(n, seed=1000 + i, precision_bits=30, signed=True)
            assert mitm_min(inst, 1).error == brute_force_min(inst, 1).error
        elapsed = time.monotonic() - start
        assert elapsed < 60, f"took {elapsed:.1f}s"


def test_criterion_02_karmarkar_karp():
    with criterion(2, "LDM residual 1/5 vs optimum 0; reconstruction exact; LDM >= brute"):
        inst = NbpInstance.from_values(
            [Fraction(2, 5), Fraction(1, 2), Fraction(3, 5), Fraction(7, 10), Fraction(4, 5)]
        )
        assert karmarkar_karp(inst).error == Fraction(1, 5)
        assert brute_force_min(inst, 1).error == 0
        for i in range(100):
            n = 1 + (i % 14)
            rand = gen_nbp(n, seed=2000 + i, precision_bits=30, signed=True)
            sol = karmarkar_karp(rand)
            assert abs(instance_inner(rand, sol.x)) == sol.error
            assert sol.error >= brute_force_min(rand, 1).error


def test_criterion_03_pigeonhole_bound():
    with criterion(3, "pigeonhole error <= 2 ceil(log2(N+1)) / N for n in {16,32,64}"):
        start = time.monotonic()
        for n in (16, 32, 64):
            pigeons = n**3
            bound = pigeonhole_bound(pigeons)
            assert bound == Fraction(2 * pigeons.bit_length(), pigeons)
            for seed in range(20):
                inst = gen_nbp(n, seed=3000 + seed, precision_bits=30, signed=False)
                assert pigeonhole_solve(inst, pigeons).error <= bound
        elapsed = time.monotonic() - start
        assert elapsed < 30, f"took {elapsed:.1f}s"


def test_criterion_04_theorem5_exact_minkowski():
    with criterion(4, "Theorem 5 bound n(1/(k+1))^(n-1), n in 3..8, k in 1..3, 20 seeds"):
        start = time.monotonic()
        oracle = exact_minkowski_oracle()
        for n in range(3, 9):
            for k in (1, 2, 3):
                bound = n * Fraction(1, k + 1) ** (n - 1)
                for seed in range(20):
                    inst = gen_nbp(
                        n, seed=7000 + 100 * n + 10 * k + seed,
                        precision_bits=30, signed=True,
                    )
                    result = nbp_via_minkowski(inst, k, oracle)
                    assert any(result.solution.x)
                    assert max(abs(v) for v in result.solution.x) <= k
                    assert result.solution.error <= bound
        elapsed = time.monotonic() - start
        assert elapsed < 300, f"took {elapsed:.1f}s"


def test_criterion_05_theorem9_embedding():
    with criterion(5, "det-1 embedding; SVP output bounds; trivial branch iff threshold"):
        for n in range(1, 7):
            for k in range(1, 5):
                for rho in (Fraction(1), Fraction(3, 2)):
                    a = gen_nbp(n, seed=500 + 10 * n + k, precision_bits=30, signed=True)
                    basis = svp_embedding_basis(a, k, rho)
                    assert determinant(basis.B) == 1
                    oracle = exact_svp_oracle()
                    oracle.rho = rho
                    calls = []
                    solve = oracle.solver
                    oracle.solver = lambda basis: calls.append(basis) or solve(basis)
                    result = nbp_via_svp(a, k, oracle)
                    bound = 2 * n * k * rho * (rho / k) ** n
                    trivial = rho * (rho / k) ** n >= Fraction(1, 2)
                    assert (not calls) == trivial  # the trivial branch calls no oracle
                    assert result.claimed_bound == bound
                    assert max(abs(v) for v in result.solution.x) <= k
                    assert result.solution.error <= bound


def test_criterion_06_lemma4_exhaustive():
    with criterion(6, "small-coefficient representation, exhaustive k <= 8"):
        rng = random.Random(606)
        for k in range(2, 9):
            for r in range(1, k):
                cap = max(r - 1, k - r)
                for j in range(-k, k + 1):
                    for case in range(10):
                        alphas = [Fraction(rng.randint(-64, 64), 16) for _ in range(k)]
                        if case % 2 == 0:
                            # force sum i*alpha_i = 0 exactly
                            partial = sum(
                                Fraction(i + 1) * alphas[i] for i in range(k - 1)
                            )
                            alphas[k - 1] = -partial / k
                        s = sum(Fraction(i + 1) * alphas[i] for i in range(k))
                        lam = represent_small_coeffs(k, r, j)
                        assert max(abs(v) for v in lam) <= cap if lam else True
                        beta = sum(alphas[r - 1:], Fraction(0))
                        residual = abs(
                            j * beta - sum(l * a for l, a in zip(lam, alphas))
                        )
                        if abs(j) < r:
                            assert residual == 0
                        else:
                            assert residual <= abs(s)


def test_criterion_07_halving_rounds():
    with criterion(7, "self-reduction: n=16 k=2 one round; n=256 k=4 two rounds"):
        start = time.monotonic()
        inst16 = gen_nbp(16, seed=161, precision_bits=30, signed=True)
        oracle2 = mitm_bounded_oracle(2)
        r16 = full_self_reduction(inst16, oracle2)
        assert any(r16.solution.x)
        assert max(abs(v) for v in r16.solution.x) <= 1
        assert r16.claimed_bound == 2 * 4 * oracle2.guarantee(4)
        assert r16.solution.error <= r16.claimed_bound

        inst256 = gen_nbp(256, seed=256, precision_bits=30, signed=True)
        oracle4 = mitm_bounded_oracle(4)
        assert default_halving_schedule(4) == [2, 1]
        r256 = full_self_reduction(inst256, oracle4)
        assert any(r256.solution.x)
        assert max(abs(v) for v in r256.solution.x) <= 1
        # per-round bounds are enforced by oracle re-verification inside;
        # the composed bound is 2 sqrt(n) g_1(sqrt(n)) with g_1 from round 1
        assert r256.claimed_bound == 2 * 16 * (2 * 4 * oracle4.guarantee(4))
        assert r256.solution.error <= r256.claimed_bound
        elapsed = time.monotonic() - start
        assert elapsed < 300, f"took {elapsed:.1f}s"


def test_criterion_08_lemma11_divisibility():
    with criterion(8, "multi-vector balancing: <a~_i, x> = 0 and 2 n^2 delta_i bounds"):
        oracle = mitm_delta_oracle()
        deltas_by_case = {
            (9, 1): [Fraction(1, 25)],
            (9, 2): [Fraction(1, 4), Fraction(1, 5)],
            (9, 3): [Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)],
            (16, 1): [Fraction(1, 512)],
            (16, 2): [Fraction(1, 16), Fraction(1, 64)],
            (16, 3): [Fraction(1, 8), Fraction(1, 16), Fraction(1, 14)],
        }
        for (n, k), deltas in deltas_by_case.items():
            vectors = [
                entries(gen_nbp(n, seed=8000 + 100 * n + 10 * k + i, precision_bits=30, signed=True))
                for i in range(k)
            ]
            result = multi_vector_balance(
                [NbpInstance.from_values(v) for v in vectors], deltas, oracle
            )
            xv = RVector(result)
            for i, disc in enumerate(discretized(vectors, deltas)):
                assert disc.dot(xv) == 0
                assert abs(vectors[i].dot(xv)) <= 2 * n * n * deltas[i]


def test_criterion_09_lemma12_range_extension(monkeypatch):
    with criterion(9, "range extension: recombination identity and bounds, Q in {2,4,256}"):
        balanced = []  # the sign vector y of the inflated instance
        balance = reduce_to_minkowski.multi_vector_balance
        monkeypatch.setattr(reduce_to_minkowski, "multi_vector_balance",
                            lambda *args: balanced.append(balance(*args)) or balanced[-1])
        n, k = 2, 2
        for Q in (2, 4, 2**8):
            levels = Q.bit_length() - 1
            inner = n * levels
            if Q == 2**8:
                oracle = mitm_delta_oracle()
                deltas = [Fraction(1, 32), Fraction(1, 16)]
            else:
                # the paper's canonical f(d) = 2^-d claim, re-verified per call
                oracle = claimed_delta_oracle(lambda d: Fraction(1, 2**d))
                deltas = [Fraction(1, 2), Fraction(1, 2)]
            vectors = [
                entries(gen_nbp(n, seed=9000 + Q + i, precision_bits=30, signed=True))
                for i in range(k)
            ]
            x = extended_range_balance(
                [NbpInstance.from_values(v) for v in vectors], deltas, Q, oracle
            )
            y = balanced.pop()
            assert len(y) == inner
            assert any(x)
            assert max(abs(v) for v in x) <= Q
            for i in range(k):
                inner_x = vectors[i].dot(RVector(x))
                b_i = RVector(
                    [vectors[i][j] / 2**level for j in range(n) for level in range(1, levels + 1)]
                )
                assert inner_x == Q * b_i.dot(RVector(y))
                assert abs(inner_x) <= deltas[i] * Q * 2 * inner**2


def test_criterion_10_lll_certificates():
    with criterion(10, "LLL on 50 seeded bases: conditions, B*U, |det U|, gain bound"):
        rng = random.Random(1010)
        for i in range(50):
            n = 2 + (i % 5)
            basis = gen_basis(n, seed=10_000 + i, span=99)
            reduced, transform, cert = lll_reduce(basis)
            assert cert.size_reduced and cert.lovasz_ok
            assert basis.B.matmul(transform.U) == reduced.B
            assert abs(determinant(transform.U)) == 1
            try:
                gain_sq = lll_min_gain(reduced, cert)
            except PreconditionFailed:
                continue
            assert gain_sq == Fraction(1, 2 ** (3 * n))
            for _ in range(100):
                x = RVector(
                    [Fraction(rng.randint(-99, 99), rng.randint(1, 16)) for _ in range(n)]
                )
                assert norm_sq(reduced.B.matvec(x)) >= gain_sq * norm_sq(x)


def test_criterion_11_well_rounding():
    with criterion(11, "well-rounding: integer point or certified 2^(3n/2) bound; |det| kept"):
        rng = random.Random(1111)
        branches = {"integer-point": 0, "rounded": 0}
        for i in range(30):
            n = 2 + (i % 4)
            e = gen_ellipsoid(n, seed=4000 + i)
            result = well_round(e)
            branches[result.branch] += 1
            if result.branch == "integer-point":
                assert e.quad(result.point) <= 1
                assert any(result.point)
            else:
                b = result.rounded.B
                assert abs(determinant(b)) == abs(determinant(e.B))
                gain_sq = lll_min_gain(result.rounded, result.cert)
                assert gain_sq == Fraction(1, 2 ** (3 * n))
                for _ in range(100):
                    x = RVector(
                        [Fraction(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(n)]
                    )
                    # every point of E' has |x|^2 <= 2^(3n): quadratic form
                    assert norm_sq(b.matvec(x)) >= gain_sq * norm_sq(x)
        assert branches["integer-point"] >= 1 and branches["rounded"] >= 1, branches


def _pipeline_ellipsoids():
    """Fixed n=2 and n=3 cases, both branches represented."""
    cases = []
    axes2 = [
        RVector([Fraction(-4, 5), Fraction(3, 5)]),
        RVector([Fraction(3, 5), Fraction(4, 5)]),
    ]
    cases.append((2, ellipsoid_from_axes(axes2, [Fraction(5, 7), Fraction(7, 5)])))
    rot = fraction_rotation(SeededStream(90001), 3)
    axes3 = [rot.column(i) for i in range(3)]
    cases.append((3, ellipsoid_from_axes(axes3, [Fraction(2, 3), Fraction(1), Fraction(3, 2)])))
    cases.append((2, gen_ellipsoid(2, seed=5010)))
    cases.append((3, gen_ellipsoid(3, seed=5013)))
    return cases


def test_criterion_12_theorem3_end_to_end():
    with criterion(12, "Theorem 3 pipeline: exact rho* membership, rho* <= C n^4.5"):
        start = time.monotonic()
        oracle = mitm_delta_oracle()
        branches = set()
        for n, e in _pipeline_ellipsoids():
            result = minkowski_from_nbp(e, oracle, Q_override=2**8)
            branches.add(result.branch)
            assert any(result.x)
            assert all(isinstance(v, int) for v in result.x)
            # certified membership x in rho* E, as an exact inequality
            assert e.quad(result.x) <= result.rho_star**2
            # frozen regression constant: rho* <= C n^4.5, squared comparison
            assert result.rho_star**2 <= Fraction(PIPELINE_C**2 * n**9)
        assert branches == {"integer-point", "pipeline"}, branches
        elapsed = time.monotonic() - start
        assert elapsed < 600, f"took {elapsed:.1f}s"
