import itertools
import math
import random
from fractions import Fraction

import pytest

from balancelat import lattice
from balancelat.errors import (
    BudgetExceeded,
    InternalContradiction,
    InvalidParams,
    NotFound,
    PreconditionFailed,
    RankDeficient,
)
from balancelat.generators import gen_nbp
from balancelat.lattice import (
    LatticeBasis,
    LllCertificate,
    UnimodularTransform,
    check_reduction_conditions,
    gram_schmidt_vectors,
    lattice_membership,
    lll_min_gain,
    lll_reduce,
    svp_exact_linf,
)
from balancelat.linalg import RMatrix, RVector, determinant, gram_schmidt, solve_linear
from balancelat.reduce_to_nbp import svp_embedding_basis
from linalg_helpers import diagonal, from_columns, integer_points, norm_sq, scale_matrix, unit
from test_linalg import ref_matvec, reference_gram_schmidt


def rand_int_basis(rng, n, span=30):
    while True:
        m = RMatrix([[rng.randint(-span, span) for _ in range(n)] for _ in range(n)])
        if determinant(m) != 0:
            return LatticeBasis(m)


def skewed_basis(rng, n, span=8):
    """Random unimodular shear times a diagonal, so the input is badly skewed."""
    base = rand_int_basis(rng, n, span)
    shear = RMatrix.identity(n)
    for _ in range(3):
        rows = [list(r) for r in shear.rows]
        i, j = rng.sample(range(n), 2)
        c = rng.randint(2, 6)
        for col in range(n):
            rows[i][col] += c * rows[j][col]
        shear = RMatrix(rows)
    return LatticeBasis(base.B.matmul(shear))


def box_bounds(basis, search_bound=None):
    """Coefficient bounds of a box that holds every optimum of the max-norm SVP.

    Every y with |B y|_inf <= v0 has |y_i| <= v0 |row_i(B^-1)|_1, and
    v0 = min(smallest column max-norm, search_bound) bounds the optimum
    whenever the optimum keeps the promise.
    """
    n = basis.n
    inv_cols = [solve_linear(basis.B, unit(n, j)) for j in range(n)]
    v0 = min(basis.B.column(j).inf_norm() for j in range(n))
    if search_bound is not None:
        v0 = min(v0, Fraction(search_bound))
    return [math.floor(v0 * sum(abs(c[i]) for c in inv_cols)) for i in range(n)]


def box_minimum(basis, search_bound=None):
    """Minimum of (|B y|_inf, |B y|_2^2, y) over the nonzero y of the box, or None."""
    keys = []
    bounds = box_bounds(basis, search_bound)
    for y in itertools.product(*(range(-b, b + 1) for b in bounds)):
        if any(y):
            v = basis.B.matvec(RVector(y))
            keys.append((v.inf_norm(), norm_sq(v), y))
    return min(keys, default=None)


def reference_lll(basis):
    """The Fraction LLL that rebuilds Gram-Schmidt after every swap.

    Kept as the reference of the integral reduction: same pivots, same
    roundings floor(mu + 1/2), same Lovasz test with delta = 3/4, so it must
    return the same (reduced, U, U^-1).
    """
    n = basis.n
    cols = [list(basis.B.column(j)) for j in range(n)]
    u_cols = [[Fraction(1 if i == j else 0) for i in range(n)] for j in range(n)]
    uinv_rows = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]

    def recompute_gs():
        bhat, mu = reference_gram_schmidt(from_columns(cols))
        norms = [norm_sq(bhat.column(i)) for i in range(n)]
        return [[mu[j, i] for j in range(n)] for i in range(n)], norms

    mu_of, norms = recompute_gs()
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            r = math.floor(mu_of[k][j] + Fraction(1, 2))
            if r != 0:
                cols[k] = [a - r * b for a, b in zip(cols[k], cols[j])]
                u_cols[k] = [a - r * b for a, b in zip(u_cols[k], u_cols[j])]
                uinv_rows[j] = [a + r * b for a, b in zip(uinv_rows[j], uinv_rows[k])]
                for jj in range(j):
                    mu_of[k][jj] -= r * mu_of[j][jj]
                mu_of[k][j] -= r
        if norms[k] >= (Fraction(3, 4) - mu_of[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            cols[k], cols[k - 1] = cols[k - 1], cols[k]
            u_cols[k], u_cols[k - 1] = u_cols[k - 1], u_cols[k]
            uinv_rows[k], uinv_rows[k - 1] = uinv_rows[k - 1], uinv_rows[k]
            mu_of, norms = recompute_gs()
            k = max(k - 1, 1)
    reduced = from_columns(cols)
    u = from_columns(u_cols)
    return reduced, u, RMatrix(uinv_rows)


def rand_rational_basis(rng, n, span=30, den=12):
    while True:
        m = RMatrix(
            [[Fraction(rng.randint(-span, span), rng.randint(1, den)) for _ in range(n)]
             for _ in range(n)]
        )
        if determinant(m) != 0:
            return LatticeBasis(m)


def assert_matches_reference(basis):
    reduced, transform, cert = lll_reduce(basis)
    ref_reduced, ref_u, ref_uinv = reference_lll(basis)
    assert reduced.B == ref_reduced
    assert transform.U == ref_u
    assert transform.Uinv == ref_uinv
    assert cert == check_reduction_conditions(ref_reduced)


class TestLllMatchesReference:
    """The integral LLL returns what the Fraction reference returns."""

    def test_random_integer_bases(self):
        rng = random.Random(31)
        for n in range(2, 11):
            for _ in range(2 if n <= 6 else 1):
                assert_matches_reference(rand_int_basis(rng, n))

    def test_random_rational_bases(self):
        rng = random.Random(32)
        for n in range(2, 9):
            assert_matches_reference(rand_rational_basis(rng, n))

    def test_skewed_bases(self):
        rng = random.Random(33)
        for n in (3, 5, 7):
            assert_matches_reference(skewed_basis(rng, n))

    def test_large_span_is_swap_heavy(self):
        # a knapsack lattice with 15-digit weights: the reference makes 82 swaps
        rng = random.Random(34)
        n = 6
        rows = [[int(i == j) for j in range(n)] for i in range(n - 1)]
        rows.append([rng.randint(10**14, 10**15) for _ in range(n)])
        assert_matches_reference(LatticeBasis(RMatrix(rows)))

    def test_rounding_and_lovasz_ties(self):
        # mu = 1/2 rounds up to 1 and mu = -1/2 rounds to 0, as floor(mu + 1/2);
        # columns (2,0,0), (1,1,1) meet the Lovasz condition with equality: no swap
        for basis in (
            RMatrix([[2, 1], [0, 3]]),
            RMatrix([[2, -1], [0, 3]]),
            RMatrix([[2, 3], [0, 1]]),
            RMatrix([[2, 1, -1], [0, 2, 1], [0, 0, 2]]),
            RMatrix([[2, 1, 0], [0, 1, 0], [0, 1, 5]]),
        ):
            assert_matches_reference(LatticeBasis(basis))

    def test_scaling_changes_nothing(self):
        rng = random.Random(35)
        basis = rand_int_basis(rng, 5)
        reduced, transform, _ = lll_reduce(basis)
        scaled, scaled_transform, _ = lll_reduce(LatticeBasis(scale_matrix(basis.B, Fraction(1, 7))))
        assert scaled_transform.U == transform.U
        assert scaled.B == scale_matrix(reduced.B, Fraction(1, 7))


class TestLllReduce:
    def test_identity_fixed_point(self):
        basis = LatticeBasis(RMatrix.identity(3))
        reduced, transform, cert = lll_reduce(basis)
        assert reduced.B == RMatrix.identity(3)
        assert transform.U == RMatrix.identity(3)
        assert cert.size_reduced and cert.lovasz_ok

    def test_two_dim_example(self):
        basis = LatticeBasis(
            RMatrix([[1, Fraction(3, 2)], [0, Fraction(1, 2)]])
        )
        reduced, transform, cert = lll_reduce(basis)
        assert cert.size_reduced and cert.lovasz_ok
        assert basis.B.matmul(transform.U) == reduced.B

    def test_random_skewed_bases(self):
        rng = random.Random(21)
        for _ in range(8):
            basis = skewed_basis(rng, 4)
            reduced, transform, cert = lll_reduce(basis)
            assert cert.size_reduced and cert.lovasz_ok
            assert basis.B.matmul(transform.U) == reduced.B
            assert abs(determinant(transform.U)) == 1
            assert abs(determinant(reduced.B)) == abs(determinant(basis.B))
            # conditions re-derived from scratch agree
            fresh = check_reduction_conditions(reduced.B)
            assert fresh.size_reduced and fresh.lovasz_ok

    def test_transform_inverse_consistency(self):
        rng = random.Random(22)
        basis = skewed_basis(rng, 3)
        _, transform, _ = lll_reduce(basis)
        n = transform.U.ncols
        assert transform.U.matmul(transform.Uinv) == RMatrix.identity(n)

    def test_stale_gram_schmidt_fails_the_reduction_conditions(self, monkeypatch):
        # the loop's Gram-Schmidt reports the d and lam of the identity, so it
        # neither size-reduces nor swaps; the fresh certificate catches that
        original, calls = lattice.gram_schmidt, []

        def stale(m):
            calls.append(m)
            cols, scale, d, lam = original(m)
            if len(calls) == 1:
                _, _, d, lam = original(RMatrix.identity(m.ncols))
            return cols, scale, d, lam

        monkeypatch.setattr(lattice, "gram_schmidt", stale)
        with pytest.raises(InternalContradiction, match="fails the reduction conditions"):
            lll_reduce(LatticeBasis(RMatrix([[1, 100], [0, 1]])))

    def test_gram_schmidt_of_another_basis_differs_from_b_times_u(self, monkeypatch):
        # the loop reduces 2B; the output is reduced, but it is not B U
        original = lattice.gram_schmidt
        monkeypatch.setattr(lattice, "gram_schmidt", lambda m: original(scale_matrix(m, 2)))
        with pytest.raises(InternalContradiction, match="differs from the input basis times U"):
            lll_reduce(LatticeBasis(RMatrix([[1, 100], [0, 1]])))

    def test_the_basis_carries_its_determinant(self):
        rng = random.Random(24)
        for n in (2, 3, 4):
            basis = skewed_basis(rng, n)
            reduced, _, _ = lll_reduce(basis)
            assert basis.det == determinant(basis.B)
            assert reduced.det == determinant(reduced.B) and abs(reduced.det) == abs(basis.det)
        # det is derived, so two bases of one matrix compare equal
        assert LatticeBasis(RMatrix.identity(2)) == LatticeBasis(RMatrix.identity(2))


class TestReductionCertificate:
    """Both conditions are checked as integer inequalities, bounds included."""

    @staticmethod
    def flags(columns):
        cert = check_reduction_conditions(from_columns(columns))
        return cert.size_reduced, cert.lovasz_ok

    def test_size_reduction_bound(self):
        # mu_10 = +-1/2 exactly is size-reduced; mu_10 = +-101/200 is not
        assert self.flags([(2, 0), (1, 3)]) == (True, True)
        assert self.flags([(2, 0), (-1, 3)]) == (True, True)
        assert self.flags([(200, 0), (101, 300)]) == (False, True)
        assert self.flags([(200, 0), (-101, 300)]) == (False, True)
        assert self.flags([(200, 0), (99, 300)]) == (True, True)
        # a pair below the diagonal other than (1, 0)
        assert self.flags([(2, 0, 0), (0, 2, 0), (1, 0, 5)]) == (True, True)
        assert self.flags([(200, 0, 0), (0, 200, 0), (101, 0, 300)]) == (False, True)
        assert self.flags([(1, 0, 0), (0, 200, 0), (0, 101, 300)]) == (False, True)

    def test_lovasz_bound(self):
        # |bhat_0|^2 = 4 = 2 |bhat_1|^2: d_1^2 = 16 = 2 d_0 d_2 is accepted;
        # shrinking b_1 a little breaks the condition
        assert self.flags([(2, 0, 0), (1, 1, 1), (0, 1, -1)]) == (True, True)
        assert check_reduction_conditions(RMatrix([[2, 1, 0], [0, 1, 1], [0, 1, -1]])).d == (
            1, 4, 8, 16)
        assert self.flags([(2, 0, 0), (1, Fraction(99, 100), 1), (0, 1, -1)]) == (True, False)
        # the same at a later pair, |bhat_1|^2 = 4 = 2 |bhat_2|^2, where
        # d_2^2 = 16 = 2 d_1 d_3 with d_1 != 1
        e0, e3 = (1, 0, 0, 0), (0, 0, 1, -1)
        assert self.flags([e0, (0, 2, 0, 0), (0, 1, 1, 1), e3]) == (True, True)
        assert self.flags([e0, (0, 2, 0, 0), (0, 1, 1, Fraction(99, 100)), e3]) == (True, False)
        # in two dimensions: 4 <= 2 * 9, but 9 > 2 * 4
        assert self.flags([(2, 0), (0, 3)]) == (True, True)
        assert self.flags([(3, 0), (0, 2)]) == (True, False)

    def test_dependent_basis_rejected(self):
        with pytest.raises(RankDeficient):
            check_reduction_conditions(RMatrix([[1, 2, 3], [0, 1, 1], [0, 0, 0]]))


class TestUnimodularTransform:
    def test_non_integral_inverse_refused(self):
        # U = [2] is integral and U U^-1 = I, but det U = 2
        with pytest.raises(PreconditionFailed):
            UnimodularTransform(RMatrix([[2]]), RMatrix([[Fraction(1, 2)]]))

    def test_non_integral_matrix_refused(self):
        with pytest.raises(PreconditionFailed):
            UnimodularTransform(RMatrix([[Fraction(1, 2)]]), RMatrix([[2]]))

    def test_wrong_inverse_refused(self):
        with pytest.raises(PreconditionFailed):
            UnimodularTransform(RMatrix([[1, 1], [0, 1]]), RMatrix([[1, 1], [0, 1]]))

    def test_valid_pair_accepted(self):
        u = RMatrix([[2, 1], [1, 1]])
        uinv = RMatrix([[1, -1], [-1, 2]])
        t = UnimodularTransform(u, uinv)
        assert t.apply((3, -4)) == (2, -1)
        assert t.Uinv.matvec(RVector(t.apply((3, -4)))) == RVector([3, -4])


class TestApplyMatchesReference:
    """apply(y), on U's integer rows, is the Fraction U y, and U^-1 takes it back."""

    def test_lll_transforms(self):
        rng = random.Random(613)
        for n in range(1, 6):
            draws = [rand_int_basis, rand_rational_basis] + [skewed_basis] * (n > 1)
            for draw in draws:
                _, t, _ = lll_reduce(draw(rng, n))
                for y in integer_points(rng, n, 12):
                    x = t.apply(y)
                    assert type(x) is tuple and all(type(v) is int for v in x)
                    assert RVector(x) == ref_matvec(t.U, RVector(y))
                    assert ref_matvec(t.Uinv, RVector(x)) == RVector(y)

    def test_dimension_mismatch(self):
        t = UnimodularTransform(RMatrix.identity(2), RMatrix.identity(2))
        with pytest.raises(InvalidParams, match="dimension mismatch"):
            t.apply((1, 2, 3))


class TestMinGain:
    def test_identity_certificate(self):
        basis = LatticeBasis(RMatrix.identity(2))
        gain_sq = lll_min_gain(basis, check_reduction_conditions(basis.B))
        assert gain_sq == Fraction(1, 64)  # 2^(-3n) with n = 2

    def test_sampled_quadratic_inequality(self):
        rng = random.Random(23)
        for _ in range(5):
            reduced, _, cert = lll_reduce(rand_int_basis(rng, 3, span=9))
            try:
                gain_sq = lll_min_gain(reduced, cert)
            except PreconditionFailed:
                continue
            for _ in range(100):
                x = RVector(
                    [Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(3)]
                )
                assert norm_sq(reduced.B.matvec(x)) >= gain_sq * norm_sq(x)

    def test_short_column_rejected(self):
        basis = LatticeBasis(diagonal([Fraction(1, 2), 4]))
        with pytest.raises(PreconditionFailed):
            lll_min_gain(basis, check_reduction_conditions(basis.B))

    def test_unreduced_rejected(self):
        basis = LatticeBasis(RMatrix([[1, 100], [0, 1]]))
        with pytest.raises(PreconditionFailed):
            lll_min_gain(basis, check_reduction_conditions(basis.B))

    def test_gram_schmidt_bound_read_from_the_certificate(self):
        # On a reduced basis with |b_i|^2 >= 1 the bound |bhat_k|^2 >= 2^(-n)
        # always holds, so these certificates are made up to reach it: over
        # F = 4, 2^n d_{k+1} >= d_k F^2 holds with equality for d = (1, 4, 16)
        # (|bhat_0|^2 = |bhat_1|^2 = 1/4) and fails at d_1 = 3.
        basis = LatticeBasis(RMatrix.identity(2))
        zero = ((0, 0), (0, 0))
        at_bound = LllCertificate(4, (1, 4, 16), zero, True, True)
        assert lll_min_gain(basis, at_bound) == Fraction(1, 64)
        with pytest.raises(PreconditionFailed):
            lll_min_gain(basis, LllCertificate(4, (1, 3, 16), zero, True, True))
        with pytest.raises(PreconditionFailed):
            lll_min_gain(basis, LllCertificate(4, (1, 4, 15), zero, True, True))


# scaled and permuted cubes c Z^n, bare and behind a unimodular shear: every
# optimum is tied 2n ways or more, so the witness rests on the tie-break
_SHEAR = RMatrix([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
TIE_HEAVY_BASES = [LatticeBasis(m) for m in (
    diagonal([Fraction(3, 2)] * 3),
    scale_matrix(RMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]]), Fraction(2, 3)),
    scale_matrix(_SHEAR, 2),
    RMatrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]]).matmul(scale_matrix(_SHEAR, Fraction(5, 3))),
    diagonal([2, 2, 3]),
)]


class TestGramSchmidtVectors:
    def test_integer_vectors_are_d_times_the_reference(self):
        # w_l = d_l bhat_l of the columns c_j = F b_j, entry by entry
        rng = random.Random(28)
        bases = [rand_int_basis(rng, n, span=9).B for n in (1, 2, 4, 6)]
        bases += [rand_rational_basis(rng, n).B for n in (3, 5)]
        bases += [svp_embedding_basis(gen_nbp(5, 1, 30, signed=True), 3, 1).B]
        for b in bases:
            cols, _, d, lam = gram_schmidt(b)
            bhat, _ = reference_gram_schmidt(from_columns(cols))
            w = gram_schmidt_vectors(cols, d, lam)
            for l in range(b.ncols):
                assert w[l] == [d[l] * e for e in bhat.column(l)]
                assert all(type(e) is int for e in w[l])


# A search bound above the smallest max norm of a reduced column of every
# basis searched here: it promises nothing, so the search starts from the
# reduced columns and visits the nodes it would visit with no bound at all.
NO_PROMISE = Fraction(10**6)


class TestSvpExactLinf:
    def test_identity_lattice(self):
        for n in range(1, 9):
            y = svp_exact_linf(LatticeBasis(RMatrix.identity(n)), NO_PROMISE)
            v = RMatrix.identity(n).matvec(RVector(y))
            assert v.inf_norm() == 1
        # tie-break: minimal Euclidean norm then lexicographic
        assert svp_exact_linf(LatticeBasis(RMatrix.identity(3)), NO_PROMISE) == (-1, 0, 0)

    def test_scaled_identity(self):
        basis = LatticeBasis(diagonal([Fraction(1, 3), Fraction(1, 3)]))
        y = svp_exact_linf(basis, NO_PROMISE)
        assert basis.B.matvec(RVector(y)).inf_norm() == Fraction(1, 3)

    def test_theorem9_style_matrix(self):
        # det-1 embedding for n=2, k=3, rho=1, a=(1/2, 1/3)
        k, n = 3, 2
        a = [Fraction(1, 2), Fraction(1, 3)]
        rows = [
            [Fraction(1, k), 0, 0],
            [0, Fraction(1, k), 0],
            [Fraction(a[0], 2 * n * k) * k**n, Fraction(a[1], 2 * n * k) * k**n, k**n],
        ]
        basis = LatticeBasis(RMatrix(rows))
        assert determinant(basis.B) == 1
        y = svp_exact_linf(basis, search_bound=1)
        v = basis.B.matvec(RVector(y))
        assert v.inf_norm() <= 1
        assert any(y)

    def test_minimality_against_box_scan(self):
        rng = random.Random(24)
        for _ in range(5):
            basis = rand_int_basis(rng, 3, span=5)
            y = svp_exact_linf(basis, NO_PROMISE)
            val = basis.B.matvec(RVector(y)).inf_norm()
            reduced, _, _ = lll_reduce(basis)
            box_min = min(
                reduced.B.matvec(RVector(c)).inf_norm()
                for c in itertools.product(range(-2, 3), repeat=3)
                if any(c)
            )
            assert val <= box_min

    def test_unattainable_promise_raises(self):
        basis = LatticeBasis(diagonal([5, 5]))
        with pytest.raises(NotFound):
            svp_exact_linf(basis, search_bound=1)

    def test_matches_box_minimum(self):
        rng = random.Random(26)
        bases = []
        for n in (2, 3, 4):
            for denominators in ((1,), (1, 2, 3, 4)):
                for _ in range(4):
                    while True:
                        m = RMatrix([[Fraction(rng.randint(-4, 4), rng.choice(denominators))
                                      for _ in range(n)] for _ in range(n)])
                        # near-singular draws give boxes too large to scan quickly
                        if determinant(m) != 0 and math.prod(
                            2 * b + 1 for b in box_bounds(LatticeBasis(m))
                        ) <= 5000:
                            break
                    bases.append(LatticeBasis(m))
        for basis in bases + TIE_HEAVY_BASES:
            for bound in (NO_PROMISE, Fraction(1), Fraction(5, 2)):
                expected = box_minimum(basis, bound)
                if expected is None or expected[0] > bound:
                    with pytest.raises(NotFound):
                        svp_exact_linf(basis, search_bound=bound)
                else:
                    assert svp_exact_linf(basis, search_bound=bound) == expected[2]

    def test_fractional_search_bounds_match_box_minimum(self):
        # bounds just above and just below each optimum, off the grid 1/F of
        # the reduced basis: the search starts from m = floor(F v0) < F v0, and
        # a bound below the optimum still raises NotFound
        rng = random.Random(27)
        bases = [rand_int_basis(rng, 3, span=4) for _ in range(4)]
        bases += [LatticeBasis(RMatrix([[Fraction(rng.randint(-4, 4), rng.choice((2, 3)))
                                         for _ in range(3)] for _ in range(3)]))
                  for _ in range(6)]
        # near-singular draws give boxes too large to scan quickly
        bases = [b for b in bases if b.det != 0
                 and math.prod(2 * c + 1 for c in box_bounds(b)) <= 5000] + TIE_HEAVY_BASES
        assert len(bases) >= 10
        outcomes = set()
        for basis in bases:
            optimum = box_minimum(basis)[0]
            scale = lll_reduce(basis)[0].B.den
            for bound in (optimum + Fraction(1, 101), optimum - Fraction(1, 101),
                          optimum + Fraction(50, 101)):
                assert (scale * bound).denominator != 1
                expected = box_minimum(basis, bound)
                if expected is None or expected[0] > bound:
                    outcomes.add("NotFound")
                    with pytest.raises(NotFound):
                        svp_exact_linf(basis, search_bound=bound)
                else:
                    outcomes.add("found")
                    assert svp_exact_linf(basis, search_bound=bound) == expected[2]
        assert outcomes == {"NotFound", "found"}

    def test_ties_break_by_norm_then_input_coefficients(self):
        # max norm 3 is the minimum, attained by +-(3,0,0) and +-(0,3,0)
        # (|v|^2 = 9) and by (1,1,3) (|v|^2 = 11); their input coefficients
        # are (-1,1,0), (1,-1,0), (1,0,0), (-1,0,0) and (0,0,1)
        basis = LatticeBasis(from_columns(
            [RVector([0, 3, 0]), RVector([3, 3, 0]), RVector([1, 1, 3])]
        ))
        assert box_minimum(basis) == (3, 9, (-1, 0, 0))
        assert svp_exact_linf(basis, NO_PROMISE) == (-1, 0, 0)

    def test_the_witness_may_be_the_sign_the_walk_skips(self):
        # the optimum is +-(1, 1) = +-(b_1 - b_0), unique up to sign.  The walk
        # keeps the top nonzero y'_j below 0, so of the pair it visits only
        # y' = U^-1 (1, -1) = (-1, 0), whose U y' = (1, -1) is lexicographically
        # larger than its negative; the key's min(U y', -U y') returns (-1, 1)
        basis = LatticeBasis(RMatrix([[2, 3], [-3, -2]]))
        assert box_minimum(basis) == (1, 2, (-1, 1))
        assert lll_reduce(basis)[1].Uinv.matvec(RVector([1, -1])) == RVector([-1, 0])
        assert svp_exact_linf(basis, NO_PROMISE) == (-1, 1)

    def assert_visits(self, basis, nodes, search_bound=NO_PROMISE):
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("BALANCELAT_BUDGET", str(nodes))
            svp_exact_linf(basis, search_bound=search_bound)
            mp.setenv("BALANCELAT_BUDGET", str(nodes - 1))
            with pytest.raises(BudgetExceeded, match=f"exceeded budget: {nodes} nodes visited,"):
                svp_exact_linf(basis, search_bound=search_bound)

    def test_search_radius_stays_clamped(self):
        # the identity lattice at n = 6 visits 550 nodes with the max-norm cut,
        # one vector of each +-pair; walking both signs it visited 1093, the
        # ell-2 ball of radius^2 n v0^2 alone 2255, and a ball that grows past
        # n v0^2 once the first leaf is seen 12855
        self.assert_visits(LatticeBasis(RMatrix.identity(6)), 550)

    @pytest.mark.parametrize("n, k, nodes", [(7, 2, 424), (5, 3, 11), (6, 3, 28)])
    def test_node_counts_on_det_one_embeddings_are_pinned(self, n, k, nodes):
        # the exact count pins the visit order: every node, in the same order;
        # walking both signs of each +-pair visited 839, 15 and 48, and the
        # ell-2 ball without the max-norm cut (both signs) 1085, 25 and 54
        basis = svp_embedding_basis(gen_nbp(n, 1, 30, signed=True), k, 1)
        self.assert_visits(basis, nodes, search_bound=1)

    @pytest.mark.parametrize("rows, nodes, witness", [
        # the next candidate lies inside the shrunk ball but outside the cut
        ([[-10, -4, -4], [1, 6, -10], [2, -1, -2]], 8, (-1, 1, 1)),
        # the next candidate lies outside the shrunk ball
        ([[16, 19, 14, -11, 0], [20, 16, 4, 7, 7], [-6, 11, -2, 10, 4],
          [4, -10, 18, 18, -4], [-1, 11, -4, 6, -19]], 61, (0, 0, 0, -1, -1)),
    ], ids=["cut", "ball"])
    def test_a_level_ends_when_m_drops_inside_it(self, rows, nodes, witness):
        # m starts at the smallest max norm of a reduced column and drops while
        # levels above the leaf are part-way through their intervals; the
        # first candidate that fails the shrunk ball or cut ends its level
        basis = LatticeBasis(RMatrix(rows))
        self.assert_visits(basis, nodes)
        assert svp_exact_linf(basis, NO_PROMISE) == witness

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_det_one_embeddings_match_box_minimum(self, n, k):
        # a diagonal block with one dense last row, as nbp_via_svp builds it
        for seed in (1, 2, 3):
            basis = svp_embedding_basis(gen_nbp(n, seed, 30, signed=True), k, 1)
            expected = box_minimum(basis, 1)
            assert expected[0] <= 1  # Minkowski: det 1 promises max norm <= 1
            assert svp_exact_linf(basis, search_bound=1) == expected[2]

    def test_negative_search_bound_is_refused_before_reduction(self, monkeypatch):
        basis = LatticeBasis(RMatrix.identity(4))

        def no_reduction(_basis):
            pytest.fail("lll_reduce ran")

        monkeypatch.setattr(lattice, "lll_reduce", no_reduction)
        with pytest.raises(InvalidParams, match="search bound"):
            svp_exact_linf(basis, search_bound=-1)
        monkeypatch.undo()
        with pytest.raises(NotFound):
            svp_exact_linf(basis, search_bound=0)

    def test_budget_message_reports_the_search(self, monkeypatch):
        monkeypatch.setenv("BALANCELAT_BUDGET", "100")
        with pytest.raises(BudgetExceeded) as info:
            svp_exact_linf(LatticeBasis(RMatrix.identity(6)), NO_PROMISE)
        message = str(info.value)
        assert "exceeded budget" in message
        assert "101 nodes visited, limit 100, dimension 6, search radius^2 6" in message


class TestMembership:
    def test_roundtrip(self):
        rng = random.Random(25)
        basis = rand_int_basis(rng, 3, span=6)
        y = (2, -1, 3)
        x = basis.B.matvec(RVector(y))
        assert lattice_membership(basis, x) == y

    def test_non_member(self):
        basis = LatticeBasis(diagonal([2, 2]))
        assert lattice_membership(basis, RVector([1, 1])) is None


def test_lll_and_svp_paths_never_build_the_fraction_view(monkeypatch, tmp_path, capsys):
    """An `lll` op and an exact-SVP `reduce to-nbp` op run every check on the
    integer form: with ``RMatrix.rows`` raising, both still exit 0 and write
    the same reports."""
    from balancelat.cli import main

    def write(name, *argv):
        assert main(["gen", *argv]) == 0
        f = tmp_path / name
        f.write_text(capsys.readouterr().out)
        return str(f)

    ops = [
        ["reduce", "to-nbp", "--oracle", "exact-svp", "--k", "2",
         "--input", write("i5.json", "nbp", "--n", "5", "--seed", "5")],
        ["lll", "--input", write("b4.json", "basis", "--n", "4", "--seed", "2")],
    ]

    def reports():
        out = []
        for argv in ops:
            assert main(argv) == 0
            out.append(capsys.readouterr().out)
        return out

    expected = reports()

    def no_view(self):
        raise AssertionError("the Fraction view of an RMatrix was built")

    monkeypatch.setattr(RMatrix, "rows", property(no_view))
    assert reports() == expected
