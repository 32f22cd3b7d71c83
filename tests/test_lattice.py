import itertools
import math
import random
from fractions import Fraction

import pytest

from balancelat import lattice
from balancelat.errors import BudgetExceeded, InternalContradiction, NotFound, PreconditionFailed
from balancelat.lattice import (
    LatticeBasis,
    LllCertificate,
    check_reduction_conditions,
    lattice_membership,
    lll_min_gain,
    lll_reduce,
    svp_exact_linf,
)
from balancelat.linalg import RMatrix, RVector, determinant, solve_linear
from balancelat.rationals import floor_frac


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
    inv_cols = [solve_linear(basis.B, RVector.unit(n, j)) for j in range(n)]
    v0 = min(basis.B.column(j).inf_norm() for j in range(n))
    if search_bound is not None:
        v0 = min(v0, Fraction(search_bound))
    return [floor_frac(v0 * sum(abs(c[i]) for c in inv_cols)) for i in range(n)]


def box_minimum(basis, search_bound=None):
    """Minimum of (|B y|_inf, |B y|_2^2, y) over the nonzero y of the box, or None."""
    keys = []
    bounds = box_bounds(basis, search_bound)
    for y in itertools.product(*(range(-b, b + 1) for b in bounds)):
        if any(y):
            v = basis.B.matvec(RVector(y))
            keys.append((v.inf_norm(), v.norm_sq(), y))
    return min(keys, default=None)


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


class TestMinGain:
    def test_identity_certificate(self):
        basis = LatticeBasis(RMatrix.identity(2))
        gain_sq = lll_min_gain(basis)
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
                assert reduced.B.matvec(x).norm_sq() >= gain_sq * x.norm_sq()

    def test_short_column_rejected(self):
        basis = LatticeBasis(RMatrix.diagonal([Fraction(1, 2), 4]))
        with pytest.raises(PreconditionFailed):
            lll_min_gain(basis)

    def test_unreduced_rejected(self):
        basis = LatticeBasis(RMatrix([[1, 100], [0, 1]]))
        with pytest.raises(PreconditionFailed):
            lll_min_gain(basis)


class TestSvpExactLinf:
    def test_identity_lattice(self):
        for n in range(1, 9):
            y = svp_exact_linf(LatticeBasis(RMatrix.identity(n)))
            v = RMatrix.identity(n).matvec(RVector(y))
            assert v.inf_norm() == 1
        # tie-break: minimal Euclidean norm then lexicographic
        assert svp_exact_linf(LatticeBasis(RMatrix.identity(3))) == (-1, 0, 0)

    def test_scaled_identity(self):
        basis = LatticeBasis(RMatrix.diagonal([Fraction(1, 3), Fraction(1, 3)]))
        y = svp_exact_linf(basis)
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
            y = svp_exact_linf(basis)
            val = basis.B.matvec(RVector(y)).inf_norm()
            reduced, _, _ = lll_reduce(basis)
            box_min = min(
                reduced.B.matvec(RVector(c)).inf_norm()
                for c in itertools.product(range(-2, 3), repeat=3)
                if any(c)
            )
            assert val <= box_min

    def test_unattainable_promise_raises(self):
        basis = LatticeBasis(RMatrix.diagonal([5, 5]))
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
        for basis in bases:
            for bound in (None, Fraction(1), Fraction(5, 2)):
                expected = box_minimum(basis, bound)
                if expected is None or (bound is not None and expected[0] > bound):
                    with pytest.raises(NotFound):
                        svp_exact_linf(basis, search_bound=bound)
                else:
                    assert svp_exact_linf(basis, search_bound=bound) == expected[2]

    def test_ties_break_by_norm_then_input_coefficients(self):
        # max norm 3 is the minimum, attained by +-(3,0,0) and +-(0,3,0)
        # (|v|^2 = 9) and by (1,1,3) (|v|^2 = 11); their input coefficients
        # are (-1,1,0), (1,-1,0), (1,0,0), (-1,0,0) and (0,0,1)
        basis = LatticeBasis(RMatrix.from_columns(
            [RVector([0, 3, 0]), RVector([3, 3, 0]), RVector([1, 1, 3])]
        ))
        assert box_minimum(basis) == (3, 9, (-1, 0, 0))
        assert svp_exact_linf(basis) == (-1, 0, 0)

    def test_search_radius_stays_clamped(self):
        # the identity lattice at n = 6 visits 2255 nodes; an ell-2 ball that
        # grows past n v0^2 once the first leaf is seen needs 12855
        svp_exact_linf(LatticeBasis(RMatrix.identity(6)), budget=2500)

    def test_budget_message_reports_the_search(self):
        with pytest.raises(BudgetExceeded) as info:
            svp_exact_linf(LatticeBasis(RMatrix.identity(6)), budget=100)
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
        basis = LatticeBasis(RMatrix.diagonal([2, 2]))
        assert lattice_membership(basis, RVector([1, 1])) is None
