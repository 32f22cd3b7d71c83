import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balancelat.errors import InvalidParams, RankDeficient
from balancelat.linalg import RMatrix, RVector, determinant, gram_schmidt, solve_linear
from linalg_helpers import diagonal, from_columns, norm_sq, scale, scale_matrix, sub


def rand_fraction(rng, span=9, den=8):
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def rand_matrix(rng, n, span=9, den=8):
    return RMatrix([[rand_fraction(rng, span, den) for _ in range(n)] for _ in range(n)])


def rand_nonsingular(rng, n):
    while True:
        m = rand_matrix(rng, n)
        if determinant(m) != 0:
            return m


def cofactor_det(m: RMatrix) -> Fraction:
    """Independent oracle: determinant by cofactor expansion along row 0."""
    n = m.nrows
    if n == 1:
        return m[0, 0]
    total = Fraction(0)
    for j in range(n):
        minor = RMatrix([[m[i, jj] for jj in range(n) if jj != j] for i in range(1, n)])
        total += (-1) ** j * m[0, j] * cofactor_det(minor)
    return total


def reference_gram_schmidt(basis: RMatrix) -> tuple[RMatrix, RMatrix]:
    """The Fraction Gram-Schmidt that the integral one replaced.

    Returns (Bhat, Mu) with Bhat's columns pairwise orthogonal, Mu unit upper
    triangular, and basis = Bhat * Mu exactly.  Mu[i][j] is the projection
    coefficient <b_j, bhat_i> / |bhat_i|^2 for i < j.
    """
    if not basis.is_square():
        raise RankDeficient("basis matrix must be square")
    n = basis.ncols
    cols = [basis.column(j) for j in range(n)]
    hat: list[RVector] = []
    mu = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for j in range(n):
        v = cols[j]
        for i in range(j):
            coeff = cols[j].dot(hat[i]) / norm_sq(hat[i])
            mu[i][j] = coeff
            v = sub(v, scale(hat[i], coeff))
        if not any(v):
            raise RankDeficient(f"column {j} is dependent on earlier columns")
        hat.append(v)
    return from_columns(hat), RMatrix(mu)


def assert_matches_reference_gs(b: RMatrix) -> None:
    """The integral data are the reference's Bhat norms and Mu, scaled."""
    cols, f, d, lam = gram_schmidt(b)
    bhat, mu = reference_gram_schmidt(b)
    n = b.ncols
    assert d[0] == 1 and len(d) == n + 1
    assert [[Fraction(e, f) for e in c] for c in cols] == [list(b.column(j)) for j in range(n)]
    for i in range(n):
        assert Fraction(d[i + 1], d[i] * f * f) == norm_sq(bhat.column(i))
        for j in range(i + 1, n):
            assert Fraction(lam[j][i], d[i + 1]) == mu[i, j]
        assert lam[i][i:] == [0] * (n - i)


class TestGramSchmidt:
    def test_identity_is_fixed_point(self):
        eye = RMatrix.identity(3)
        bhat, mu = reference_gram_schmidt(eye)
        assert bhat == eye
        assert mu == eye
        cols, f, d, lam = gram_schmidt(eye)
        assert (f, d) == (1, [1, 1, 1, 1])
        assert cols == [list(eye.column(j)) for j in range(3)]
        assert lam == [[0] * 3 for _ in range(3)]

    def test_forced_two_dim_case(self):
        # columns (1,0) and (1,1)
        b = RMatrix([[1, 1], [0, 1]])
        bhat, mu = reference_gram_schmidt(b)
        assert bhat.column(0) == RVector([1, 0])
        assert bhat.column(1) == RVector([0, 1])
        assert mu[0, 1] == 1
        _, f, d, lam = gram_schmidt(b)
        assert (f, d) == (1, [1, 1, 1])  # |bhat_0|^2 = |bhat_1|^2 = 1
        assert lam[1][0] == 1  # d_1 mu_10

    def test_common_denominator(self):
        # columns (1/2, 0) and (1/3, 1/3) over F = 6: (3, 0) and (2, 2)
        b = RMatrix([[Fraction(1, 2), Fraction(1, 3)], [0, Fraction(1, 3)]])
        cols, f, d, lam = gram_schmidt(b)
        assert (cols, f) == ([[3, 0], [2, 2]], 6)
        assert d == [1, 9, 36]  # det of the Gram matrix [[9, 6], [6, 8]]
        assert lam[1][0] == 6
        assert_matches_reference_gs(b)

    def test_reconstruction_random(self):
        rng = random.Random(401)
        for _ in range(10):
            b = rand_nonsingular(rng, 4)
            bhat, mu = reference_gram_schmidt(b)
            assert bhat.matmul(mu) == b
            # pairwise orthogonality and unit diagonal, exactly
            cols = [bhat.column(j) for j in range(4)]
            for i in range(4):
                assert mu[i, i] == 1
                for j in range(i + 1, 4):
                    assert cols[i].dot(cols[j]) == 0
                    assert mu[j, i] == 0
            assert_matches_reference_gs(b)

    def test_matches_reference_on_integer_bases(self):
        rng = random.Random(406)
        for n in range(1, 11):
            for _ in range(3):
                while True:
                    b = RMatrix([[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)])
                    if determinant(b) != 0:
                        break
                assert_matches_reference_gs(b)

    def test_matches_reference_on_mixed_denominator_bases(self):
        rng = random.Random(407)
        for n in range(1, 11):
            for _ in range(2):
                assert_matches_reference_gs(rand_nonsingular(rng, n))

    def test_rank_deficient_rejected(self):
        for b in (
            RMatrix([[1, 2], [2, 4]]),
            RMatrix([[1, 0, 1], [0, 1, 1], [0, 0, 0]]),  # b_2 = b_0 + b_1
            RMatrix([[0]]),
        ):
            with pytest.raises(RankDeficient):
                gram_schmidt(b)
            with pytest.raises(RankDeficient):
                reference_gram_schmidt(b)

    def test_non_square_rejected(self):
        with pytest.raises(RankDeficient):
            gram_schmidt(RMatrix([[1, 0]]))


class TestDeterminant:
    def test_identity(self):
        assert determinant(RMatrix.identity(3)) == 1

    def test_diagonal_product(self):
        assert determinant(diagonal([Fraction(1, 3), Fraction(1, 3), 9])) == 1

    def test_against_cofactor_oracle(self):
        rng = random.Random(402)
        for _ in range(12):
            m = RMatrix([[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)])
            assert determinant(m) == cofactor_det(m)

    def test_rational_entries_against_cofactor_oracle(self):
        rng = random.Random(403)
        for _ in range(8):
            m = rand_matrix(rng, 4)
            assert determinant(m) == cofactor_det(m)

    def test_multiplicative(self):
        rng = random.Random(404)
        for _ in range(8):
            a = rand_matrix(rng, 4)
            b = rand_matrix(rng, 4)
            assert determinant(a.matmul(b)) == determinant(a) * determinant(b)

    def test_singular_is_zero(self):
        m = RMatrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
        assert determinant(m) == 0

    def test_mixed_denominators(self):
        # one denominator for the whole matrix: lcm(6, 4, 9, 3) = 36, det over 36^3
        m = RMatrix([[Fraction(1, 6), Fraction(-3, 4), 2],
                     [Fraction(5, 9), 0, Fraction(-1, 3)],
                     [7, -1, 0]])
        assert m.den == 36
        assert determinant(m) == cofactor_det(m) == Fraction(7, 12)


class TestSolveLinear:
    def test_identity(self):
        v = RVector([3, Fraction(1, 7), -2])
        assert solve_linear(RMatrix.identity(3), v) == v

    def test_scaled_identity(self):
        m = scale_matrix(RMatrix.identity(2), 2)
        assert solve_linear(m, RVector([1, 1])) == RVector([Fraction(1, 2), Fraction(1, 2)])

    def test_residual_exactly_zero(self):
        rng = random.Random(405)
        for _ in range(6):
            m = rand_nonsingular(rng, 5)
            v = RVector([rand_fraction(rng) for _ in range(5)])
            x = solve_linear(m, v)
            assert m.matvec(x) == v

    def test_singular_raises(self):
        m = RMatrix([[1, 2], [2, 4]])
        with pytest.raises(RankDeficient, match="coefficient matrix is singular"):
            solve_linear(m, RVector([1, 1]))


# Fraction references for the integer kernels: each reads the Fraction view
# ``rows`` and computes entry by entry in Fraction arithmetic.


def ref_matmul(a: RMatrix, b: RMatrix) -> RMatrix:
    """Reference product: one Fraction sum per entry."""
    cols = list(zip(*b.rows))
    return RMatrix([[sum((x * y for x, y in zip(r, c)), Fraction(0)) for c in cols]
                    for r in a.rows])


def ref_matvec(m: RMatrix, v: RVector) -> RVector:
    return RVector(sum((x * y for x, y in zip(r, v)), Fraction(0)) for r in m.rows)


class TestMatmul:
    def test_mixed_denominators_against_naive(self):
        rng = random.Random(41)
        for n in range(1, 7):
            a = rand_matrix(rng, n, span=50, den=30)
            b = rand_matrix(rng, n, span=50, den=30)
            assert a.matmul(b) == ref_matmul(a, b)

    def test_non_square_shapes(self):
        rng = random.Random(42)
        for rows, inner, cols in [(1, 4, 1), (4, 1, 4), (2, 5, 3), (5, 2, 1), (3, 3, 6)]:
            a = RMatrix([[rand_fraction(rng, 20, 15) for _ in range(inner)] for _ in range(rows)])
            b = RMatrix([[rand_fraction(rng, 20, 15) for _ in range(cols)] for _ in range(inner)])
            product = a.matmul(b)
            assert (product.nrows, product.ncols) == (rows, cols)
            assert product == ref_matmul(a, b)

    def test_one_by_one(self):
        a = RMatrix([[Fraction(-3, 4)]])
        b = RMatrix([[Fraction(8, 9)]])
        assert a.matmul(b) == RMatrix([[Fraction(-2, 3)]])
        assert RMatrix([[0]]).matmul(b) == RMatrix([[0]])

    def test_integer_and_rational_factors(self):
        rng = random.Random(43)
        ints = RMatrix([[rng.randint(-10**12, 10**12) for _ in range(4)] for _ in range(4)])
        fracs = rand_matrix(rng, 4, span=10**6, den=10**5)
        assert ints.matmul(fracs) == ref_matmul(ints, fracs)
        assert fracs.matmul(ints) == ref_matmul(fracs, ints)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            RMatrix.identity(2).matmul(RMatrix.identity(3))


small_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(small_fracs, min_size=3, max_size=3), min_size=3, max_size=3))
def test_gram_schmidt_reconstructs_whenever_it_succeeds(rows):
    m = RMatrix(rows)
    try:
        bhat, mu = reference_gram_schmidt(m)
    except RankDeficient:
        assert determinant(m) == 0
        with pytest.raises(RankDeficient):
            gram_schmidt(m)
        return
    assert bhat.matmul(mu) == m
    assert_matches_reference_gs(m)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.lists(small_fracs, min_size=3, max_size=3), min_size=3, max_size=3),
    st.lists(small_fracs, min_size=3, max_size=3),
)
def test_solve_roundtrip_or_singular(rows, rhs):
    m = RMatrix(rows)
    v = RVector(rhs)
    try:
        x = solve_linear(m, v)
    except RankDeficient:
        assert determinant(m) == 0
        return
    assert m.matvec(x) == v


def rand_rect(rng, rows, cols, span=40, den=30):
    return RMatrix([[rand_fraction(rng, span, den) for _ in range(cols)] for _ in range(rows)])


class TestIntegerForm:
    def test_lowest_terms(self):
        rng = random.Random(408)
        for _ in range(20):
            m = rand_rect(rng, rng.randint(1, 5), rng.randint(1, 5))
            assert m.den >= 1
            assert gcd(m.den, *(e for r in m.ints for e in r)) == 1
            assert m.rows == tuple(tuple(Fraction(e, m.den) for e in r) for r in m.ints)
            assert RMatrix(m.rows) == m and RMatrix.from_ints(m.ints, m.den) == m

    def test_kernels_match_the_fraction_reference(self):
        rng = random.Random(409)
        for _ in range(30):
            r, k, c = (rng.randint(1, 5) for _ in range(3))
            a, b = rand_rect(rng, r, k), rand_rect(rng, k, c)
            v = RVector([rand_fraction(rng, 40, 30) for _ in range(k)])
            f = rand_fraction(rng, 40, 30)
            assert a.matmul(b) == ref_matmul(a, b)
            assert a.matvec(v) == ref_matvec(a, v)

    def test_determinant_and_solve_on_mixed_denominators(self):
        rng = random.Random(410)
        for n in range(1, 6):
            for _ in range(4):
                m = rand_rect(rng, n, n)
                assert determinant(m) == cofactor_det(m)
                if determinant(m) != 0:
                    v = RVector([rand_fraction(rng, 40, 30) for _ in range(n)])
                    assert m.matvec(solve_linear(m, v)) == v

    def test_equal_forms_are_equal(self):
        a = RMatrix([[Fraction(1, 2), 1]])
        b = RMatrix.from_ints([[2, 4]], 4)
        assert (b.ints, b.den) == (((1, 2),), 2)
        assert a == b and hash(a) == hash(b)
        assert RMatrix.from_ints([[3, 0], [0, 3]], 3) == RMatrix.identity(2)

    def test_from_ints_refuses_a_denominator_below_one(self):
        for den in (0, -1):
            with pytest.raises(InvalidParams):
                RMatrix.from_ints([[1]], den)

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError, match="ragged rows"):
            RMatrix([[1, 2], [3]])
        with pytest.raises(ValueError, match="ragged rows"):
            RMatrix.from_ints([[1, 2], [3]], 2)
