import random
from fractions import Fraction

import pytest

from balancelat.errors import InternalContradiction, NotFound
from balancelat.geometry import (
    CubeBody,
    CubeSlabBody,
    Ellipsoid,
    SymmetricConvexBody,
    axis_extract,
    member,
    minkowski_exact_oracle,
    well_round,
)
from balancelat.linalg import RMatrix, RVector, determinant


def rational_rotation(rng, n):
    """Exactly orthogonal rational matrix: product of circle-point Givens rotations."""
    rows = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        p, q = rng.sample(range(n), 2)
        u = Fraction(rng.randint(-64, 64), 128)
        c = (1 - u * u) / (1 + u * u)
        s = 2 * u / (1 + u * u)
        for i in range(n):
            vp, vq = rows[i][p], rows[i][q]
            rows[i][p] = c * vp - s * vq
            rows[i][q] = s * vp + c * vq
    return RMatrix(rows)


class TestMember:
    def test_unit_cube_contains_origin(self):
        assert member(CubeBody(2, 1), RVector([0, 0]))

    def test_ellipsoid_boundary(self):
        e = Ellipsoid(RMatrix.identity(2).scale(2))
        assert e.member(RVector([Fraction(1, 2), 0]))
        assert not e.member(RVector([Fraction(1, 2), Fraction(1, 100)]))

    def test_theorem5_style_body(self):
        a = RVector([Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)])
        delta = Fraction(3) * Fraction(1, 3) ** 2  # n (rho/(k+1))^(n-1)
        body = CubeSlabBody(a, delta, Fraction(3))
        x = RVector([1, -1, 0])
        assert abs(a.dot(x)) == Fraction(1, 6) <= delta
        assert body.member(x)

    def test_symmetry(self):
        rng = random.Random(31)
        a = RVector([Fraction(rng.randint(-8, 8), 9) for _ in range(4)])
        body = CubeSlabBody(a, Fraction(1, 3), Fraction(2))
        for _ in range(50):
            x = RVector([Fraction(rng.randint(-20, 20), 10) for _ in range(4)])
            assert body.member(x) == body.member(-x)


class TestMinkowskiOracle:
    def test_closed_cube_lexicographic(self):
        assert minkowski_exact_oracle(CubeBody(2, 1)) == (-1, -1)

    def test_open_cube_has_no_point(self):
        with pytest.raises(NotFound):
            minkowski_exact_oracle(CubeBody(2, 1, open_box=True))

    def test_result_is_always_member(self):
        rng = random.Random(32)
        for n in (4, 5, 6):
            a = RVector([2 * Fraction(rng.randrange(2**20), 2**20) - 1 for _ in range(n)])
            delta = n * Fraction(1, 2) ** (n - 1)  # k = 1, rho = 1
            body = CubeSlabBody(a, delta, Fraction(2))
            x = minkowski_exact_oracle(body)
            assert any(x)
            assert body.member(RVector(x))
            assert max(abs(v) for v in x) <= 1
            assert abs(a.dot(RVector(x))) <= delta

    def test_pruned_search_matches_generic_predicate_search(self):
        rng = random.Random(33)
        for _ in range(5):
            n = 4
            a = RVector([Fraction(rng.randint(-15, 15), 16) for _ in range(n)])
            delta = Fraction(1, 3)
            structured = CubeSlabBody(a, delta, Fraction(2))
            generic = SymmetricConvexBody(n, structured.member, Fraction(2))
            try:
                fast = minkowski_exact_oracle(structured)
            except NotFound:
                with pytest.raises(NotFound):
                    minkowski_exact_oracle(generic)
                continue
            assert fast == minkowski_exact_oracle(generic)


class TestWellRound:
    def test_unit_ball_returns_unit_vector(self):
        result = well_round(Ellipsoid.unit_ball(3))
        assert result.branch == "integer-point"
        assert sorted(abs(v) for v in result.point) == [0, 0, 1]

    def test_short_axis_gives_integer_point(self):
        e = Ellipsoid(RMatrix.diagonal([Fraction(1, 10), 10]))
        result = well_round(e)
        assert result.branch == "integer-point"
        assert e.member(RVector(result.point))

    def test_integer_point_outside_ellipsoid_raises(self, monkeypatch):
        monkeypatch.setattr(Ellipsoid, "member", lambda self, x: False)
        with pytest.raises(InternalContradiction):
            well_round(Ellipsoid.unit_ball(3))

    def test_skewed_ellipsoid_right_branch(self):
        a = RMatrix([[3, 100, 7], [0, 5, 91], [0, 0, 4]])
        e = Ellipsoid(a)
        result = well_round(e)
        assert result.branch == "rounded"
        n = 3
        assert result.min_gain_sq == Fraction(1, 2 ** (3 * n))
        b = result.rounded.A
        # volume / determinant preserved under the unimodular change
        assert abs(determinant(b)) == abs(determinant(a))
        rng = random.Random(34)
        for _ in range(100):
            x = RVector([Fraction(rng.randint(-30, 30), 7) for _ in range(n)])
            assert b.matvec(x).norm_sq() >= result.min_gain_sq * x.norm_sq()

    def test_transform_orientation(self):
        a = RMatrix([[3, 100], [0, 5]])
        e = Ellipsoid(a)
        result = well_round(e)
        if result.branch != "rounded":
            pytest.skip("left branch")
        # A * transform.apply_inverse gives exactly the rounded form matrix
        u = result.transform.Uinv  # maps E' coordinates back to E
        assert a.matmul(u) == result.rounded.A


class TestAxisExtract:
    def test_diagonal(self):
        e = Ellipsoid(RMatrix.diagonal([2, Fraction(1, 2)]))
        axes, lengths = axis_extract(e, precision_bits=64)
        assert lengths == [Fraction(1, 2), 2]
        assert {tuple(map(abs, ax)) for ax in axes} == {(1, 0), (0, 1)}

    def test_two_by_two_hand_oracle(self):
        # A symmetric with eigenvalues 2 and 1/2 on (1,1)/sqrt2, (1,-1)/sqrt2
        a = RMatrix([[Fraction(5, 4), Fraction(3, 4)], [Fraction(3, 4), Fraction(5, 4)]])
        e = Ellipsoid(a)
        axes, lengths = axis_extract(e, precision_bits=96)
        tol = Fraction(1, 2**40)
        assert abs(lengths[0] - Fraction(1, 2)) < tol
        assert abs(lengths[1] - 2) < tol
        # short axis is parallel to (1,1), long axis to (1,-1)
        short = axes[0]
        assert abs(abs(short[0]) - abs(short[1])) < tol
        assert abs(short[0] - short[1]) < tol or abs(short[0] + short[1]) < tol

    def test_reconstruction_residual_random(self):
        rng = random.Random(35)
        for _ in range(3):
            rot = rational_rotation(rng, 3)
            diag = RMatrix.diagonal(
                [Fraction(rng.randint(1, 8), rng.randint(1, 4)) for _ in range(3)]
            )
            e = Ellipsoid(diag.matmul(rot.transpose()))
            bits = 80
            axes, lengths = axis_extract(e, precision_bits=bits)
            m = e.gram()
            recon = [[Fraction(0)] * 3 for _ in range(3)]
            for ax, ln in zip(axes, lengths):
                w = 1 / (ln * ln)
                for i in range(3):
                    for j in range(3):
                        recon[i][j] += w * ax[i] * ax[j]
            worst = max(abs(recon[i][j] - m[i, j]) for i in range(3) for j in range(3))
            assert worst <= Fraction(1, 2**bits)
            # product of lengths ~ 1/|det A|
            prod = Fraction(1)
            for ln in lengths:
                prod *= ln
            det = abs(determinant(e.A))
            assert abs(prod - 1 / det) < Fraction(1, 2**40)

    def test_lengths_sorted_ascending(self):
        e = Ellipsoid(RMatrix.diagonal([Fraction(1, 3), 5, 1]))
        _, lengths = axis_extract(e, precision_bits=64)
        assert lengths == sorted(lengths)
