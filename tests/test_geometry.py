import random
from fractions import Fraction
from math import isqrt

import pytest

from balancelat.errors import InternalContradiction, NotFound, PrecisionUnreachable
from balancelat.generators import gen_ellipsoid
from balancelat.geometry import (
    CubeBody,
    CubeSlabBody,
    Ellipsoid,
    SymmetricConvexBody,
    _rotation_u,
    axis_extract,
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
        assert CubeBody(2, 1).member(RVector([0, 0]))

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
        result = well_round(Ellipsoid(RMatrix.identity(3)))
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
            well_round(Ellipsoid(RMatrix.identity(3)))

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


def _ref_sqrt_lower(x, bits):
    scale = 1 << bits
    return Fraction(isqrt(x.numerator * x.denominator * scale * scale) // x.denominator, scale)


def _ref_rotation_candidates(tau, bits):
    root = _ref_sqrt_lower(tau * tau + 1, bits)
    if tau >= 0:
        t = 1 / (tau + root) if tau + root != 0 else Fraction(1)
    else:
        t = -1 / (-tau + root) if -tau + root != 0 else Fraction(-1)
    half_root = _ref_sqrt_lower(1 + t * t, bits)
    u = t / (1 + half_root)
    scale = 1 << bits
    u = Fraction(round(u * scale), scale)
    return [u, -u]


def _ref_apply_rotation(mat, p, q, c, s):
    n = len(mat)
    for i in range(n):
        vp, vq = mat[i][p], mat[i][q]
        mat[i][p] = c * vp - s * vq
        mat[i][q] = s * vp + c * vq
    for j in range(n):
        vp, vq = mat[p][j], mat[q][j]
        mat[p][j] = c * vp - s * vq
        mat[q][j] = s * vp + c * vq


def reference_axis_extract(ellipsoid, precision_bits=128):
    """The Jacobi iteration on reduced Fractions, as it was before the integer one.

    Kept as the reference of the fraction-free iteration: same pivot scan,
    stop test, angle rule, u / -u choice, truncation and certificate, so it
    must return equal axes and lengths.
    """
    n = ellipsoid.dim
    m = ellipsoid.gram()
    target = Fraction(1, 2**precision_bits)
    guard = 48
    for _attempt in range(4):
        bits = precision_bits + 2 * guard
        d = [list(row) for row in m.rows]
        v = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
        off_tol = Fraction(1, 2 ** (precision_bits + guard))
        rotations = 0
        max_rotations = 40 * n * n + 40
        while rotations < max_rotations:
            p, q, biggest = -1, -1, Fraction(0)
            for i in range(n):
                for j in range(i + 1, n):
                    if abs(d[i][j]) > biggest:
                        p, q, biggest = i, j, abs(d[i][j])
            if biggest <= off_tol:
                break
            tau = (d[q][q] - d[p][p]) / (2 * d[p][q])
            best_u, best_off = None, None
            for u in _ref_rotation_candidates(tau, bits):
                denom = 1 + u * u
                c = (1 - u * u) / denom
                s = 2 * u / denom
                new_off = abs((c * c - s * s) * d[p][q] + c * s * (d[p][p] - d[q][q]))
                if best_off is None or new_off < best_off:
                    best_u, best_off = u, new_off
            denom = 1 + best_u * best_u
            c = (1 - best_u * best_u) / denom
            s = 2 * best_u / denom
            _ref_apply_rotation(d, p, q, c, s)
            for i in range(n):
                vp, vq = v[i][p], v[i][q]
                v[i][p] = c * vp - s * vq
                v[i][q] = s * vp + c * vq
            rotations += 1
        else:
            guard *= 2
            continue
        grid = 1 << bits
        vout = [[Fraction(int(e * grid), grid) for e in row] for row in v]
        ws = [_ref_sqrt_lower(d[i][i], bits) for i in range(n)]
        if any(w <= 0 for w in ws):
            guard *= 2
            continue
        vmat = RMatrix(vout)
        recon = vmat.matmul(RMatrix.diagonal([w * w for w in ws])).matmul(vmat.transpose())
        residual = max(abs(recon[i, j] - m[i, j]) for i in range(n) for j in range(n))
        gram_v = vmat.transpose().matmul(vmat)
        defect = max(
            abs(gram_v[i, j] - (1 if i == j else 0)) for i in range(n) for j in range(n)
        )
        if residual <= target and defect <= target:
            axes = [vmat.column(i) for i in range(n)]
            lengths = [1 / w for w in ws]
            order = sorted(range(n), key=lambda i: lengths[i])
            return [axes[i] for i in order], [lengths[i] for i in order]
        guard *= 2
    raise PrecisionUnreachable(f"axis extraction failed to certify 2^-{precision_bits} residual")


def assert_axes_match_reference(e, precision_bits=128):
    axes, lengths = axis_extract(e, precision_bits)
    ref_axes, ref_lengths = reference_axis_extract(e, precision_bits)
    assert lengths == ref_lengths
    assert axes == ref_axes


def rounded_draws(n, count):
    """The first `count` gen_ellipsoid seeds whose well-rounding is the rounded branch."""
    out = []
    seed = 0
    while len(out) < count:
        result = well_round(gen_ellipsoid(n, seed))
        if result.branch == "rounded":
            out.append(result.rounded)
        seed += 1
    return out


class TestAxisExtractMatchesReference:
    """The integer Jacobi iteration returns what the Fraction reference returns."""

    @pytest.mark.parametrize("n, count", [(2, 4), (3, 4), (4, 1)])
    def test_rounded_gen_ellipsoids(self, n, count):
        for e in rounded_draws(n, count):
            assert_axes_match_reference(e)

    def test_rational_rotation_ellipsoids(self):
        rng = random.Random(36)
        for n in (2, 3, 3, 4):
            rot = rational_rotation(rng, n)
            diag = RMatrix.diagonal(
                [Fraction(rng.randint(1, 8), rng.randint(1, 4)) for _ in range(n)]
            )
            assert_axes_match_reference(Ellipsoid(diag.matmul(rot.transpose())), 80)

    def test_diagonal_needs_no_rotation(self):
        e = Ellipsoid(RMatrix.diagonal([Fraction(1, 3), 5, Fraction(7, 2)]))
        assert_axes_match_reference(e)
        axes, _ = axis_extract(e)
        assert sorted(tuple(ax) for ax in axes) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]

    def test_repeated_eigenvalues(self):
        rng = random.Random(37)
        for lengths in ([2, 2, 1], [1, 1, 1], [3, 1, 3, 1]):
            rot = rational_rotation(rng, len(lengths))
            diag = RMatrix.diagonal([Fraction(1, l) for l in lengths])
            assert_axes_match_reference(Ellipsoid(diag.matmul(rot.transpose())))

    def test_pivot_ties_and_zero_tau(self):
        # equal off-diagonal magnitudes tie the pivot scan, and equal diagonal
        # entries give tau = 0, where u and -u leave equal off-diagonal entries
        a, b = Fraction(5, 4), Fraction(3, 4)
        assert_axes_match_reference(Ellipsoid(RMatrix([[a, b], [b, a]])))
        assert_axes_match_reference(Ellipsoid(RMatrix([[a, b, b], [b, a, b], [b, b, a]])))

    def test_minus_u_candidate(self):
        # d_qq - d_pp is about 2^-100, so tau is below the 2^-97 angle grid of
        # precision_bits = 1 and the rounded u overshoots: -u leaves the
        # smaller off-diagonal entry
        y = Fraction(isqrt(3 << 200), 1 << 101)
        assert_axes_match_reference(Ellipsoid(RMatrix([[1, Fraction(1, 2)], [0, y]])), 1)

    def test_stop_exactly_at_tolerance(self):
        # the off-diagonal entry is exactly 2^-(precision_bits + 48), so no
        # rotation is made
        e = Ellipsoid(RMatrix([[1, Fraction(1, 2**49)], [0, 1]]))
        assert_axes_match_reference(e, 1)
        axes, _ = axis_extract(e, 1)
        assert sorted(tuple(ax) for ax in axes) == [(0, 1), (1, 0)]

    @pytest.mark.parametrize("precision_bits", [1, 64, 128])
    def test_precision_bits(self, precision_bits):
        rng = random.Random(38)
        e = Ellipsoid(RMatrix([[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]))
        assert_axes_match_reference(e, precision_bits)
        assert_axes_match_reference(rounded_draws(3, 1)[0], precision_bits)


class TestRotationU:
    """_rotation_u equals the Fraction candidate rule on (unreduced) tau."""

    @staticmethod
    def check(tn, td, bits):
        ref = _ref_rotation_candidates(Fraction(tn, td), bits)[0]
        assert Fraction(_rotation_u(tn, td, bits), 1 << bits) == ref
        return ref

    def test_random_tau(self):
        rng = random.Random(39)
        for _ in range(300):
            tn = rng.randint(-(2**40), 2**40)
            td = rng.randint(1, 2**40)
            k = rng.randint(1, 2**20)  # unreduced numerator and denominator
            self.check(tn * k, td * k, rng.choice([0, 1, 3, 16, 64, 224]))

    def test_zero_and_negative_tau(self):
        for bits in (0, 5, 128):
            assert self.check(0, 7, bits) >= 0  # tau = 0 takes the positive branch
            assert self.check(-3, 2, bits) == -self.check(3, 2, bits)
            assert self.check(-(10**30), 1, bits) == -self.check(10**30, 1, bits)

    def test_round_half_even_ties(self):
        # at bits = 0, tau = 0 gives u = 1/2 exactly, which rounds to 0
        assert self.check(0, 1, 0) == 0
        ties = []
        for bits in range(4):
            for tn in range(-40, 41):
                for td in range(1, 20):
                    tau = Fraction(tn, td)
                    scale = 1 << bits
                    root = _ref_sqrt_lower(tau * tau + 1, bits)
                    t = 1 / (tau + root) if tau >= 0 else -1 / (-tau + root)
                    exact = t / (1 + _ref_sqrt_lower(1 + t * t, bits)) * scale
                    if exact.denominator == 2:
                        ties.append((tn, td, bits, exact))
                        self.check(tn, td, bits)
        # ties rounded both down and up to the even neighbour are covered
        assert {abs(ex).numerator // 2 % 2 for *_, ex in ties} == {0, 1}
