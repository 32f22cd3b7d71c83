from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balancelat.errors import InvalidParams
from balancelat.rationals import (
    common_denominator_ints,
    floor_frac,
    floor_sqrt_div,
    format_decimal_dyadic,
    format_rational,
    format_scientific,
    iroot_floor,
    nth_root_upper,
    parse_rational,
    sqrt_lower,
    sqrt_upper,
)

nonneg = st.fractions(min_value=0, max_value=10**6, max_denominator=10**6)
anyfrac = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)


class TestParsing:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("1/2", Fraction(1, 2)),
            ("-3/7", Fraction(-3, 7)),
            ("0.125", Fraction(1, 8)),
            ("3", Fraction(3)),
            ("-2.5e-2", Fraction(-1, 40)),
        ],
    )
    def test_examples(self, text, value):
        assert parse_rational(text) == value

    def test_rejects_garbage(self):
        with pytest.raises(InvalidParams):
            parse_rational("one half")

    def test_exponent_cap(self):
        assert parse_rational("1e10000") == 10**10000
        assert parse_rational("-2.5E-10000") == Fraction(-25, 10**10001)
        assert parse_rational("3e-000004") == Fraction(3, 10**4)
        for text in ("1e10001", "1e-10001", "1e999999999", "-7.5E+1_000_000", "1e" + "9" * 5000):
            with pytest.raises(InvalidParams, match="exponent"):
                parse_rational(text)

    def test_decimal_dyadic_roundtrip(self):
        x = Fraction(-1234567, 2**30)
        assert parse_rational(format_decimal_dyadic(x, 30)) == x
        assert parse_rational(format_decimal_dyadic(Fraction(0), 4)) == 0


@settings(max_examples=200, deadline=None)
@given(anyfrac)
def test_format_parse_roundtrip(x):
    assert parse_rational(format_rational(x)) == x


@settings(max_examples=200, deadline=None)
@given(nonneg)
def test_sqrt_bounds_are_one_sided(x):
    lo = sqrt_lower(x, 16)
    hi = sqrt_upper(x, 16)
    assert lo * lo <= x <= hi * hi
    assert hi - lo <= Fraction(2, 2**16) + Fraction(1, 2**15)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(nonneg, nonneg.map(lambda y: y * y), st.integers(0, 10**9).map(Fraction)),
    st.integers(0, 64),
)
def test_sqrt_lower_is_the_grid_floor(x, bits):
    step = Fraction(1, 2**bits)
    r = sqrt_lower(x, bits)
    assert r * 2**bits == int(r * 2**bits)  # a multiple of 2^-bits
    assert r * r <= x < (r + step) ** 2
    hi = sqrt_upper(x, bits)
    assert x <= hi * hi
    assert hi - r <= step


@settings(max_examples=200, deadline=None)
@given(nonneg, st.integers(1, 10**6), st.integers(0, 64))
def test_floor_sqrt(x, k, bits):
    # floor(2^bits sqrt(p) / q), also on p and q that are not coprime
    p, q = x.numerator * k, x.denominator * k
    m = floor_sqrt_div(p, q, bits)
    assert m * m * q * q <= p * 4**bits < (m + 1) * (m + 1) * q * q
    # floor(2^bits sqrt(p / q)) = floor_sqrt_div(p q, q, bits)
    m = floor_sqrt_div(p * q, q, bits)
    assert m * m <= x * 4**bits < (m + 1) * (m + 1)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10**30), st.integers(min_value=1, max_value=7))
def test_iroot_floor(value, n):
    m = iroot_floor(value, n)
    assert m**n <= value < (m + 1) ** n


@settings(max_examples=100, deadline=None)
@given(
    st.fractions(min_value=Fraction(1, 10**6), max_value=10**6, max_denominator=10**6),
    st.integers(min_value=1, max_value=6),
)
def test_nth_root_upper_is_sound(x, n):
    r = nth_root_upper(x, n, bits=32)
    assert r**n >= x
    # and not absurdly loose: (r - 2 steps)^n < x
    step = Fraction(1, 2**32)
    if r >= 2 * step:
        assert (r - 2 * step) ** n < x


@settings(max_examples=100, deadline=None)
@given(anyfrac)
def test_floor_ceil(x):
    f = floor_frac(x)
    assert f <= x < f + 1


@settings(max_examples=100, deadline=None)
@given(st.lists(anyfrac, min_size=1, max_size=6))
def test_common_denominator(fracs):
    ints, den = common_denominator_ints(fracs)
    assert all(Fraction(i, den) == f for i, f in zip(ints, fracs))


class TestScientific:
    @pytest.mark.parametrize(
        "value,expect",
        [
            (Fraction(1, 2), "5.00000e-1"),
            (Fraction(1), "1.00000e+0"),
            (Fraction(-3, 4), "-7.50000e-1"),
            (Fraction(1, 2**40), "9.09495e-13"),
        ],
    )
    def test_examples(self, value, expect):
        assert format_scientific(value) == expect

    def test_huge_exponents_no_overflow(self):
        s = format_scientific(Fraction(1, 2**5000))
        assert s.endswith("e-1506")
