import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balancelat.errors import InvalidParams
from balancelat.rationals import (
    MAX_EXPONENT,
    common_denominator_ints,
    format_decimal_dyadic,
    format_rational,
    format_scientific,
    iroot_floor,
    nth_root_upper,
    parse_over_lcm,
    parse_ratio,
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
        assert parse_rational(format_decimal_dyadic(-1234567, 2**30, 30)) == x
        assert parse_rational(format_decimal_dyadic(0, 1, 4)) == 0
        # the pair need not be in lowest terms, and p/q must be a multiple of 2^-bits
        assert format_decimal_dyadic(6, 12, 1) == "0.5"
        for p, q in ((1, 8), (1, 3)):
            with pytest.raises(InvalidParams, match="not a multiple"):
                format_decimal_dyadic(p, q, 2)


def reference_rational(text):
    """The grammar before the integer reader: a cap on the exponent's digits,
    then Fraction(text.strip()); a non-string raises TypeError."""
    exp = re.search(r"[eE][-+]?(\d[\d_]*)\s*\Z", text)
    if exp is not None:
        digits = exp.group(1).replace("_", "").lstrip("0")
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits or 0) > MAX_EXPONENT:
            raise InvalidParams("exponent")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidParams("not an exact rational") from exc


def outcome(parse, text):
    try:
        return parse(text)
    except InvalidParams:
        return "refused"
    except TypeError:
        return "not a string"


def read_ratio(text):
    p, q = parse_ratio(text)
    assert type(p) is int and type(q) is int and q >= 1
    return Fraction(p, q)


def assert_same_as_reference(text):
    expected = outcome(reference_rational, text)
    assert outcome(read_ratio, text) == expected
    assert outcome(parse_rational, text) == expected


DIFFERENTIAL = [
    # signs
    "1", "+1", "-1", "+-1", "-+1", "--1", "- 1", "-0", "+0.0",
    # decimal points and exponents
    ".5", "5.", "-.5", "+5.", ".", "-.", "1E-3", "1e+3", "-2.5e-2", "2.5E2", ".5e1", "5.e1",
    "1e", "e5", "1e+", "1.5e-0", "0e0",
    # underscores: single separators between digits only
    "1_000", "1__0", "_1", "1_", "1_000.000_1", "1._5", "1.5_", "1e1_0", "1e_1", "1/1_0",
    "1_0/3", "1/_3",
    # fractions
    "1/2", "-3/7", "2/4", "+6/8", "1/0", "0/0", "-1/0_0", "1/2/3", "1.5/2", "1/2e3", "1/-2",
    # Unicode digits and what is not a decimal digit
    "\u0661\u0662", "\u0661/\u0662", "\u06f5.\u06f5", "\uff11\uff12", "\u00bd", "\u00b2",
    # surrounding whitespace, and whitespace inside
    " 1/3 ", "\t0.5\n", "\u20031\u2003", "1 /3", "1/ 3", "1 . 5", "1 e5", "", " ", "\n",
    # not numbers
    "inf", "nan", "0x10", "one half", "1.d", "1,5",
    # exponents at and past the cap, and zero-padded ones
    "1e10000", "1e10001", "1e-10000", "1e-10001", "-7.5E+1_000_000", "1e0_000_1",
    "1e" + "0" * 50 + "1", "1e" + "0" * 5000 + "1", "1e" + "9" * 5000,
    # digit runs past CPython's int() limit, and long runs under it in each part
    "1" * 5000, "0." + "1" * 5000, "1/" + "1" * 5000, "1" * 4000 + "." + "1" * 4000,
    # non-strings
    1, 1.5, True, None, [1], Fraction(1, 2),
]


@pytest.mark.parametrize("text", DIFFERENTIAL, ids=range(len(DIFFERENTIAL)))
def test_reader_matches_the_fraction_grammar(text):
    assert_same_as_reference(text)


digit_runs = st.text("0123456789_\u0661", min_size=0, max_size=6)


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.text("0123456789_./eE+- \t\u0661", max_size=12),
    st.builds(lambda *parts: "".join(parts),
              st.sampled_from(["", " ", "+", "-", "+-"]), digit_runs,
              st.sampled_from(["", "/", ".", "e", "E-", ".", "/"]), digit_runs,
              st.sampled_from(["", "e", "e+", "E-", " "]), st.text("0123_", max_size=6),
              st.sampled_from(["", " ", "\n"])),
))
def test_reader_matches_the_fraction_grammar_on_random_strings(text):
    assert_same_as_reference(text)


def test_reader_keeps_the_pair_unreduced():
    assert parse_ratio("2/4") == (2, 4)
    assert parse_ratio("-0.50") == (-50, 100)
    assert parse_ratio("1.5e-2") == (15, 1000)
    assert parse_ratio("1.5e2") == (1500, 10)


def test_rows_over_the_lcm():
    # "0.25" is read as 25/100, so the lcm is over 2, 100, 3 and 1
    rows, den = parse_over_lcm([["1/2", "0.25"], ["-1/3", "2"]])
    assert den == 300 and rows == [[150, 75], [-100, 600]]
    assert parse_over_lcm([]) == ([], 1)


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


def test_sqrt_of_a_negative_rational_is_refused():
    with pytest.raises(InvalidParams, match="sqrt of a negative rational"):
        sqrt_lower(Fraction(-1, 3), 8)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10**30), st.integers(min_value=1, max_value=7))
def test_iroot_floor(value, n):
    m = iroot_floor(value, n)
    assert m**n <= value < (m + 1) ** n


@pytest.mark.parametrize("n", [2, 3, 7])
@pytest.mark.parametrize("value", [0, 1])
def test_iroot_floor_of_zero_and_one(value, n):
    assert iroot_floor(value, n) == value


@pytest.mark.parametrize("value", [0, 1, 2, 10**30 + 7])
def test_iroot_floor_first_root_is_the_value(value):
    assert iroot_floor(value, 1) == value


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
