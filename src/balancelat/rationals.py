"""Exact rational scalar helpers.

The scalar type of the whole package is ``fractions.Fraction``: arbitrary
precision, always normalized (positive denominator, gcd 1).  This module adds
the parsing/formatting conventions used in the JSON interfaces and the
certified square/n-th root approximations needed when a bound like 2^(-3n/2)
or f(m)^(1/n) is irrational.  Every approximation here is one-sided, so a
comparison done with it stays a sound inequality over the rationals.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import isqrt, lcm

from .errors import InvalidParams

MAX_EXPONENT = 10_000  # decimal exponents allowed in parsed rationals
# CPython's Fraction string grammar: sign, digits with single "_" separators,
# then "/q", or a decimal part and an exponent; blanks around it.
_DIGITS = r"\d+(?:_\d+)*"
_RATIONAL = re.compile(
    rf"\s*([-+]?)(?=\d|\.\d)(\d*|{_DIGITS})"
    rf"(?:/({_DIGITS})|(?:\.(\d*|{_DIGITS}))?(?:[eE]([-+]?{_DIGITS}))?)\s*"
)


def frac(value) -> Fraction:
    """Coerce an int or a Fraction to a Fraction; strings are read by parse_ratio."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise InvalidParams(f"cannot interpret {value!r} as an exact rational")


def parse_ratio(text: str) -> tuple[int, int]:
    """Parse "p/q", integer, or exact decimal strings ("0.125", "-3.5e-2")
    into an integer pair (p, q), q >= 1, not reduced; the grammar is
    Fraction's.  A non-string raises TypeError.

    Exponents beyond +-MAX_EXPONENT are refused before any 10**exp is
    computed, and q = 0 or a digit run past CPython's int() limit raises
    InvalidParams.
    """
    m = _RATIONAL.fullmatch(text)
    if m is None:
        raise InvalidParams(f"not an exact rational: {text!r}")
    sign, num, den, dec, exp = m.groups()
    if exp:
        digits = exp.lstrip("+-").replace("_", "").lstrip("0")
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits or 0) > MAX_EXPONENT:
            raise InvalidParams(f"exponent of {text[:40]!r} exceeds {MAX_EXPONENT} in magnitude")
    try:
        p, q = int(num or "0"), 1
        if den:
            q = int(den)
        if dec:
            dec = dec.replace("_", "")
            q = 10 ** len(dec)
            p = p * q + int(dec)
        if exp:
            e = int(exp)
            if e >= 0:
                p *= 10**e
            else:
                q *= 10**-e
    except ValueError as exc:  # a digit run past CPython's int() limit
        raise InvalidParams(f"not an exact rational: {text!r}") from exc
    if q == 0:
        raise InvalidParams(f"not an exact rational: {text!r}")
    return (-p if sign == "-" else p), q


def parse_rational(text: str) -> Fraction:
    """The Fraction of an entry string; see parse_ratio."""
    return Fraction(*parse_ratio(text))


def parse_over_lcm(rows) -> tuple[list[list[int]], int]:
    """Rows of entry strings as integer rows over the lcm of every denominator (not reduced)."""
    pairs = [[parse_ratio(t) for t in row] for row in rows]
    den = lcm(*(q for row in pairs for _, q in row))
    return [[p * (den // q) for p, q in row] for row in pairs], den


def format_rational(x: Fraction) -> str:
    """Canonical string: "p/q", or just "p" when the denominator is 1."""
    try:
        return str(Fraction(x))
    except ValueError as exc:  # past CPython's int-to-str limit, which parsing shares
        raise InvalidParams("a rational has too many decimal digits to be written") from exc


def format_decimal_dyadic(p: int, q: int, bits: int) -> str:
    """Exact decimal string, with bits digits after the point, of p/q = m/2^bits.

    Dyadic rationals always terminate in decimal, so this loses nothing.
    """
    if (p << bits) % q:
        raise InvalidParams(f"{p}/{q} is not a multiple of 2^-{bits}")
    scaled = p * 10**bits // q
    sign = "-" if scaled < 0 else ""
    digits = format_rational(Fraction(abs(scaled))).rjust(bits + 1, "0")
    if bits == 0:
        return sign + digits
    return f"{sign}{digits[:-bits]}.{digits[-bits:]}"


def format_scientific(x: Fraction) -> str:
    """Display-only scientific notation to 6 significant digits; never fed back into computation."""
    if x == 0:
        return "0.0e+0"
    num, den = abs(x.numerator), x.denominator
    # exponent = floor(log10 |x|), found from digit counts then corrected
    exp = len(str(num)) - len(str(den))
    while num * 10**max(0, -exp) < den * 10**max(0, exp):
        exp -= 1
    while num * 10**max(0, -(exp + 1)) >= den * 10**max(0, exp + 1):
        exp += 1
    mant = Fraction(num, den) / Fraction(10) ** exp
    mant_scaled = round(mant * 10**5)
    if mant_scaled >= 10**6:  # rounding bumped the mantissa past 10
        mant_scaled //= 10
        exp += 1
    digits = str(mant_scaled)
    body = f"{digits[0]}.{digits[1:].ljust(5, '0')}"
    sign = "-" if x < 0 else ""
    return f"{sign}{body}e{exp:+d}"


def iroot_floor(value: int, n: int) -> int:
    """Largest integer m with m**n <= value (value >= 0, n >= 1)."""
    if value < 0 or n < 1:
        raise InvalidParams("iroot_floor needs value >= 0 and n >= 1")
    if value in (0, 1) or n == 1:
        return value
    hi = 1 << (value.bit_length() // n + 1)
    lo = 0
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if mid**n <= value:
            lo = mid
        else:
            hi = mid
    return lo


def sqrt_lower(x: Fraction, bits: int) -> Fraction:
    """Dyadic r <= sqrt(x) with sqrt(x) - r <= 2^-bits."""
    p, q = x.numerator, x.denominator
    if p < 0:
        raise InvalidParams("sqrt of a negative rational")
    # sqrt(p/q) = sqrt(p q) / q, and floor(floor(y) / q) = floor(y / q) for an integer q >= 1
    return Fraction(isqrt(p * q << (2 * bits)) // q, 1 << bits)


def sqrt_upper(x: Fraction, bits: int) -> Fraction:
    """Dyadic r >= sqrt(x) with r - sqrt(x) <= 2^-bits."""
    r = sqrt_lower(x, bits)
    step = Fraction(1, 1 << bits)
    while r * r < x:
        r += step
    return r


def nth_root_upper(x: Fraction, n: int, bits: int) -> Fraction:
    """Dyadic r >= x^(1/n) with r - x^(1/n) <= 2^-bits (x >= 0)."""
    if x < 0:
        raise InvalidParams("nth_root_upper of a negative rational")
    if x == 0:
        return Fraction(0)
    scale = 1 << bits
    m = iroot_floor(x.numerator * scale**n // x.denominator, n)
    r = Fraction(m, scale)
    while r**n < x:
        r += Fraction(1, scale)
    return r


def common_denominator_ints(fracs) -> tuple[list[int], int]:
    """Scale a list of Fractions to integers over one common denominator."""
    fracs = list(fracs)
    den = lcm(*(f.denominator for f in fracs))
    return [f.numerator * (den // f.denominator) for f in fracs], den
