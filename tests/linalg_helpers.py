"""Test-side Fraction references for vectors and matrices.

The library evaluates points, forms and transforms on integer tuples and
integer rows; the Fraction vector arithmetic below is what the tests still
check against.  ``discretized`` rebuilds the truncated, scaled vectors a~_i
of a ``MultiBalanceResult`` from its integer multiples.
"""

from fractions import Fraction

from balancelat.linalg import RMatrix, RVector


def add(u: RVector, v: RVector) -> RVector:
    assert u.dim == v.dim
    return RVector(a + b for a, b in zip(u, v))


def sub(u: RVector, v: RVector) -> RVector:
    assert u.dim == v.dim
    return RVector(a - b for a, b in zip(u, v))


def scale(v: RVector, c) -> RVector:
    return RVector(Fraction(c) * a for a in v)


def unit(n: int, i: int) -> RVector:
    return RVector(int(j == i) for j in range(n))


def norm_sq(v) -> Fraction:
    """|v|_2^2 of an RVector or an integer tuple, in Fractions."""
    return sum((Fraction(a) ** 2 for a in v), Fraction(0))


def scale_matrix(m: RMatrix, c) -> RMatrix:
    """c m, entry by entry on the Fraction view."""
    return RMatrix([[Fraction(c) * e for e in r] for r in m.rows])


def discretized_vectors(result) -> list[RVector]:
    """The truncated, scaled vectors a~_i = scales[i] * multiples[i]."""
    return [RVector(s * e for e in m) for m, s in zip(result.multiples, result.scales)]


def integer_points(rng, n: int, count: int):
    """The origin, one point with coordinates near 2^40..2^90, then count small points."""
    yield (0,) * n
    yield tuple(rng.choice((-1, 1)) * rng.randint(2**40, 2**90) for _ in range(n))
    for _ in range(count):
        yield tuple(rng.randint(-50, 50) for _ in range(n))
