"""Seeded generation of balancing instances, lattice bases, and ellipsoids.

Bases and ellipsoids are built on integers.  An ellipsoid's axes come from a
rotation R / D kept as integer rows R over one denominator D: each Givens
step is an exact integer rotation over a Pythagorean triple, and the result
is checked as R^T R = D^2 I before A is assembled over one common
denominator.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul

from .errors import InternalContradiction, InvalidParams, RankDeficient
from .lattice import LatticeBasis
from .linalg import RMatrix
from .nbp import NbpInstance
from .rng import SeededStream


def gen_nbp(n: int, seed: int, precision_bits: int, signed: bool) -> NbpInstance:
    """Uniform dyadic entries in [0,1], or in [-1,1] when signed."""
    if n < 1:
        raise InvalidParams("n must be >= 1")
    if precision_bits < 1:
        raise InvalidParams("precision_bits must be >= 1")
    stream = SeededStream(seed)
    scale = 1 << precision_bits
    values = []
    for _ in range(n):
        u = Fraction(stream.next_bits(precision_bits), scale)
        values.append(2 * u - 1 if signed else u)
    return NbpInstance.from_values(values)


def gen_basis(n: int, seed: int, span: int) -> LatticeBasis:
    """Random integer basis, resampled deterministically until full rank."""
    if n < 1:
        raise InvalidParams("n must be >= 1")
    if span < 1:
        raise InvalidParams("span must be >= 1")
    stream = SeededStream(seed)
    while True:
        rows = [[stream.next_int(-span, span) for _ in range(n)] for _ in range(n)]
        try:
            return LatticeBasis(RMatrix.from_ints(rows))
        except RankDeficient:
            pass


def _random_rotation(stream: SeededStream, n: int) -> tuple[list[list[int]], int]:
    """Integer rows R over a denominator D with R / D exactly orthogonal.

    Two sweeps of circle-point Givens rotations: the step with u = k/256 on
    columns p < q is (1/g) [[a, -b], [b, a]] with a = 2^16 - k^2, b = 2^9 k
    and g = 2^16 + k^2, all divided by gcd(a, b).  Since a^2 + b^2 = g^2 the
    step is exact on integers: columns p and q become a and b combinations,
    the others are multiplied by g, and D is the product of the g's.
    """
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    den = 1
    for _ in range(2):
        for p in range(n):
            for q in range(p + 1, n):
                k = stream.next_int(-128, 128)
                a, b = 65536 - k * k, 512 * k
                h = gcd(a, b)
                a, b, g = a // h, b // h, (65536 + k * k) // h
                if g == 1:  # k = 0: the identity
                    continue
                den *= g
                for row in rows:
                    vp, vq = row[p], row[q]
                    row[:] = [g * e for e in row]  # the columns besides p and q, over D g
                    row[p] = a * vp - b * vq
                    row[q] = b * vp + a * vq
    return rows, den


def _check_orthogonal(rows: list[list[int]], den: int) -> None:
    """Refuses (InternalContradiction) unless R^T R = D^2 I exactly."""
    cols = list(zip(*rows))
    den_sq = den * den
    for i, ci in enumerate(cols):
        for j in range(i, len(cols)):
            if sum(map(mul, ci, cols[j])) != (den_sq if i == j else 0):
                raise InternalContradiction("the Givens rotation is not exactly orthogonal")


def gen_ellipsoid(n: int, seed: int) -> LatticeBasis:
    """Random rational ellipsoid with |det A| <= 1 by construction.

    Axis lengths are multiples of 2^-9 in [1/2, 3/2) except the last, which
    is bumped to a dyadic upper bound of the reciprocal of the rest; the axes
    are the columns of an exactly orthogonal rotation R / D (checked as
    R^T R = D^2 I on integers), so |det A| = 1 / prod(lengths) exactly.
    Row i of A = diag(1/lambda) (R / D)^T is R's column i over D lambda_i,
    built on integers over one common denominator.
    """
    if n < 1:
        raise InvalidParams("n must be >= 1")
    stream = SeededStream(seed)
    scale = 1 << 8
    lengths = []
    for _ in range(n - 1):
        lengths.append(Fraction(scale + stream.next_bits(9), 2 * scale))
    # smallest dyadic >= 1/prod, so the volume hypothesis holds exactly; at
    # n = 1 the product is empty and start keeps it a Fraction
    inv = 1 / prod(lengths, start=Fraction(1))
    last = Fraction(-((-inv.numerator * scale) // inv.denominator), scale)
    lengths.append(last)
    lengths.sort()
    rotation, den = _random_rotation(stream, n)
    _check_orthogonal(rotation, den)
    # column i of R / (D p_i / q_i) over the common denominator D lcm(p)
    nums = lcm(*(l.numerator for l in lengths))
    rows = [
        [e * (l.denominator * (nums // l.numerator)) for e in col]
        for col, l in zip(zip(*rotation), lengths)
    ]
    return LatticeBasis(RMatrix.from_ints(rows, den * nums))
