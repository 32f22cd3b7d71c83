"""Seeded generation of balancing instances, lattice bases, and ellipsoids."""

from __future__ import annotations

from fractions import Fraction

from .errors import InvalidParams, RankDeficient
from .geometry import Ellipsoid
from .lattice import LatticeBasis
from .linalg import RMatrix
from .nbp import NbpInstance
from .rng import SeededStream


def gen_nbp(
    n: int, seed: int, precision_bits: int = 30, signed: bool = False
) -> NbpInstance:
    """Uniform dyadic entries: [0,1] by default, [-1,1] with signed=True."""
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


def gen_basis(n: int, seed: int, span: int = 99) -> LatticeBasis:
    """Random integer basis, resampled deterministically until full rank."""
    if n < 1:
        raise InvalidParams("n must be >= 1")
    if span < 1:
        raise InvalidParams("span must be >= 1")
    stream = SeededStream(seed)
    while True:
        rows = [[stream.next_int(-span, span) for _ in range(n)] for _ in range(n)]
        try:
            return LatticeBasis(RMatrix(rows))
        except RankDeficient:
            pass


def _random_rotation(stream: SeededStream, n: int) -> RMatrix:
    """Exactly orthogonal rational matrix from two sweeps of circle-point Givens rotations."""
    rows = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for _ in range(2):
        for p in range(n):
            for q in range(p + 1, n):
                u = Fraction(stream.next_int(-128, 128), 256)
                c = (1 - u * u) / (1 + u * u)
                s = 2 * u / (1 + u * u)
                for i in range(n):
                    vp, vq = rows[i][p], rows[i][q]
                    rows[i][p] = c * vp - s * vq
                    rows[i][q] = s * vp + c * vq
    return RMatrix(rows)


def gen_ellipsoid(n: int, seed: int) -> Ellipsoid:
    """Random rational ellipsoid with |det A| <= 1 by construction.

    Axis lengths are multiples of 2^-9 in [1/2, 3/2) except the last, which
    is bumped to a dyadic upper bound of the reciprocal of the rest; the axes
    come from an exactly orthogonal rational rotation, so |det A| =
    1 / prod(lengths) exactly.
    """
    if n < 1:
        raise InvalidParams("n must be >= 1")
    stream = SeededStream(seed)
    scale = 1 << 8
    lengths = []
    for _ in range(n - 1):
        lengths.append(Fraction(scale + stream.next_bits(9), 2 * scale))
    product = Fraction(1)
    for l in lengths:
        product *= l
    # smallest dyadic >= 1/product, so the volume hypothesis holds exactly
    inv = 1 / product
    last = Fraction(-((-inv.numerator * scale) // inv.denominator), scale)
    lengths.append(last)
    lengths.sort()
    rotation = _random_rotation(stream, n)
    axes = [rotation.column(i) for i in range(n)]
    return Ellipsoid.from_axes(axes, lengths)
