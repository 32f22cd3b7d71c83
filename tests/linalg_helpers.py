"""Test-side Fraction references for vectors and matrices.

The library evaluates points, forms and transforms on integer tuples and
integer rows; the Fraction vector arithmetic below is what the tests still
check against, and ``diagonal``, ``from_columns`` and ``transpose`` build
the matrices they feed it.  ``entries`` reads an instance's integers over
their denominator back as Fractions, and ``discretized`` builds the
truncated, scaled vectors a~_i of multi-vector balancing from its inputs.
``fraction_rotation`` and ``reference_gen_ellipsoid`` are gen_ellipsoid's
construction in Fractions, the reference its integer rotation must equal.
"""

from fractions import Fraction

from balancelat.geometry import ellipsoid_from_axes
from balancelat.lattice import LatticeBasis
from balancelat.linalg import RMatrix, RVector
from balancelat.rng import SeededStream


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


def diagonal(values) -> RMatrix:
    """The square matrix with the given diagonal."""
    n = len(values)
    return RMatrix([[values[i] if i == j else 0 for j in range(n)] for i in range(n)])


def from_columns(cols) -> RMatrix:
    """The matrix whose columns are the given vectors, of one dimension."""
    assert len({len(c) for c in cols}) <= 1
    return RMatrix(zip(*cols))


def transpose(m: RMatrix) -> RMatrix:
    return RMatrix(zip(*m.rows))


def entries(inst) -> RVector:
    """The entries ints[i] / den of an NbpInstance as exact Fractions."""
    return RVector(Fraction(p, inst.den) for p in inst.ints)


def _truncate(value: Fraction, grid: Fraction) -> Fraction:
    """value rounded toward zero to a multiple of grid."""
    q = abs(value) / grid
    out = (q.numerator // q.denominator) * grid
    return -out if value < 0 else out


def discretized(vectors, deltas) -> list[RVector]:
    """a~_i = prod_{j<i} delta_j * a_i truncated to the grid 2 n delta_i."""
    n = vectors[0].dim
    out, prefix = [], Fraction(1)
    for v, d in zip(vectors, deltas):
        out.append(RVector([prefix * _truncate(e, 2 * n * d) for e in v]))
        prefix *= d
    return out


def integer_points(rng, n: int, count: int):
    """The origin, one point with coordinates near 2^40..2^90, then count small points."""
    yield (0,) * n
    yield tuple(rng.choice((-1, 1)) * rng.randint(2**40, 2**90) for _ in range(n))
    for _ in range(count):
        yield tuple(rng.randint(-50, 50) for _ in range(n))


def fraction_rotation(stream: SeededStream, n: int) -> RMatrix:
    """The Fraction form of gen_ellipsoid's rotation: the same two sweeps of
    circle-point Givens steps, c = (1 - u^2)/(1 + u^2) and s = 2u/(1 + u^2)
    for u = k/256, on Fraction rows."""
    rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(2):
        for p in range(n):
            for q in range(p + 1, n):
                u = Fraction(stream.next_int(-128, 128), 256)
                c = (1 - u * u) / (1 + u * u)
                s = 2 * u / (1 + u * u)
                for row in rows:
                    vp, vq = row[p], row[q]
                    row[p] = c * vp - s * vq
                    row[q] = s * vp + c * vq
    return RMatrix(rows)


def reference_gen_ellipsoid(n: int, seed: int) -> LatticeBasis:
    """gen_ellipsoid in Fractions: the same draws, the rotation's columns as
    axes, and ellipsoid_from_axes with its 2^-20 orthonormality check."""
    stream = SeededStream(seed)
    lengths = [Fraction(256 + stream.next_bits(9), 512) for _ in range(n - 1)]
    product = Fraction(1)
    for l in lengths:
        product *= l
    inv = 1 / product
    lengths.append(Fraction(-((-inv.numerator * 256) // inv.denominator), 256))
    lengths.sort()
    rot = fraction_rotation(stream, n)
    return ellipsoid_from_axes([rot.column(i) for i in range(n)], lengths)
