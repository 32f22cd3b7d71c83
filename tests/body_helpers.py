"""Test-side references for the cube-slab body.

``slab_member`` is the body's membership test over exact Fractions, against
which the library's integer test ``contains`` and the pruned Minkowski
search are checked.  ``open_cube`` builds a plain cube as a cube-slab body.
``count_builds`` records the tail tables the cube-slab walk builds.
"""

import math
from fractions import Fraction

from balancelat import geometry
from balancelat.geometry import CubeSlabBody
from balancelat.linalg import RVector
from balancelat.nbp import NbpInstance
from linalg_helpers import entries


def slab_member(body, x):
    """x lies in the open box (-r, r)^n and |<a, x>| <= the slab bound, in Fractions."""
    x = RVector(x)
    return (all(abs(e) < body.box_radius for e in x)
            and abs(entries(body.inst).dot(x)) <= body.slab_bound)


def open_cube(n, radius):
    """The open cube (-radius, radius)^n as a cube-slab body.

    It is built on the all-ones instance with slab bound n * m, for the box's
    integer limit m; no point of the box exceeds that bound, so the slab
    never cuts.
    """
    radius = Fraction(radius)
    return CubeSlabBody(NbpInstance.from_values([1] * n), n * (math.ceil(radius) - 1), radius)


def count_builds(monkeypatch):
    """The walk's tail-table builds from here on, as (t, sums) per ``_sorted_half`` call."""
    builds = []
    original = geometry._sorted_half

    def counted(ints, k, b):
        table = original(ints, k, b)
        builds.append((len(ints), len(table)))
        return table

    monkeypatch.setattr(geometry, "_sorted_half", counted)
    return builds
