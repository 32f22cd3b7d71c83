"""Reply checks of the four oracle handles, driven by stub solvers.

Each stub returns one fixed reply that breaks exactly one clause of the
contract, so no other clause can catch it: the handle must refuse the reply
with OracleContractViolation and name the oracle in the message.
"""

from fractions import Fraction

import pytest

from balancelat.errors import OracleContractViolation
from balancelat.lattice import LatticeBasis
from balancelat.linalg import RMatrix, RVector
from balancelat.nbp import NbpInstance
from balancelat.oracles import BoundedNbpOracle, MinkowskiOracle, NbpDeltaOracle, SvpInfOracle
from balancelat.reduce_to_nbp import balancing_body
from body_helpers import open_cube
from linalg_helpers import diagonal

INST = NbpInstance.from_values([Fraction(1, 2), Fraction(1, 2), Fraction(1, 3)])
BOUND = Fraction(1, 3)  # claimed for every dimension
EVEN_LATTICE = LatticeBasis(diagonal([2, 2]))  # 2Z^2, det 4
UNIT_CUBE = open_cube(2, Fraction(3, 2))  # [-1, 1]^2; its 2-dilation holds [-2, 2]^2
# a = (1/2, 1/2, 1/5), k = 1, rho = 1: (1, -1, 0) balances a exactly and lies in the body
HALVES = NbpInstance.from_values([Fraction(1, 2), Fraction(1, 2), Fraction(1, 5)])
HALVES_BODY = balancing_body(HALVES, 1, 1)


def bounded(reply):
    return BoundedNbpOracle(k=2, guarantee=lambda d: BOUND, solver=lambda inst: reply,
                            name="stub-bounded")


def delta(reply):
    return NbpDeltaOracle(delta=lambda d: BOUND, solver=lambda inst: reply, name="stub-delta")


def svp(reply):
    return SvpInfOracle(rho=Fraction(2), solver=lambda basis: RVector(reply), name="stub-svp")


def minkowski(reply, rho=2):
    return MinkowskiOracle(rho=Fraction(rho), solver=lambda body: reply, name="stub-minkowski")


def nbp_call(make):
    return lambda reply: make(reply).solve(INST)


def svp_call(reply):
    return svp(reply).find(EVEN_LATTICE)


def minkowski_call(reply):
    return minkowski(reply).find(UNIT_CUBE)


def halves_delta_call(reply):
    return delta(reply).solve(HALVES)


def halves_minkowski_call(reply):
    return minkowski(reply, rho=1).find(HALVES_BODY)


# (case id, oracle name, call on a stubbed reply, refused reply)
VIOLATIONS = [
    ("bounded-wrong-length", "stub-bounded", nbp_call(bounded), (1, -1)),
    ("bounded-zero", "stub-bounded", nbp_call(bounded), (0, 0, 0)),
    ("bounded-coefficient-above-k", "stub-bounded", nbp_call(bounded), (3, -3, 0)),
    ("bounded-error-above-bound", "stub-bounded", nbp_call(bounded), (1, 0, 1)),
    ("delta-wrong-length", "stub-delta", nbp_call(delta), (1, -1, 0, 0)),
    ("delta-zero", "stub-delta", nbp_call(delta), (0, 0, 0)),
    ("delta-coefficient-above-1", "stub-delta", nbp_call(delta), (2, -2, 0)),
    ("delta-error-above-bound", "stub-delta", nbp_call(delta), (1, 0, 0)),
    ("svp-wrong-length", "stub-svp", svp_call, (2, -2, 0)),
    ("svp-not-a-lattice-point", "stub-svp", svp_call, (1, 0)),
    ("svp-zero", "stub-svp", svp_call, (0, 0)),
    ("svp-max-norm-above-rho", "stub-svp", svp_call, (4, 2)),
    ("minkowski-wrong-length", "stub-minkowski", minkowski_call, (2, -2, 0)),
    ("minkowski-zero", "stub-minkowski", minkowski_call, (0, 0)),
    ("minkowski-outside-dilated-body", "stub-minkowski", minkowski_call, (3, -1)),
    # replies that int() truncates to (1, -1, 0), which is accepted
    ("delta-non-integer", "stub-delta", halves_delta_call, (1.7, -1.2, 0)),
    ("minkowski-non-integer", "stub-minkowski", halves_minkowski_call,
     (Fraction(3, 2), Fraction(-3, 2), 0.9)),
    # replies on which int() itself fails: ValueError, OverflowError, TypeError
    ("delta-nan", "stub-delta", halves_delta_call, (float("nan"), -1, 0)),
    ("minkowski-inf", "stub-minkowski", halves_minkowski_call, (1, float("inf"), 0)),
    ("bounded-minus-inf", "stub-bounded", nbp_call(bounded), (float("-inf"), -1, 0)),
    ("delta-none", "stub-delta", halves_delta_call, (1, None, 0)),
    ("minkowski-half", "stub-minkowski", halves_minkowski_call, (Fraction(1, 2), -1, 0)),
]


@pytest.mark.parametrize("name, call, reply", [v[1:] for v in VIOLATIONS],
                         ids=[v[0] for v in VIOLATIONS])
def test_reply_violation_names_the_oracle(name, call, reply):
    with pytest.raises(OracleContractViolation) as info:
        call(reply)
    assert str(info.value).startswith(f"{name}: ")


def test_replies_at_the_limits_are_accepted():
    # every clause is <=: coefficients at k, error equal to the bound, max norm rho
    assert bounded((2, -2, 0)).solve(INST) == (2, -2, 0)
    assert bounded((0, 0, -1)).solve(INST) == (0, 0, -1)
    assert delta((1, -1, 0)).solve(INST) == (1, -1, 0)
    assert delta((0, 0, 1)).solve(INST) == (0, 0, 1)
    assert svp((2, -2)).find(EVEN_LATTICE) == (RVector([2, -2]), (1, -1))
    assert minkowski((2, -2)).find(UNIT_CUBE) == (2, -2)


def test_integer_and_integral_fraction_replies_are_accepted_as_ints():
    for reply in ((1, -1, 0), (Fraction(1), Fraction(-1), Fraction(0))):
        for x in (halves_delta_call(reply), halves_minkowski_call(reply),
                  bounded(reply).solve(HALVES)):
            assert x == (1, -1, 0) and all(type(v) is int for v in x)
