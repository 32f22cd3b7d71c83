"""Reply checks of the four oracle handles, driven by stub solvers.

Each stub returns one fixed reply that breaks exactly one clause of the
contract, so no other clause can catch it: the handle must refuse the reply
with OracleContractViolation and name the oracle in the message.
"""

import random
from fractions import Fraction

import pytest

from balancelat.errors import OracleContractViolation
from balancelat.generators import gen_nbp
from balancelat.lattice import LatticeBasis
from balancelat.linalg import RMatrix, RVector
from balancelat.nbp import NbpInstance, NbpSolution
from balancelat.oracles import BoundedNbpOracle, MinkowskiOracle, NbpDeltaOracle, SvpInfOracle
from balancelat.reduce_to_nbp import balancing_body, minkowski_bound, minkowski_bounded_oracle
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
    # every clause is <=: coefficients at k, error equal to the bound, max norm rho;
    # the balancing and Minkowski handles return the solution they checked
    assert bounded((2, -2, 0)).solve(INST) == NbpSolution((2, -2, 0), 2, Fraction(0))
    assert bounded((0, 0, -1)).solve(INST) == NbpSolution((0, 0, -1), 2, BOUND)
    assert delta((1, -1, 0)).solve(INST) == NbpSolution((1, -1, 0), 1, Fraction(0))
    assert delta((0, 0, 1)).solve(INST) == NbpSolution((0, 0, 1), 1, BOUND)
    assert svp((2, -2)).find(EVEN_LATTICE) == (1, -1)
    # the 2-dilated UNIT_CUBE has box limit 2 and slab bound 4 on a = (1, 1)
    assert minkowski((2, -2)).find(UNIT_CUBE) == NbpSolution((2, -2), 2, Fraction(0))
    assert minkowski((2, 2)).find(UNIT_CUBE) == NbpSolution((2, 2), 2, Fraction(4))


def test_integer_and_integral_fraction_replies_are_accepted_as_ints():
    for reply in ((1, -1, 0), (Fraction(1), Fraction(-1), Fraction(0))):
        for x in (halves_delta_call(reply).x, halves_minkowski_call(reply).x,
                  bounded(reply).solve(HALVES).x):
            assert x == (1, -1, 0) and all(type(v) is int for v in x)


def checked_or_refused(call):
    """The handle's checked solution, or None when it refuses the reply."""
    try:
        return call()
    except OracleContractViolation:
        return None


@pytest.mark.parametrize("rho", [Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 7)],
                         ids=str)
def test_minkowski_handle_check_is_the_bounded_check(rho):
    """balancing_body(inst, k, rho).dilate(rho) has box limit k and slab bound
    minkowski_bound(n, k, rho), so MinkowskiOracle.find on the body and
    minkowski_bounded_oracle's solve on the instance accept the same replies
    and return equal solutions: the bounded route needs one check per reply.
    On an integer reply of the right length, acceptance is membership in the
    dilated body."""
    rng = random.Random(29)
    minkowski_replies = [v[3] for v in VIOLATIONS if v[1] == "stub-minkowski"]
    for n in range(1, 7):
        for k in range(1, 5):
            bound = minkowski_bound(n, k, rho)
            insts = [gen_nbp(n, seed=100 * n + 10 * k + i, precision_bits=30, signed=bool(i))
                     for i in range(2)]
            if bound <= k:  # a_1 = bound / k puts (k, 0, ..., 0) at the bound
                insts.append(NbpInstance.from_values([bound / k] + [0] * (n - 1)))
            for inst in insts:
                body = balancing_body(inst, k, rho)
                dilated = body.dilate(rho)
                assert (dilated.int_box_limit(), dilated.slab_bound) == (k, bound)
                replies = minkowski_replies + [(k,) + (0,) * (n - 1),
                                               tuple(rng.choice((-k, k)) for _ in range(n))]
                replies += [tuple(rng.randint(-k - 1, k + 1) for _ in range(n))
                            for _ in range(20)]
                reply = None  # the stub answers the loop's current reply
                oracle = MinkowskiOracle(rho, lambda b: reply, "stub-minkowski")
                handle = minkowski_bounded_oracle(k, oracle)
                for reply in replies:
                    found = checked_or_refused(lambda: oracle.find(body))
                    solved = checked_or_refused(lambda: handle.solve(inst))
                    assert found == solved, (n, k, reply)
                    if len(reply) == n and all(type(v) is int for v in reply) and any(reply):
                        assert (found is not None) == dilated.contains(reply), (n, k, reply)
                    if found is not None:
                        assert found.x == reply and found.error <= bound
