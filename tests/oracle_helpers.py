"""Balancing oracles that only the tests use.

They are built from the library's handles, so every reply still passes the
handle's own re-verification.
"""

from fractions import Fraction
from typing import Callable

from balancelat.nbp import mitm_min
from balancelat.oracles import BoundedNbpOracle, NbpDeltaOracle, mitm_exact_guarantee


def mitm_bounded_oracle(k: int) -> BoundedNbpOracle:
    return BoundedNbpOracle(
        k=k,
        guarantee=mitm_exact_guarantee(k),
        solver=lambda inst: mitm_min(inst, k).x,
        name=f"exact-mitm(k={k})",
    )


def claimed_delta_oracle(
    delta: Callable[[int], Fraction], name: str = "claimed-mitm"
) -> NbpDeltaOracle:
    """Exact solver with a caller-supplied claimed guarantee.

    The claim need not be worst-case sound; it is re-verified on every call,
    which is how the paper's canonical f(n) = 2^-n oracle is represented at
    desk scale.
    """
    return NbpDeltaOracle(
        delta=delta,
        solver=lambda inst: mitm_min(inst, 1).x,
        name=name,
    )


def adversarial_delta_oracle() -> NbpDeltaOracle:
    """Claims the paper's 2^-n guarantee but just returns e_1; for failure-path tests."""
    return NbpDeltaOracle(
        delta=lambda d: Fraction(1, 2**d),
        solver=lambda inst: (1,) + (0,) * (inst.n - 1),
        name="adversarial-delta",
    )
