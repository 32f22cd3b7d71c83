"""Oracle handles and their standard realizations.

Each handle carries its claimed guarantee parameters, and every call is
re-verified against the claim with exact arithmetic: a reply with an entry
that is not an integer, or one that breaks the claim, raises
OracleContractViolation rather than silently degrading downstream bounds.
A Minkowski oracle is asked about one kind of body, the cube-slab body of
the balancing reduction.  The factories wire the exact enumeration oracles
from the geometry and lattice modules, the LLL-approximate SVP oracle, and
an adversarial Minkowski oracle that the CLI's ``bench --adversarial`` runs
to show the failure path.

The two balancing handles share one reply check (a sign-vector oracle is
the k = 1 case of the bounded one).  The four handle types still stay
separate classes, each with its own ``find``/``solve``, because the
benchmark's tracer wraps those four methods by name; merging them waits
until the library owns its work counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .errors import OracleContractViolation, PreconditionFailed
from .geometry import CubeSlabBody, minkowski_exact_oracle
from .lattice import LatticeBasis, lattice_membership, lll_reduce, svp_exact_linf
from .linalg import RVector
from .nbp import NbpInstance, instance_inner, karmarkar_karp, mitm_min, pigeonhole_solve


def _integer_reply(name: str, reply: Sequence) -> tuple[int, ...]:
    """An oracle's reply as ints; a reply with an entry that is not an
    integer (NaN, an infinity and None included) raises
    OracleContractViolation naming the oracle."""
    reply = tuple(reply)
    try:
        x = tuple(int(v) for v in reply)
    except (TypeError, ValueError, OverflowError):
        x = None
    if x != reply:
        raise OracleContractViolation(f"{name}: reply entries must be integers")
    return x


@dataclass
class MinkowskiOracle:
    """rho-approximate Minkowski oracle: finds points of (rho K) cap Z^n \\ {0}."""

    rho: Fraction
    solver: Callable[[CubeSlabBody], Sequence[int]]
    name: str = "minkowski"

    def find(self, body: CubeSlabBody) -> tuple[int, ...]:
        x = _integer_reply(self.name, self.solver(body))
        if len(x) != body.dim:
            raise OracleContractViolation(f"{self.name}: dimension mismatch")
        if not any(x):
            raise OracleContractViolation(f"{self.name}: returned the zero vector")
        dilated = body if self.rho == 1 else body.dilate(self.rho)
        if not dilated.contains(x):
            raise OracleContractViolation(
                f"{self.name}: point is not in the {self.rho}-dilated body"
            )
        return x


@dataclass
class SvpInfOracle:
    """Max-norm SVP oracle for lattices promised to have det <= 1."""

    rho: Fraction
    solver: Callable[[LatticeBasis], RVector]
    name: str = "svp-linf"

    def find(self, basis: LatticeBasis) -> tuple[RVector, tuple[int, ...]]:
        x = self.solver(basis)
        if x.dim != basis.n:
            raise OracleContractViolation(f"{self.name}: dimension mismatch")
        coeffs = lattice_membership(basis, x)
        if coeffs is None:
            raise OracleContractViolation(f"{self.name}: vector is not a lattice point")
        if not any(coeffs):
            raise OracleContractViolation(f"{self.name}: returned the zero vector")
        if x.inf_norm() > self.rho:
            raise OracleContractViolation(
                f"{self.name}: max norm {x.inf_norm()} exceeds rho = {self.rho}"
            )
        return x, coeffs


def _checked_balance(
    name: str,
    inst: NbpInstance,
    reply: Sequence[int],
    k: int,
    bound: Callable[[int], Fraction],
) -> tuple[int, ...]:
    """Re-verify a balancing oracle's reply x to ``inst``.

    x must have n integer coefficients in {-k..k}, not all zero, and
    |<a, x>| <= bound(n); a reply that breaks any of these raises
    OracleContractViolation naming the oracle.
    """
    x = _integer_reply(name, reply)
    if len(x) != inst.n:
        raise OracleContractViolation(f"{name}: dimension mismatch")
    if not any(x):
        raise OracleContractViolation(f"{name}: returned the zero vector")
    if max(abs(v) for v in x) > k:
        raise OracleContractViolation(f"{name}: coefficient exceeds {k}")
    err = abs(instance_inner(inst, x))
    claimed = bound(inst.n)
    if err > claimed:
        raise OracleContractViolation(
            f"{name}: error {err} exceeds the claimed bound {claimed} at n={inst.n}"
        )
    return x


@dataclass
class BoundedNbpOracle:
    """Balancing oracle with coefficients in {-k..k} and a per-dimension guarantee."""

    k: int
    guarantee: Callable[[int], Fraction]
    solver: Callable[[NbpInstance], Sequence[int]]
    name: str = "bounded-nbp"

    def solve(self, inst: NbpInstance) -> tuple[int, ...]:
        return _checked_balance(self.name, inst, self.solver(inst), self.k, self.guarantee)


@dataclass
class NbpDeltaOracle:
    """Sign-vector balancing oracle with guarantee |<a,x>| <= delta(n)."""

    delta: Callable[[int], Fraction]
    solver: Callable[[NbpInstance], Sequence[int]]
    name: str = "nbp-delta"

    def solve(self, inst: NbpInstance) -> tuple[int, ...]:
        return _checked_balance(self.name, inst, self.solver(inst), 1, self.delta)


# ---------------------------------------------------------------------------
# standard realizations


def exact_minkowski_oracle() -> MinkowskiOracle:
    """rho = 1, realized by the exact integer-point enumeration."""
    return MinkowskiOracle(
        rho=Fraction(1), solver=minkowski_exact_oracle, name="exact-minkowski"
    )


def exact_svp_oracle() -> SvpInfOracle:
    """rho = 1 for det <= 1 lattices (Minkowski guarantees attainability)."""

    def solve(basis: LatticeBasis) -> RVector:
        if abs(basis.det) > 1:
            raise PreconditionFailed("exact SVP oracle requires det <= 1")
        y = svp_exact_linf(basis, search_bound=Fraction(1))
        return basis.B.matvec(RVector(y))

    return SvpInfOracle(rho=Fraction(1), solver=solve, name="exact-svp-linf")


def lll_svp_rho(dim: int) -> Fraction:
    """Claimed rho of the LLL oracle: 2^ceil((dim-1)/4) >= 2^((dim-1)/4)."""
    return Fraction(2 ** ((dim - 1 + 3) // 4))


def lll_svp_oracle(dim: int) -> SvpInfOracle:
    """Approximate oracle: LLL-reduce, return the best reduced basis column."""

    def solve(basis: LatticeBasis) -> RVector:
        reduced, _, _ = lll_reduce(basis)
        cols = [reduced.B.column(j) for j in range(reduced.n)]
        return min(cols, key=lambda c: c.inf_norm())

    return SvpInfOracle(rho=lll_svp_rho(dim), solver=solve, name="lll-svp-linf")


def mitm_exact_guarantee(k: int) -> Callable[[int], Fraction]:
    """Pigeonhole bound the exact solver always meets: 2dk/((k+1)^d - 1)."""
    return lambda d: Fraction(2 * d * k, (k + 1) ** d - 1)


def mitm_delta_oracle() -> NbpDeltaOracle:
    return NbpDeltaOracle(
        delta=mitm_exact_guarantee(1),
        solver=lambda inst: mitm_min(inst, 1).x,
        name="exact-mitm-delta",
    )


def kk_delta_oracle() -> NbpDeltaOracle:
    """Karmarkar-Karp; the only a-priori sound claim is max|a_i| <= 1."""
    return NbpDeltaOracle(
        delta=lambda d: Fraction(1),
        solver=lambda inst: karmarkar_karp(inst).x,
        name="karmarkar-karp-delta",
    )


def pigeonhole_delta_oracle() -> NbpDeltaOracle:
    """Pigeonhole over N = d^3 subsets, which guarantees 2 bitlen(N) / N."""

    def delta(d: int) -> Fraction:
        n_pigeons = d**3
        return Fraction(2 * n_pigeons.bit_length(), n_pigeons)

    return NbpDeltaOracle(
        delta=delta,
        solver=lambda inst: pigeonhole_solve(inst, inst.n**3).x,
        name="pigeonhole-delta",
    )


def adversarial_minkowski_oracle() -> MinkowskiOracle:
    """Claims rho = 1 but returns a far-away integer point."""

    def solve(body: CubeSlabBody) -> tuple[int, ...]:
        far = body.int_box_limit() + 5
        return (far,) + (0,) * (body.dim - 1)

    return MinkowskiOracle(rho=Fraction(1), solver=solve, name="adversarial-minkowski")
