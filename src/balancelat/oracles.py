"""Oracle handles and their standard realizations.

Each handle carries its claimed guarantee parameters, and every call is
re-verified against the claim with exact arithmetic: a reply with an entry
that is not an integer, or one that breaks the claim, raises
OracleContractViolation naming the oracle, rather than silently degrading
downstream bounds.  A Minkowski oracle is asked about one kind of body, the
cube-slab body of the balancing reduction; an SVP handle replies in lattice
coefficients.  The factories wire the exact enumeration oracles from the
geometry and lattice modules, the LLL-approximate SVP oracle, and an
adversarial Minkowski oracle that the CLI's ``bench --adversarial`` runs to
show the failure path.

Every balancing-point reply is read once, by nbp.verify, in one check:
verify at the coefficient bound, then the claimed error bound.  The
balancing handles check at (k, guarantee(n)); a sign-vector oracle is the
k = 1 case.  A Minkowski handle checks at the dilated body's box limit and
slab bound: on an integer point, an open-box coordinate is one with
|x_i| <= ceil(r) - 1, so this is exactly membership in the dilated body.
Each handle returns the checked NbpSolution, which callers read instead of
verifying x again.  The four handle types stay separate classes, each with
its own ``find``/``solve``, because the benchmark's tracer wraps those four
methods by name; merging them waits until the library owns its work
counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .errors import InvalidParams, OracleContractViolation, PreconditionFailed
from .geometry import CubeSlabBody, minkowski_exact_oracle
from .lattice import LatticeBasis, lattice_membership, lll_reduce, svp_exact_linf
from .linalg import RVector
from .nbp import NbpInstance, NbpSolution, karmarkar_karp, mitm_min, pigeonhole_solve, verify


def _checked_balance(
    name: str, inst: NbpInstance, reply: Sequence[int], k: int, claimed: Fraction
) -> NbpSolution:
    """Re-verify a balancing reply x to ``inst``; return it checked.

    x must meet verify(inst, x, k), and |<a, x>| <= claimed; a reply that
    breaks either raises OracleContractViolation naming the oracle.
    """
    try:
        sol = verify(inst, reply, k)
    except InvalidParams as exc:
        raise OracleContractViolation(f"{name}: {exc}") from None
    if sol.error > claimed:
        raise OracleContractViolation(
            f"{name}: error {sol.error} exceeds the claimed bound {claimed} at n={inst.n}"
        )
    return sol


@dataclass
class MinkowskiOracle:
    """rho-approximate Minkowski oracle: finds points of (rho K) cap Z^n \\ {0}.

    The reply is checked as a balancing solution of the body's instance,
    with the dilated body's box limit and slab bound as k and claimed bound.
    """

    rho: Fraction
    solver: Callable[[CubeSlabBody], Sequence[int]]
    name: str

    def find(self, body: CubeSlabBody) -> NbpSolution:
        dilated = body if self.rho == 1 else body.dilate(self.rho)
        return _checked_balance(self.name, body.inst, self.solver(body),
                                dilated.int_box_limit(), dilated.slab_bound)


@dataclass
class SvpInfOracle:
    """Max-norm SVP oracle for lattices promised to have det <= 1."""

    rho: Fraction
    solver: Callable[[LatticeBasis], RVector]
    name: str

    def find(self, basis: LatticeBasis) -> tuple[int, ...]:
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
        return coeffs


@dataclass
class BoundedNbpOracle:
    """Balancing oracle with coefficients in {-k..k} and a per-dimension guarantee."""

    k: int
    guarantee: Callable[[int], Fraction]
    solver: Callable[[NbpInstance], Sequence[int]]
    name: str

    def solve(self, inst: NbpInstance) -> NbpSolution:
        return _checked_balance(self.name, inst, self.solver(inst), self.k,
                                self.guarantee(inst.n))


@dataclass
class NbpDeltaOracle:
    """Sign-vector balancing oracle with guarantee |<a,x>| <= delta(n)."""

    delta: Callable[[int], Fraction]
    solver: Callable[[NbpInstance], Sequence[int]]
    name: str

    def solve(self, inst: NbpInstance) -> NbpSolution:
        return _checked_balance(self.name, inst, self.solver(inst), 1, self.delta(inst.n))


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
