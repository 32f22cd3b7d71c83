"""Per-layer spans and work counters, installed from outside the library.

The tracer replaces each boundary function at every binding site: modules
import with ``from .x import f``, so ``mitm_min`` lives as ``nbp.mitm_min``,
``oracles.mitm_min`` and ``cli.mitm_min`` at once, and each of those names is
swapped.  Methods are wrapped on their classes.  Spans (boundary, start, end,
parent span, op index) are kept in flat arrays and written out at the end.
Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

ALL = frozenset({"solve", "lattice", "to-nbp", "to-minkowski"})

# (boundary name, module, attribute path, designated workloads, counts errors)
# A boundary must record at least one call on each designated workload.
SPANS = [
    ("nbp.brute_force_min", "nbp", "brute_force_min", {"solve"}, False),
    ("nbp.mitm_min", "nbp", "mitm_min", {"solve", "to-minkowski"}, False),
    ("nbp.pigeonhole_solve", "nbp", "pigeonhole_solve", {"solve", "to-minkowski"}, False),
    ("nbp.karmarkar_karp", "nbp", "karmarkar_karp", {"solve"}, False),
    ("nbp.verify", "nbp", "verify", {"solve"}, False),
    ("lattice.lll_reduce", "lattice", "lll_reduce", {"lattice", "to-minkowski"}, False),
    ("lattice.svp_exact_linf", "lattice", "svp_exact_linf", {"lattice", "to-nbp"}, True),
    ("lattice.check_reduction_conditions", "lattice", "check_reduction_conditions",
     {"lattice"}, False),
    ("lattice.lattice_membership", "lattice", "lattice_membership", {"lattice"}, False),
    ("lattice.LatticeBasis.post_init", "lattice", "LatticeBasis.__post_init__",
     {"lattice"}, False),
    ("lattice.UnimodularTransform.post_init", "lattice", "UnimodularTransform.__post_init__",
     {"lattice"}, False),
    ("linalg.gram_schmidt", "linalg", "gram_schmidt", {"lattice"}, False),
    ("linalg.determinant", "linalg", "determinant", {"lattice"}, False),
    ("linalg.solve_linear", "linalg", "solve_linear", {"lattice"}, False),
    ("linalg.RMatrix.matvec", "linalg", "RMatrix.matvec", {"lattice"}, False),
    ("linalg.RMatrix.matmul", "linalg", "RMatrix.matmul", {"lattice"}, False),
    ("rationals.sqrt_lower", "rationals", "sqrt_lower", {"lattice", "to-minkowski"}, False),
    ("rationals.sqrt_upper", "rationals", "sqrt_upper", {"to-minkowski"}, False),
    ("rationals.nth_root_upper", "rationals", "nth_root_upper", {"to-minkowski"}, False),
    ("geometry.minkowski_exact_oracle", "geometry", "minkowski_exact_oracle", {"to-nbp"}, True),
    ("geometry.well_round", "geometry", "well_round", {"to-minkowski"}, False),
    ("geometry.axis_extract", "geometry", "axis_extract", {"to-minkowski"}, False),
    ("oracles.MinkowskiOracle.find", "oracles", "MinkowskiOracle.find", {"to-nbp"}, True),
    ("oracles.SvpInfOracle.find", "oracles", "SvpInfOracle.find", {"lattice", "to-nbp"}, True),
    ("oracles.BoundedNbpOracle.solve", "oracles", "BoundedNbpOracle.solve", {"to-nbp"}, True),
    ("oracles.NbpDeltaOracle.solve", "oracles", "NbpDeltaOracle.solve", {"to-minkowski"}, True),
    ("reduce_to_nbp.nbp_via_minkowski", "reduce_to_nbp", "nbp_via_minkowski", {"to-nbp"}, False),
    ("reduce_to_nbp.nbp_via_svp", "reduce_to_nbp", "nbp_via_svp", {"lattice", "to-nbp"}, False),
    ("reduce_to_nbp.halve_coefficients", "reduce_to_nbp", "halve_coefficients",
     {"to-nbp"}, False),
    ("reduce_to_nbp.full_self_reduction", "reduce_to_nbp", "full_self_reduction",
     {"to-nbp"}, False),
    ("reduce_to_minkowski.minkowski_from_nbp", "reduce_to_minkowski", "minkowski_from_nbp",
     {"to-minkowski"}, False),
    ("reduce_to_minkowski.generalized_nbp", "reduce_to_minkowski", "generalized_nbp",
     {"to-minkowski"}, False),
    ("reduce_to_minkowski.extended_range_balance", "reduce_to_minkowski",
     "extended_range_balance", {"to-minkowski"}, False),
    ("reduce_to_minkowski.multi_vector_balance", "reduce_to_minkowski",
     "multi_vector_balance", {"to-minkowski"}, False),
    ("serialize.loads", "serialize", "loads", ALL, False),
    ("serialize.dumps", "serialize", "dumps", ALL, False),
    ("cli.main", "cli", "main", ALL, False),
]

# Hot calls that are only counted, never spanned: (counter, module, attribute
# path, boundary the call must be made under or None, designated workloads).
COUNTS = [
    ("linalg.RVector.init.calls", "linalg", "RVector.__init__", None, ALL),
    ("geometry.minkowski_exact_oracle.nodes", "geometry", "CubeSlabBody.prefix_feasible",
     "geometry.minkowski_exact_oracle", {"to-nbp"}),
]

# Calls of one spanned boundary counted while another is active.
NESTED_COUNTS = {
    "linalg.gram_schmidt": ("lattice.lll_reduce.gs_recomputes", "lattice.lll_reduce"),
    "rationals.sqrt_lower": ("lattice.svp_exact_linf.nodes", "lattice.svp_exact_linf"),
}

HANDLES = {name for name, *_ in SPANS if name.startswith("oracles.")}

HALVE_BRANCHES = {
    "small-coefficients": "reduce_to_nbp.halve_coefficients.early_exit",
    "small-block-value": "reduce_to_nbp.halve_coefficients.early_exit",
    "recombined": "reduce_to_nbp.halve_coefficients.recombined",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, in report order, with its unit."""
    names = []
    for name, _, _, _, errors in SPANS:
        names += [f"{name}.calls", f"{name}.self_s"] + ([f"{name}.errors"] if errors else [])
    names += [c[0] for c in COUNTS] + [c[0] for c in NESTED_COUNTS.values()]
    names += list(dict.fromkeys(HALVE_BRANCHES.values()))
    names += ["reduce_to_minkowski.minkowski_from_nbp.pipeline",
              "oracles.verify_s", "oracles.verify_share", "trace.overhead"]
    return {n: "s" if n.endswith("_s") else "ratio" if n.endswith(("share", "overhead"))
            else "count" for n in names}


def _resolve(module, path: str):
    owner = module
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    if attr not in vars(owner):
        raise RuntimeError(f"boundary {module.__name__}.{path} does not exist")
    return owner, attr, vars(owner)[attr]


class Tracer:
    """Installs wrappers, records spans and counters, and removes them again."""

    def __init__(self, package: str = "balancelat") -> None:
        self.names = [s[0] for s in SPANS]
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.stack: list[list] = []  # [span index, child time]
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self.active: Counter = Counter()
        self.verify_s = 0.0
        self.handle_s = 0.0  # time inside outermost oracle handles
        self.op = -1
        self.overhead_pairs: list[tuple[float, float]] = []  # (traced, untraced) seconds
        self._sites = self._binding_sites(package)

    # -- installation --------------------------------------------------------

    def _binding_sites(self, package: str) -> list[tuple]:
        """(owner, attribute, original, wrapper) for every place a boundary is bound."""
        mods = {k: m for k, m in sys.modules.items()
                if k == package or k.startswith(package + ".")}
        sites = []
        for idx, (name, mod, path, _, _) in enumerate(SPANS):
            owner, attr, fn = _resolve(mods[f"{package}.{mod}"], path)
            wrapper = self._span_wrapper(idx, name, fn)
            if isinstance(owner, type):
                sites.append((owner, attr, fn, wrapper))
            else:
                sites += [(m, a, fn, wrapper) for m in mods.values()
                          for a, value in vars(m).items() if value is fn]
        for counter, mod, path, under, _ in COUNTS:
            owner, attr, fn = _resolve(mods[f"{package}.{mod}"], path)
            sites.append((owner, attr, fn, self._count_wrapper(counter, under, fn)))
        return sites

    def install(self) -> None:
        for owner, attr, _, wrapper in self._sites:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._sites:
            setattr(owner, attr, original)

    # -- wrappers ------------------------------------------------------------

    def _count_wrapper(self, counter, under, fn):
        counts, active = self.counts, self.active

        def wrapper(*args, **kwargs):
            if under is None or active[under]:
                counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span_wrapper(self, idx: int, name: str, fn):
        clock = time.perf_counter
        stack, active = self.stack, self.active
        nested = NESTED_COUNTS.get(name)
        handle = name in HANDLES
        tracer = self

        def wrapper(*args, **kwargs):
            if nested and active[nested[1]]:
                tracer.counts[nested[0]] += 1
            solver_s = [0.0]
            if handle:
                oracle = args[0]
                inner = oracle.solver

                def timed_solver(*a, **kw):
                    t = clock()
                    try:
                        return inner(*a, **kw)
                    finally:
                        solver_s[0] += clock() - t

                oracle.solver = timed_solver
                outermost = not any(active[h] for h in HANDLES)
            span = len(tracer.span_start)
            tracer.span_name.append(idx)
            tracer.span_parent.append(stack[-1][0] if stack else -1)
            tracer.span_op.append(tracer.op)
            tracer.span_end.append(0.0)
            frame = [span, 0.0]
            stack.append(frame)
            active[name] += 1
            start = clock()
            tracer.span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[name] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                active[name] -= 1
                duration = end - start
                tracer.span_end[span] = end
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if handle:
                    oracle.solver = inner
                    tracer.verify_s += duration - solver_s[0]
                    if outermost:
                        tracer.handle_s += duration
            tracer._observe(name, result)
            return result

        return wrapper

    def _observe(self, name: str, result) -> None:
        if name == "reduce_to_nbp.halve_coefficients":
            self.counts[HALVE_BRANCHES[result.branch]] += 1
        elif name == "reduce_to_minkowski.minkowski_from_nbp" and result.branch == "pipeline":
            self.counts["reduce_to_minkowski.minkowski_from_nbp.pipeline"] += 1

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, _, _, _, errors in SPANS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
            if errors:
                out[f"{name}.errors"] = self.errors[name]
        for counter in metric_units():
            if counter not in out:
                out[counter] = self.counts[counter]
        out["oracles.verify_s"] = self.verify_s
        out["oracles.verify_share"] = self.verify_s / self.handle_s if self.handle_s else 0.0
        traced, plain = (sum(t) for t in zip(*self.overhead_pairs))
        out["trace.overhead"] = traced / plain - 1
        return out

    def silent_boundaries(self, workload: str) -> list[str]:
        """Boundaries designated for this workload that recorded no call."""
        silent = [name for name, _, _, where, _ in SPANS
                  if workload in where and not self.calls[name]]
        silent += [c[0] for c in COUNTS if workload in c[4] and not self.counts[c[0]]]
        return silent

    def write_spans(self, path: Path) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("boundary\tstart_s\tend_s\tparent\top\n")
            for i in range(len(self.span_start)):
                fh.write(f"{self.names[self.span_name[i]]}\t{self.span_start[i]:.9f}\t"
                         f"{self.span_end[i]:.9f}\t{self.span_parent[i]}\t{self.span_op[i]}\n")
