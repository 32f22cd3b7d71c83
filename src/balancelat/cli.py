"""Command-line surface: generation, solving, reductions, verification, bench.

All commands are deterministic given (seed, input, params); timing is only
recorded with --timing so reports stay byte-reproducible by default.
Exit codes: 0 success, 2 an exact bound comparison failed, 3 invalid input
(a malformed document, an unreadable path) or a usage error.

The argument parser is built once, at import, as PARSER, the one grammar.
main parses at the leaf: it looks up argv's command words in LEAVES, which
holds PARSER's own leaf subparsers, and parses the rest of argv with that
leaf alone, so each call pays one parse instead of one per level.  PARSER is
the fallback and parses any argv that names no leaf or that the leaf leaves
partly unrecognised, so every usage message and exit code is PARSER's.  Every
main call parses into a fresh Namespace, so nothing carries over between
calls in one process.  The subcommands' choices come from CALLS, which maps
each name a command accepts to the call it makes.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import sys
import time
from fractions import Fraction
from typing import Callable, Optional

from . import generators, serialize
from .errors import BalanceLatError, BudgetExceeded, InvalidParams, OracleContractViolation
from .lattice import lll_reduce
from .nbp import (
    NbpInstance,
    NbpSolution,
    brute_force_min,
    karmarkar_karp,
    mitm_min,
    pigeonhole_bound,
    pigeonhole_solve,
    verify,
)
from .oracles import (
    adversarial_minkowski_oracle,
    exact_minkowski_oracle,
    exact_svp_oracle,
    kk_delta_oracle,
    lll_svp_oracle,
    mitm_delta_oracle,
    pigeonhole_delta_oracle,
)
from .rationals import format_rational, format_scientific
from .reduce_to_minkowski import minkowski_from_nbp
from .reduce_to_nbp import ReductionResult, nbp_full_pipeline, nbp_via_minkowski, nbp_via_svp

EXIT_OK = 0
EXIT_BOUND_VIOLATION = 2
EXIT_INVALID = 3


def _read_input(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InvalidParams(f"input {path!r} is not UTF-8 text: {exc}") from None


def _write_output(text: str, path: Optional[str]) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _digest(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def _fmt_opt(x: Optional[Fraction]) -> Optional[str]:
    return None if x is None else format_rational(x)


def cmd_gen(args: argparse.Namespace) -> int:
    if args.kind == "nbp":
        inst = generators.gen_nbp(args.n, args.seed, args.precision_bits, args.signed)
        doc = serialize.instance_to_doc(inst, args.precision_bits)
    elif args.kind == "basis":
        basis = generators.gen_basis(args.n, args.seed, args.span)
        doc = serialize.basis_to_doc(basis)
    else:
        e = generators.gen_ellipsoid(args.n, args.seed)
        doc = serialize.ellipsoid_to_doc(e)
    _write_output(serialize.dumps(doc), args.out)
    return EXIT_OK


def _audit(result: ReductionResult) -> tuple[NbpSolution, Optional[Fraction], str]:
    return result.solution, result.claimed_bound, result.formula


def _pigeonhole(inst: NbpInstance, pigeons: Optional[int]) -> tuple[NbpSolution, Fraction, str]:
    N = inst.n**3 if pigeons is None else pigeons  # 0 is refused, not read as the default
    return pigeonhole_solve(inst, N), pigeonhole_bound(N), "pigeonhole"


# Every name a command accepts, mapped to the call it makes.  The solve and
# bench calls take (instance, args) and return (solution, claimed bound or
# None, formula); the to-nbp calls take the same and return a
# ReductionResult; the to-minkowski calls build the balancing oracle.  The
# parser is built from these keys once, but each call still names library
# functions inside its lambda, so they are looked up in this module when it
# runs and are never stored here or in the parser: wrappers installed on the
# module's attributes (perfbench's tracer) then see every call.
CALLS: dict[str, dict[str, Callable]] = {
    "solve": {
        "brute-force": lambda inst, a: (brute_force_min(inst, a.k), None, "brute-force"),
        "mitm": lambda inst, a: (mitm_min(inst, a.k), None, "mitm"),
        "pigeonhole": lambda inst, a: _pigeonhole(inst, a.pigeons),
        "kk": lambda inst, a: (karmarkar_karp(inst), None, "karmarkar-karp"),
    },
    "to-nbp": {
        "exact-mink": lambda inst, a: nbp_via_minkowski(inst, a.k, exact_minkowski_oracle()),
        "exact-svp": lambda inst, a: nbp_via_svp(inst, a.k, exact_svp_oracle()),
        "lll": lambda inst, a: nbp_via_svp(inst, a.k, lll_svp_oracle(inst.n + 1)),
    },
    "to-nbp --full": {
        "exact-mink": lambda inst, a: nbp_full_pipeline(inst, exact_minkowski_oracle()),
        "exact-svp": lambda inst, a: nbp_full_pipeline(inst, exact_svp_oracle()),
        "lll": lambda inst, a: nbp_full_pipeline(inst, lll_svp_oracle(inst.n + 1)),
    },
    "to-minkowski": {
        "mitm": mitm_delta_oracle,
        "kk": kk_delta_oracle,
        "pigeonhole": pigeonhole_delta_oracle,
    },
}
CALLS["bench"] = {
    **CALLS["solve"],
    "reduce-mink": lambda inst, a: _audit(
        nbp_via_minkowski(
            inst, a.k, adversarial_minkowski_oracle() if a.adversarial else exact_minkowski_oracle()
        )
    ),
}


def cmd_solve(args: argparse.Namespace) -> int:
    if args.k < 1:  # refused for every algorithm, also those that ignore k
        raise InvalidParams(f"--k must be >= 1, got {args.k}")
    raw = _read_input(args.input)
    inst = serialize.instance_from_doc(serialize.loads(raw))
    start = time.monotonic()
    sol, bound, formula = CALLS["solve"][args.algo](inst, args)
    elapsed_ms = int((time.monotonic() - start) * 1000)
    satisfied = bound is None or sol.error <= bound
    report = {
        "command": ["solve", "--algo", args.algo],
        "input_digest": _digest(raw),
        "solution": serialize.solution_to_doc(sol),
        "achieved_error": format_rational(sol.error),
        "claimed_bound": _fmt_opt(bound),
        "bound_satisfied": satisfied,
        "formula": formula,
        "wall_time_ms": elapsed_ms if args.timing else None,
    }
    _write_output(serialize.dumps(report), args.out)
    return EXIT_OK if satisfied else EXIT_BOUND_VIOLATION


def cmd_reduce_to_nbp(args: argparse.Namespace) -> int:
    raw = _read_input(args.input)
    inst = serialize.instance_from_doc(serialize.loads(raw))
    args.k = 1 if args.k is None else args.k
    result = CALLS["to-nbp --full" if args.full else "to-nbp"][args.oracle](inst, args)
    doc = {
        "solution": serialize.solution_to_doc(result.solution),
        "audit": {
            "claimed_bound": format_rational(result.claimed_bound),
            "achieved_error": format_rational(result.solution.error),
            "formula": result.formula,
        },
    }
    _write_output(serialize.dumps(doc), args.out)
    return EXIT_OK if result.bound_satisfied else EXIT_BOUND_VIOLATION


def cmd_reduce_to_minkowski(args: argparse.Namespace) -> int:
    raw = _read_input(args.input)
    ellipsoid = serialize.ellipsoid_from_doc(serialize.loads(raw))
    oracle = CALLS["to-minkowski"][args.oracle]()
    result = minkowski_from_nbp(ellipsoid, oracle, Q_override=args.Q)
    doc = {
        "x": list(result.x),
        "rho_star": format_rational(result.rho_star),
        "branch": result.branch,
    }
    _write_output(serialize.dumps(doc), args.out)
    return EXIT_OK


def cmd_lll(args: argparse.Namespace) -> int:
    raw = _read_input(args.input)
    basis = serialize.basis_from_doc(serialize.loads(raw))
    reduced, transform, cert = lll_reduce(basis)
    doc = {
        "reduced": serialize.basis_to_doc(reduced),
        "transform": serialize.transform_to_doc(transform),
        "size_reduced": cert.size_reduced,
        "lovasz_ok": cert.lovasz_ok,
        "det_input": format_rational(basis.det),
        "det_reduced": format_rational(reduced.det),
    }
    _write_output(serialize.dumps(doc), args.out)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    inst = serialize.instance_from_doc(serialize.loads(_read_input(args.instance)))
    x, k, declared = serialize.solution_from_doc(serialize.loads(_read_input(args.solution)))
    sol = verify(inst, x, k)
    ok = sol.error == declared
    doc = {
        "ok": ok,
        "recomputed_error": format_rational(sol.error),
        "declared_error": format_rational(declared),
    }
    _write_output(serialize.dumps(doc), args.out)
    return EXIT_OK if ok else EXIT_BOUND_VIOLATION


def cmd_bench(args: argparse.Namespace) -> int:
    try:
        sizes = sorted({int(s) for s in args.sizes.split(",") if s})
    except ValueError:
        raise InvalidParams(f"--sizes takes comma-separated integers, got {args.sizes!r}") from None
    if not sizes:
        raise InvalidParams(f"--sizes needs at least one dimension, got {args.sizes!r}")
    if args.seeds < 1:
        raise InvalidParams(f"--seeds must be >= 1, got {args.seeds}")
    if args.k < 1:
        raise InvalidParams(f"--k must be >= 1, got {args.k}")
    algos = sorted({a for a in args.algos.split(",") if a})
    if not algos:
        raise InvalidParams(f"--algos needs at least one algorithm, got {args.algos!r}")
    unknown = [a for a in algos if a not in CALLS["bench"]]
    if unknown:
        raise InvalidParams(f"unknown bench algorithm {unknown[0]!r}")
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(
        ["n", "seed", "algorithm", "error", "error_sci", "bound", "bound_sci", "ratio_sci", "status"]
    )
    any_violation = False
    for n in sizes:
        for seed in range(args.seeds):
            inst = generators.gen_nbp(n, seed, args.precision_bits, args.signed)
            for algo in algos:
                error = bound = None
                try:
                    sol, bound, _ = CALLS["bench"][algo](inst, args)
                    error = sol.error
                    status = "ok" if bound is None or error <= bound else "bound-violation"
                except BudgetExceeded:
                    status = "budget-exceeded"
                except OracleContractViolation:
                    status = "bound-violation"
                except BalanceLatError as exc:
                    status = f"error: {exc}"
                if status == "bound-violation":
                    any_violation = True
                ratio = (
                    format_scientific(error / bound)
                    if error is not None and bound not in (None, 0)
                    else ""
                )
                writer.writerow(
                    [
                        n,
                        seed,
                        algo,
                        format_rational(error) if error is not None else "",
                        format_scientific(error) if error is not None else "",
                        format_rational(bound) if bound is not None else "",
                        format_scientific(bound) if bound is not None else "",
                        ratio,
                        status,
                    ]
                )
    _write_output(out.getvalue(), args.out)
    return EXIT_BOUND_VIOLATION if any_violation else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    reads = argparse.ArgumentParser(add_help=False)
    reads.add_argument("--input", default="-")
    writes = argparse.ArgumentParser(add_help=False)
    writes.add_argument("--out", default=None)

    parser = argparse.ArgumentParser(
        prog="balancelat",
        description="Number balancing, lattice reduction, and oracle reductions "
        "in exact rational arithmetic",
    )
    # each dest names the missing word in PARSER's "arguments are required" error
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", parents=[writes],
                           help="generate a seeded instance/basis/ellipsoid")
    p_gen.add_argument("kind", choices=["nbp", "basis", "ellipsoid"])
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--precision-bits", type=int, default=30)
    p_gen.add_argument("--signed", action="store_true", help="entries in [-1,1] instead of [0,1]")
    p_gen.add_argument("--span", type=int, default=99, help="basis entry magnitude")
    p_gen.set_defaults(func=cmd_gen)

    p_solve = sub.add_parser("solve", parents=[reads, writes],
                             help="run a solver or reduction on an instance")
    p_solve.add_argument("--algo", required=True, choices=CALLS["solve"])
    p_solve.add_argument("--k", type=int, default=1)
    p_solve.add_argument("--pigeons", type=int, default=None)
    p_solve.add_argument("--timing", action="store_true")
    p_solve.set_defaults(func=cmd_solve)

    p_reduce = sub.add_parser("reduce", help="oracle reductions")
    reduce_sub = p_reduce.add_subparsers(dest="direction", required=True)

    p_tonbp = reduce_sub.add_parser("to-nbp", parents=[reads, writes],
                                    help="solve NBP with a Minkowski/SVP oracle")
    p_tonbp.add_argument("--oracle", required=True, choices=CALLS["to-nbp"])
    k_or_full = p_tonbp.add_mutually_exclusive_group()
    # default None, not 1: argparse lets a value that `is` the default pass the group,
    # so --full --k 1 would go unrefused
    k_or_full.add_argument("--k", type=int, default=None, help="default 1")
    k_or_full.add_argument("--full", action="store_true", help="picks k = max(1, ceil(3*rho))")
    p_tonbp.set_defaults(func=cmd_reduce_to_nbp)

    p_tomink = reduce_sub.add_parser("to-minkowski", parents=[reads, writes],
                                     help="find integer ellipsoid points with an NBP oracle")
    p_tomink.add_argument("--oracle", required=True, choices=CALLS["to-minkowski"])
    p_tomink.add_argument("--Q", type=int, default=None, help="power-of-two range override")
    p_tomink.set_defaults(func=cmd_reduce_to_minkowski)

    p_lll = sub.add_parser("lll", parents=[reads, writes],
                           help="LLL-reduce a basis, tracking the unimodular transform")
    p_lll.set_defaults(func=cmd_lll)

    p_verify = sub.add_parser("verify", parents=[writes],
                              help="re-verify a solution against its instance")
    p_verify.add_argument("--instance", required=True)
    p_verify.add_argument("--solution", required=True)
    p_verify.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser("bench", parents=[writes],
                             help="seeded sweep; CSV per (n, seed, algorithm)")
    p_bench.add_argument("--sizes", required=True, help="comma-separated dimensions")
    p_bench.add_argument("--seeds", type=int, default=5)
    p_bench.add_argument("--algos", required=True,
                         help="comma-separated: " + ",".join(CALLS["bench"]))
    p_bench.add_argument("--k", type=int, default=1)
    p_bench.add_argument("--precision-bits", type=int, default=30)
    p_bench.add_argument("--signed", action="store_true")
    p_bench.add_argument("--adversarial", action="store_true",
                         help="use a contract-violating oracle (failure-path demo)")
    # bench has no --pigeons: its pigeonhole cells run solve's call with n^3
    p_bench.set_defaults(func=cmd_bench, pigeons=None)

    return parser


def _leaves(
    parser: argparse.ArgumentParser, words: tuple[str, ...] = ()
) -> dict[tuple[str, ...], argparse.ArgumentParser]:
    """Each leaf parser under parser, keyed by the command words that select it."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return {key: leaf for word, sub in action.choices.items()
                    for key, leaf in _leaves(sub, (*words, word)).items()}
    return {words: parser}


PARSER = build_parser()
# ("gen",), ("solve",), ..., ("reduce", "to-nbp"), ("reduce", "to-minkowski")
LEAVES = _leaves(PARSER)


def _parse(argv: list[str]) -> argparse.Namespace:
    """argv parsed by the leaf its command words name, or else by PARSER.

    PARSER's nested dispatch hands that leaf the same words, after one parse
    per level, so the leaf's --help and errors are the ones PARSER prints.
    PARSER reports words the leaf leaves unrecognised with its own usage, so
    such an argv goes to PARSER, as does one that names no leaf.
    """
    for depth in (1, 2):
        leaf = LEAVES.get(tuple(argv[:depth]))
        if leaf is not None:
            args, extra = leaf.parse_known_args(argv[depth:])
            if not extra:
                return args
            break
    return PARSER.parse_args(argv)


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:  # argparse exits 0 after --help and 2 on a usage error
        return EXIT_OK if exc.code == 0 else EXIT_INVALID
    try:
        return args.func(args)
    except OracleContractViolation as exc:
        print(f"bound violation: {exc}", file=sys.stderr)
        return EXIT_BOUND_VIOLATION
    except BalanceLatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:  # an --input, --instance, --solution or --out path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
