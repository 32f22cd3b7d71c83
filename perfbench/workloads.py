"""Seeded op corpora for the four workloads.

An op is one ``balancelat.cli.main(argv)`` call on documents written by
``balancelat gen``.  Every gen seed is drawn from ``random.Random`` seeded
with the workload name and the workload seed, so one seed always gives the
same corpus.  The per-class counts below size one pass of each workload to
roughly 8-13 s at the reference speed (speed.py) under CPython 3.11, with at
least 100 ops, so that p90 has ten samples beyond it.  Where a percentile
would fall between two op classes, the counts are set so that it falls inside
one class of similar ops, because the boundary between classes moves from
seed to seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Optional

from checks import (
    check_bench,
    check_lll,
    check_solve,
    check_to_minkowski,
    check_to_nbp,
    read_basis_columns,
    read_ellipsoid_matrix,
    read_instance,
)

WORKLOADS = ("solve", "lattice", "to-nbp", "to-minkowski")


@dataclass
class Op:
    id: str  # stable across runs of one seed; keys the reference digests
    kind: str  # the command without its input; one warm-up op per kind
    size: int  # the warm-up op of a kind is its smallest
    argv: list[str]
    check: Callable[[str], object]  # report text -> value, or raises CheckFailed
    xcheck: Optional[str] = None  # ops sharing a key must return equal values


class Corpus:
    """Writes input documents with ``balancelat gen`` into a work directory."""

    def __init__(self, cli_main, workdir: Path, workload: str, seed: int) -> None:
        self.cli_main = cli_main
        self.workdir = workdir
        self.rng = random.Random(f"{workload}/{seed}")
        self.ops: list[Op] = []

    def draw(self) -> int:
        return self.rng.randrange(1 << 32)

    def gen(self, kind: str, n: int, seed: int, *flags: str) -> str:
        path = str(self.workdir / f"{kind}-n{n}-g{seed}{''.join(flags)}.json")
        argv = ["gen", kind, "--n", str(n), "--seed", str(seed), *flags, "--out", path]
        if self.cli_main(argv) != 0:
            raise RuntimeError(f"balancelat {' '.join(argv)} failed")
        return path

    def add(self, id_: str, kind: str, size: int, argv: list[str], check, xcheck=None):
        self.ops.append(Op(id_, kind, size, argv, check, xcheck))


def _solve(c: Corpus) -> None:
    # brute force and MITM share every small instance, so their errors cross-check
    for n in (10, 11, 12, 13):
        for _ in range(5):
            g = c.draw()
            path = c.gen("nbp", n, g, "--signed")
            chk = partial(check_solve, a=read_instance(path), k_max=1)
            for algo in ("brute-force", "mitm"):
                c.add(f"{algo}/n{n}/g{g}", f"solve --algo {algo}", n,
                      ["solve", "--algo", algo, "--input", path], chk, xcheck=path)
    # MITM at n = 22 sets this workload's peak RSS (3^11 half-sums)
    # mitm at n = 20 and pigeonhole at n = 56 cost about the same, whatever
    # the instance: op_ms_p90 falls inside that cluster, not on its edge
    for n, count in ((14, 4), (16, 4), (18, 4), (20, 8), (22, 4)):
        _nbp_solve(c, "mitm", n, count, signed=True)
    for n, count in ((32, 4), (40, 4), (48, 4), (56, 6), (64, 4)):  # N = n^3 pigeons
        _nbp_solve(c, "pigeonhole", n, count)
    # kk cost depends on n alone; n = 256 is the class op_ms_p50 falls in
    for n, count in ((64, 12), (128, 14), (256, 30), (512, 8)):
        _nbp_solve(c, "kk", n, count)
    algos = ["brute-force", "kk", "mitm", "pigeonhole"]
    for i in range(6):
        n = c.rng.choice((10, 11, 12))
        c.add(f"bench/{i}/n{n}", "bench", n,
              ["bench", "--sizes", str(n), "--seeds", "2", "--algos", ",".join(algos),
               "--signed"],
              partial(check_bench, sizes=[n], seeds=2, algos=algos))


def _nbp_solve(c: Corpus, algo: str, n: int, count: int, signed: bool = False) -> None:
    for _ in range(count):
        g = c.draw()
        path = c.gen("nbp", n, g, *(["--signed"] if signed else []))
        c.add(f"{algo}/n{n}/g{g}", f"solve --algo {algo}", n,
              ["solve", "--algo", algo, "--input", path],
              partial(check_solve, a=read_instance(path), k_max=1))


def _svp_op(c: Corpus, n: int, k: int, g: int, tag: str, full: bool = False) -> None:
    path = c.gen("nbp", n, g, "--signed")
    flags = ["--full"] if full else ["--k", str(k)]
    c.add(f"{tag}/n{n}/g{g}", f"reduce to-nbp --oracle exact-svp {' '.join(flags)}", n,
          ["reduce", "to-nbp", "--oracle", "exact-svp", *flags, "--input", path],
          partial(check_to_nbp, a=read_instance(path), k_max=1 if full else k))


def _lattice(c: Corpus) -> None:
    # n = 7, k = 2 carries the SVP search-radius defect: these ops and, on
    # most seeds, the one lll at n = 12 are the slowest of 100, so op_ms_p90
    # (the 11th slowest) is an n = 7 op, and they take two thirds of the
    # pass time.  Their cost is heavy-tailed (0.2 s to 1.4 s at the reference
    # speed over gen seeds 0-31), so a seed-drawn dozen would swamp
    # ops_per_s; the same twelve gen seeds run every time.  The three
    # cheapest lie within 10 % of each other (gen seeds 1, 5 and 8), and p90
    # lands on one of them.
    for g in range(12):
        _svp_op(c, 7, 2, g, "svp-k2")
    # No drawn op may reach the cheap n = 7 ops: exact-svp at n = 6, k = 2
    # and n = 7, k = 3 sometimes did, so they are left out.  exact-svp at
    # n = 5, k = 3 is the bulk op_ms_p50 falls in.
    for n, count in ((6, 16), (8, 4), (12, 1)):
        for _ in range(count):
            g = c.draw()
            path = c.gen("basis", n, g)
            c.add(f"lll/n{n}/g{g}", "lll", n, ["lll", "--input", path],
                  partial(check_lll, columns=read_basis_columns(path)))
    for n, k, count in ((5, 3, 60), (5, 2, 4), (6, 3, 3)):
        for _ in range(count):
            _svp_op(c, n, k, c.draw(), f"svp-k{k}")


def _to_nbp(c: Corpus) -> None:
    # counts fall as cost rises, so no single slow instance dominates a pass
    for n, count in ((36, 32), (49, 56), (64, 16), (81, 2)):
        for _ in range(count):
            g = c.draw()
            path = c.gen("nbp", n, g, "--signed")
            c.add(f"mink-full/n{n}/g{g}", "reduce to-nbp --oracle exact-mink --full", n,
                  ["reduce", "to-nbp", "--oracle", "exact-mink", "--full", "--input", path],
                  partial(check_to_nbp, a=read_instance(path), k_max=1))
    # exact-svp --full at n = 16 is the class op_ms_p50 falls in: on ops of
    # a few ms (argparse alone is about 2 ms) run-to-run noise reaches 20 %.
    # op_ms_p90 falls inside the n = 36 class, whose median moves by 10 %
    # from seed to seed with 40 ops, hence 72.
    for n, count in ((16, 100), (25, 56), (36, 72), (49, 2)):
        for _ in range(count):
            _svp_op(c, n, 1, c.draw(), "svp-full", full=True)
    # CLI-bound ops: small Minkowski searches and the lll branches that need
    # no search.  k = 3 stops at n = 8: at n = 9 one op in ten takes 1-2 s
    # against a class median of 25 ms, and that tail swamped ops_per_s.
    for k, sizes in ((1, range(5, 10)), (2, range(5, 10)), (3, range(5, 9))):
        for n in sizes:
            for _ in range(6):
                _mink_op(c, n, k, c.draw())
    for n in (16, 64):
        for full in (False, True):
            for _ in range(20):
                g = c.draw()
                path = c.gen("nbp", n, g, "--signed")
                flags = ["--full"] if full else []
                c.add(f"lll{'-full' if full else ''}/n{n}/g{g}",
                      f"reduce to-nbp --oracle lll {' '.join(flags)}".strip(), n,
                      ["reduce", "to-nbp", "--oracle", "lll", *flags, "--input", path],
                      partial(check_to_nbp, a=read_instance(path), k_max=1))
    # (2k+1)^n > 10^8 for k = 2, n = 12 and k = 3, n >= 10: today these are
    # refused by the box-size pre-check although the real search is small.
    # k = 2 at n = 10 and 11 passes in 3-24 ms on most instances but took
    # 2.5 s on one drawn instance, a quarter of a pass, so these twelve ops
    # use the same gen seeds, 0 and 1, every time.
    for n in (10, 11, 12):
        for k in (2, 3):
            for g in range(2):
                _mink_op(c, n, k, g)


def _mink_op(c: Corpus, n: int, k: int, g: int) -> None:
    path = c.gen("nbp", n, g, "--signed")
    c.add(f"mink-k{k}/n{n}/g{g}", f"reduce to-nbp --oracle exact-mink --k {k}", n,
          ["reduce", "to-nbp", "--oracle", "exact-mink", "--k", str(k), "--input", path],
          partial(check_to_nbp, a=read_instance(path), k_max=k))


# kk is left out: its delta = 1 makes generalized_nbp refuse every
# pipeline-branch ellipsoid.  mitm is capped at Q = 16: with Q >= 256 at
# n >= 4, mitm_min materialises 3^16 half-sums and exhausts an 8 GB machine.
MINKOWSKI_ORACLES = (("mitm-q16", ["--oracle", "mitm", "--Q", "16"]),
                     ("pigeonhole", ["--oracle", "pigeonhole"]))


def _to_minkowski(c: Corpus, lib) -> None:
    def add(n: int, g: int, tag: str) -> None:
        path = c.gen("ellipsoid", n, g)
        chk = partial(check_to_minkowski, a_rows=read_ellipsoid_matrix(path))
        for name, flags in MINKOWSKI_ORACLES:
            c.add(f"{tag}/n{n}/g{g}/{name}", f"reduce to-minkowski {' '.join(flags)}", n,
                  ["reduce", "to-minkowski", *flags, "--input", path], chk)

    # Natural draws mostly end in well-rounding's integer-point branch; the
    # few that do not are skipped here, so every pass runs the same number
    # of pipeline ops.  All natural ops are cheaper than all pipeline ops;
    # the counts put op_ms_p50 in the middle of the natural n = 3 class.
    for n, count in ((2, 39), (3, 30), (4, 5)):
        found = 0
        while found < count:
            g = c.draw()
            if lib.geometry.well_round(lib.generators.gen_ellipsoid(n, g)).branch != "rounded":
                add(n, g, "natural")
                found += 1
    # the pipeline branch: scan gen seeds upward until enough ellipsoids
    # well-round to "rounded" (about 1 in 10 at n = 2, 1 in 40 at n = 4).
    # An op's cost varies by about 18 % between ellipsoids of one size, so
    # the many n = 3 ops carry op_ms_p90 (the upper fifth of their class)
    # and most of the pass time; an n = 4 op costs 5-6 times as much.
    for n, count in ((2, 4), (3, 44), (4, 4)):
        g = c.draw()
        found = 0
        while found < count:
            if lib.geometry.well_round(lib.generators.gen_ellipsoid(n, g)).branch == "rounded":
                add(n, g, "rounded")
                found += 1
            g += 1


def build(workload: str, seed: int, lib, workdir: Path) -> list[Op]:
    """The op list of one pass, in a seeded shuffled order."""
    c = Corpus(lib.cli.main, workdir, workload, seed)
    if workload == "solve":
        _solve(c)
    elif workload == "lattice":
        _lattice(c)
    elif workload == "to-nbp":
        _to_nbp(c)
    else:
        _to_minkowski(c, lib)
    ids = [op.id for op in c.ops]
    if len(set(ids)) != len(ids):
        raise RuntimeError("duplicate op ids in the corpus")
    c.rng.shuffle(c.ops)
    return c.ops
