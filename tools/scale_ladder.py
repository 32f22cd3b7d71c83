#!/usr/bin/env python3
"""A scaling ladder: searches timed at sizes past the benchmark corpus.

Each ladder is one search at growing n, and each of its rungs is one child
process run from the sources under ``--src`` (default: this checkout's
src/), one child at a time.  The ladders are

- ``reduce to-nbp --full --oracle O`` for O in exact-mink and exact-svp, on
  ``gen nbp --n n --seed 3 --signed`` at n = 16, 64, 144, 256 and 400;
- ``reduce to-nbp --oracle exact-mink --k 2`` on ``gen nbp --n n --seed 0
  --signed`` at n = 12, 16, 20 and 24;
- ``reduce to-nbp --oracle exact-svp --k 2`` on ``gen nbp --n n --seed 1
  --signed`` at n = 7, 10, 13 and 16: the op class of the ``lattice``
  benchmark workload whose exact SVP searches are its slowest, scaled up;
- ``minkowski_exact_oracle`` on a cube-slab body that holds no point, at
  n = 20, 24, 28 and 32: the open cube (-2, 2)^n cut by the slab
  <a, x> = 0 for a = ``gen_nbp(n, 0, 4n, signed)``, whose 4n-bit entries
  no point of {-1, 0, 1}^n cancels (the walk says so up to n = 28).  The
  walk searches the whole box, so its nodes and its tail table grow with
  n up to the default budget.

The ``--oracle lll`` pipeline has no ladder: with ``--full`` it always
answers through the Karmarkar–Karp fallback, so its rungs time process
start only.

Each rung has a wall limit (WALL_S seconds; the child is killed when it
passes it) and an address-space limit (MEMORY_MB, set by
``resource.setrlimit(RLIMIT_AS)`` in the child before it starts), so a
rung that runs out of either ends instead of holding the machine.  For each
rung the tool records the wall time, the child's ``ru_maxrss``, its exit
code and the sha256 of its report.  A ladder stops at its first rung that
does not exit 0: over the wall limit, or refused (exit 3, such as a search
over $BALANCELAT_BUDGET, which the child inherits, or a tail table that
does not fit in MEMORY_MB).  The documents are written, by the same
sources, into a temporary directory; nothing is written into the
repository except the ``--out`` file.  Standard library only.

    python3 tools/scale_ladder.py --out ladder.json
    python3 tools/scale_ladder.py --src /path/to/parent/src --out parent.json
    python3 tools/scale_ladder.py --rungs 1     # the smallest rung of each ladder
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WALL_S = 120.0  # the wall limit of one rung, seconds
MEMORY_MB = 1024  # the address-space limit of one rung
# the no-point ladder's child: prints the oracle's point or NotFound's
# message, and exits 3 on a refusal, as the CLI does
NO_POINT = """\
import sys
from balancelat.errors import BalanceLatError, NotFound
from balancelat.generators import gen_nbp
from balancelat.geometry import CubeSlabBody, minkowski_exact_oracle

n = int(sys.argv[1])
body = CubeSlabBody(gen_nbp(n, 0, 4 * n, True), 0, 2)
try:
    print(minkowski_exact_oracle(body))
except NotFound as exc:
    print(exc)
except BalanceLatError as exc:
    print(f"error: {exc}", file=sys.stderr)
    sys.exit(3)
"""


def cli(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "balancelat.cli", *argv]


def child_env(src: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(src)}


def pipeline(seed: int, argv: list[str]):
    """The rungs of ``reduce to-nbp`` on ``gen nbp --seed <seed> --signed`` documents."""

    def command(src: Path, n: int, workdir: Path) -> list[str]:
        doc = workdir / f"nbp-n{n}-seed{seed}.json"
        if not doc.exists():
            subprocess.run(cli(["gen", "nbp", "--n", str(n), "--seed", str(seed), "--signed",
                                "--out", str(doc)]),
                           env=child_env(src), check=True, capture_output=True)
        return cli([*argv, "--input", str(doc)])

    return command


def no_point(src: Path, n: int, workdir: Path) -> list[str]:
    return [sys.executable, "-c", NO_POINT, str(n)]


# each ladder: its name, its sizes, and the command of its rung at size n
LADDERS = [
    *((f"to-nbp --full --oracle {oracle}", (16, 64, 144, 256, 400),
       pipeline(3, ["reduce", "to-nbp", "--full", "--oracle", oracle]))
      for oracle in ("exact-mink", "exact-svp")),
    ("to-nbp --oracle exact-mink --k 2", (12, 16, 20, 24),
     pipeline(0, ["reduce", "to-nbp", "--oracle", "exact-mink", "--k", "2"])),
    ("to-nbp --oracle exact-svp --k 2", (7, 10, 13, 16),
     pipeline(1, ["reduce", "to-nbp", "--oracle", "exact-svp", "--k", "2"])),
    ("minkowski_exact_oracle, a body with no point", (20, 24, 28, 32), no_point),
]


def run_rung(src: Path, command: list[str], workdir: Path) -> dict:
    """One child under the two limits: its wall time, ru_maxrss, exit code and report digest."""

    def limit_memory() -> None:  # runs in the child, before it starts Python
        size = MEMORY_MB * 2**20
        resource.setrlimit(resource.RLIMIT_AS, (size, size))

    report, errors = workdir / "report", workdir / "stderr"
    with report.open("wb") as out, errors.open("wb") as err:
        start = time.perf_counter()
        child = subprocess.Popen(command, env=child_env(src), stdout=out, stderr=err,
                                 preexec_fn=limit_memory)
        timed_out = False
        while True:
            pid, status, usage = os.wait4(child.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() - start > WALL_S:
                child.kill()
                pid, status, usage = os.wait4(child.pid, 0)
                timed_out = True
                break
            time.sleep(0.002)
        elapsed = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    stderr = errors.read_bytes().decode(errors="replace").strip().splitlines()
    return {
        "wall_s": round(elapsed, 3),
        "maxrss_mb": round(usage.ru_maxrss / 1024, 1),
        "exit": child.returncode,
        "timed_out": timed_out,
        "report_sha256": hashlib.sha256(report.read_bytes()).hexdigest(),
        "stderr_tail": stderr[-1] if stderr else "",
    }


def climb(src: Path, ladder: tuple, rungs: int, workdir: Path) -> list[dict]:
    """The ladder's first ``rungs`` rungs, up to and including its first that fails."""
    name, sizes, command = ladder
    steps = []
    for n in sizes[:rungs]:
        step = {"n": n, **run_rung(src, command(src, n, workdir), workdir)}
        steps.append(step)
        print(f"{name:46} n={n:<4} {step['wall_s']:9.3f} s {step['maxrss_mb']:7.1f} MB "
              f"exit {step['exit']}{' (wall limit)' if step['timed_out'] else ''}",
              file=sys.stderr)
        if step["exit"] != 0:
            break
    return steps


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the sources to run (a directory holding balancelat/)")
    parser.add_argument("--rungs", type=int, default=max(len(ladder[1]) for ladder in LADDERS),
                        help="climb at most this many rungs of each ladder")
    parser.add_argument("--out", type=Path, help="also write the JSON to this file")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    if not (src / "balancelat" / "cli.py").is_file():
        parser.error(f"no balancelat sources under {src}")
    if args.rungs < 1:
        parser.error("--rungs must be positive")

    with tempfile.TemporaryDirectory(prefix="scale_ladder_") as tmp:
        ladders = {ladder[0]: climb(src, ladder, args.rungs, Path(tmp)) for ladder in LADDERS}
    summary = {
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "wall_limit_s": WALL_S,
        "memory_limit_mb": MEMORY_MB,
        "budget": os.environ.get("BALANCELAT_BUDGET", "default"),
        "ladders": ladders,
    }
    text = json.dumps(summary, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
