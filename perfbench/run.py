"""Seeded closed-loop benchmark of the balancelat CLI pipelines.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload solve --seed 1 --seconds 20 --trace 0

One op is one in-process ``balancelat.cli.main(argv)`` call (one client, one
thread, the next op starts when the previous one returns) on documents the
benchmark writes with ``balancelat gen`` from ``--seed``.  Each report is
re-verified from outside in exact arithmetic (checks.py) and, for the
default seed, compared with its stored sha256 (digests.json).

The timed phase runs whole passes over the corpus, at least one, and starts
another only while it is expected to end within ``--seconds``.  With
``--trace 0`` it prints the end-to-end metrics, with every op and set-up
timed at a fixed reference speed of the machine (speed.py); with
``--trace 1`` it runs one pass with every layer boundary wrapped
(tracing.py), re-runs every third op untraced right after its traced run to
measure the tracing overhead, and prints the per-layer metrics.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import re
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import CheckFailed  # noqa: E402
from speed import REFERENCE_MS, Speed  # noqa: E402
from tracing import Tracer, metric_units  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402

DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 1
SETUP_REPEATS = 3
OVERHEAD_STRIDE = 3
REFUSAL = re.compile(r"exceed(s|ed) budget")


def load_library():
    """Import balancelat afresh from the checkout's src/ (part of set-up time)."""
    for name in [m for m in sys.modules if m == "balancelat" or m.startswith("balancelat.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    lib = SimpleNamespace(cli=importlib.import_module("balancelat.cli"))
    lib.generators = importlib.import_module("balancelat.generators")
    lib.geometry = importlib.import_module("balancelat.geometry")
    return lib


def call(lib, argv: list[str], speed: Speed | None = None) -> tuple:
    """One op: (exit code or None on an exception, wall seconds, seconds at
    the reference speed or None without ``speed``, captured stderr)."""
    err = io.StringIO()

    def op() -> int | None:
        try:
            return lib.cli.main(argv)
        except (Exception, SystemExit) as exc:  # a crash is a failed op, not a crashed benchmark
            err.write(f"{type(exc).__name__}: {exc}")
            return None

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        if speed is not None:
            code, elapsed, scaled = speed.run(op)
        else:
            start = time.perf_counter()
            code = op()
            elapsed, scaled = time.perf_counter() - start, None
    return code, elapsed, scaled, err.getvalue()


def setup(workload: str, seed: int, workdir: Path):
    """Import, write the corpus, and warm up one op per kind; returns (lib, ops)."""
    corpus = workdir / "corpus"
    shutil.rmtree(corpus, ignore_errors=True)
    corpus.mkdir(parents=True)
    lib = load_library()
    ops = build(workload, seed, lib, corpus)
    warm = {}
    for op in ops:
        if op.kind not in warm or op.size < warm[op.kind].size:
            warm[op.kind] = op
    for op in warm.values():
        call(lib, op.argv + ["--out", str(workdir / "warmup.out")])
    return lib, ops


class Outcomes:
    """Per-op results of the timed phase and their classification."""

    def __init__(self, digests: dict | None) -> None:
        self.digests = digests
        self.times: list[float] = []  # wall seconds
        self.scaled: list[float] = []  # the same at the reference speed, untraced runs only
        self.status: list[str] = []  # ok | refused | failed
        self.reasons: list[str] = []
        self.recorded: dict[str, str | None] = {}
        self.ids: list[str] = []

    def judge(self, op, code, elapsed, stderr, report_path: Path) -> object:
        """Classify one op; returns its check value for the cross-check."""
        status, reason, value, digest = "ok", "", None, None
        if code == 0 and report_path.exists():
            text = report_path.read_text(encoding="utf-8")
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            try:
                value = op.check(text)
            except (CheckFailed, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
                status, reason = "failed", f"check: {type(exc).__name__}: {exc}"
            expected = self.digests.get(op.id, "missing") if self.digests is not None else None
            if status == "ok" and expected is not None and digest != expected:
                status, reason = "failed", "reference digest mismatch"
        elif code == 3 and REFUSAL.search(stderr):
            status, reason = "refused", stderr.strip()
        else:
            status, reason = "failed", f"exit {code}: {stderr.strip()[:200]}"
        self.recorded[op.id] = digest
        self.ids.append(op.id)
        self.times.append(elapsed)
        self.status.append(status)
        self.reasons.append(f"{op.id}: {reason}")
        return value

    def cross_check(self, ops, values, first: int) -> None:
        """Ops sharing an xcheck key (brute force and MITM) must agree."""
        groups: dict[str, set] = {}
        for op, value in zip(ops, values):
            if op.xcheck and value is not None:
                groups.setdefault(op.xcheck, set()).add(value)
        for i, op in enumerate(ops):
            if op.xcheck and len(groups.get(op.xcheck, ())) > 1 and self.status[first + i] == "ok":
                self.status[first + i] = "failed"
                self.reasons[first + i] = f"{op.id}: exact solvers disagree"


def run_pass(lib, ops, outcomes: Outcomes, workdir: Path, tracer: Tracer | None = None,
             speed: Speed | None = None) -> None:
    """One pass over the corpus, timed at the reference speed when ``speed`` is given."""
    report = workdir / "report.out"
    first = len(outcomes.times)
    values = []
    for i, op in enumerate(ops):
        report.unlink(missing_ok=True)
        if tracer is not None:
            tracer.op = i
        argv = op.argv + ["--out", str(report)]
        code, elapsed, scaled, stderr = call(lib, argv, speed)
        if scaled is not None:
            outcomes.scaled.append(scaled)
        values.append(outcomes.judge(op, code, elapsed, stderr, report))
        if tracer is not None and i % OVERHEAD_STRIDE == 0:
            tracer.uninstall()
            tracer.overhead_pairs.append((elapsed, call(lib, argv)[1]))
            tracer.install()
    outcomes.cross_check(ops, values, first)


def end_to_end(outcomes: Outcomes, setup_s: list[float]) -> dict:
    ok = outcomes.status.count("ok")
    # refused or failed ops miss any latency limit: they sort as +inf
    lat = sorted(t * 1000 if s == "ok" else math.inf
                 for t, s in zip(outcomes.scaled, outcomes.status))
    p90 = lat[math.ceil(0.9 * len(lat)) - 1]  # nearest rank
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "ops_per_s": (ok / sum(outcomes.scaled), "ops/s"),
        "op_ms_p50": (statistics.median(lat), "ms"),
        "op_ms_p90": (p90, "ms"),
        "pass_rate": (ok / len(lat), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="run one pass at the default seed and store its report digests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "balancelat" / "cli.py").is_file():
        print(f"perfbench: no balancelat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("BALANCELAT_BUDGET", None)
    workdir = ROOT / ".perfbench_work" / args.workload
    seed = DEFAULT_SEED if args.record_digests else args.seed

    speed, setup_s = Speed(), []
    for _ in range(SETUP_REPEATS):
        (lib, ops), _, scaled = speed.run(lambda: setup(args.workload, seed, workdir))
        setup_s.append(scaled)

    stored = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    digests = None
    if seed == DEFAULT_SEED and not args.record_digests:
        digests = stored.get(args.workload, {})
    outcomes = Outcomes(digests)

    if args.record_digests:
        run_pass(lib, ops, outcomes, workdir)
        if "failed" in outcomes.status:
            print("perfbench: not recording, some ops failed their checks", file=sys.stderr)
            return 1
        stored[args.workload] = dict(sorted(outcomes.recorded.items()))
        DIGESTS.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
        print(f"recorded {len(ops)} digests for {args.workload}", file=sys.stderr)
        return 0

    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            run_pass(lib, ops, outcomes, workdir, tracer)
        finally:
            tracer.uninstall()
        tracer.write_spans(workdir / f"spans-seed{seed}.tsv.gz")
        silent = tracer.silent_boundaries(args.workload)
        if silent:
            print(f"perfbench: boundaries with zero calls on {args.workload}: "
                  + ", ".join(silent), file=sys.stderr)
            return 1
        values = tracer.metrics()
        metrics = {n: {"value": values[n], "unit": u} for n, u in metric_units().items()}
    else:
        start = time.perf_counter()
        while True:
            run_pass(lib, ops, outcomes, workdir, speed=speed)
            elapsed = time.perf_counter() - start
            passes = len(outcomes.times) // len(ops)
            if elapsed + elapsed / passes > args.seconds:
                break
        metrics = {n: {"value": v, "unit": u}
                   for n, (v, u) in end_to_end(outcomes, setup_s).items()}

    with open(workdir / f"ops-seed{seed}.tsv", "w", encoding="utf-8") as fh:
        fh.write("op\tstatus\tms\tms_at_reference\n")
        scaled = outcomes.scaled or [math.nan] * len(outcomes.times)
        for row in zip(outcomes.ids, outcomes.status, outcomes.times, scaled):
            fh.write(f"{row[0]}\t{row[1]}\t{row[2] * 1000:.3f}\t{row[3] * 1000:.3f}\n")
    failed = outcomes.status.count("failed")
    print(f"perfbench: {args.workload} seed {seed}: {len(ops)} ops per pass, "
          f"{len(outcomes.status)} timed, set-up {[round(s, 2) for s in setup_s]} s at "
          f"reference speed, reference {statistics.median(speed.samples):.3f} ms "
          f"(nominal {REFERENCE_MS} ms)",
          file=sys.stderr)
    for status, reason in zip(outcomes.status, outcomes.reasons):
        if status != "ok":
            print(f"{status}: {reason}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": len(outcomes.status),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
