#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, summarised as a BENCH_*.json.

Extracts ``git archive <parent>`` and a copy of the working tree (tracked
files plus untracked ones that .gitignore does not exclude) into a
temporary directory, then for each seed runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

once in each copy, one run at a time: on an odd seed the change runs first,
on an even seed the parent.  It prints the medians and quartiles (inclusive
method) of every end-to-end metric for both sides, for each metric the
number of pairs in which the change was better in that metric's direction
(``better`` in BENCHMARK.json), and every run.  Standard library only;
nothing is written into the repository except the ``--out`` file.

    python3 tools/bench_pairs.py --parent HEAD~1 --workload to-nbp --seeds 21-30 \\
        --out BENCH_N.json

``--workload`` may be given more than once; each workload gets the whole
seed range.  ``claim`` is null unless ``--claim METRIC`` names a gain to
claim; the claim is then made on the first workload, for that metric, and
its ``gain`` is the relative change of the medians, negative when a
lower-is-better metric falls.  Exits 1 when a run fails.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# each end-to-end metric and the direction in which it is better, "higher" or "lower"
BETTER = {m["name"]: m["better"]
          for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
METRICS = tuple(BETTER)


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def extract_parent(rev: str, dest: Path) -> None:
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        tar.extractall(dest)


def copy_working_tree(dest: Path) -> None:
    for name in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split(b"\0"):
        src = ROOT / name.decode()
        if name and src.is_file():  # a tracked file may be deleted in the working tree
            (dest / name.decode()).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name.decode())


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"bench_pairs: {' '.join(cmd)} in {checkout.name} exited {proc.returncode}\n"
                 + proc.stderr[-2000:])
    result = json.loads(lines[-1])
    run = {n: result["metrics"][n]["value"] for n in METRICS}
    return {**run, "attempted": result["attempted"], "failed": result["failed"],
            "correct": result["correct"]}


def spread(values: list[float]) -> tuple[float, list[float]]:
    if len(values) < 2:
        return values[0], [values[0], values[0]]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, [q1, q3]


def summarise(runs: list[dict], workload: str) -> dict:
    side = {s: [r for r in runs if r["workload"] == workload and r["side"] == s]
            for s in ("parent", "change")}
    out: dict = {"pairs": len(side["change"])}
    for metric in METRICS:
        entry = {}
        for s in ("parent", "change"):
            median, quartiles = spread([r[metric] for r in side[s]])
            entry[f"{s}_median"] = round(median, 4)
            entry[f"{s}_quartiles"] = [round(q, 4) for q in quartiles]
        out[metric] = entry
    for metric in METRICS:
        sign = 1 if BETTER[metric] == "higher" else -1
        parent = {r["seed"]: r[metric] for r in side["parent"]}
        out[f"{metric}_change_wins"] = sum(
            sign * (r[metric] - parent[r["seed"]]) > 0 for r in side["change"])
    return out


def claim(workloads: dict, workload: str, metric: str | None) -> dict | None:
    """The claimed gain of ``metric`` on ``workload``'s summary; None when none is claimed."""
    if metric is None:
        return None
    summary = workloads[workload]
    entry = summary[metric]
    return {
        "workload": workload,
        "metric": metric,
        "parent_median": entry["parent_median"],
        "change_median": entry["change_median"],
        "gain": round(entry["change_median"] / entry["parent_median"] - 1, 3),
        "change_wins": summary[f"{metric}_change_wins"],
        "pairs": summary["pairs"],
        "parent_iqr": round(entry["parent_quartiles"][1] - entry["parent_quartiles"][0], 4),
    }


def parse_seeds(text: str) -> range:
    """"A-B" or "A" as an inclusive range; an empty one is a usage error."""
    first, _, last = text.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    if not seeds:
        raise argparse.ArgumentTypeError(f"{text!r} names no seed")
    return seeds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--workload", required=True, action="append")
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="A-B, inclusive")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--claim", choices=METRICS,
                        help="claim a gain in this metric, on the first workload")
    parser.add_argument("--out", type=Path, help="also write the summary to this file")
    args = parser.parse_args(argv)

    parent_sha = git("rev-parse", "--verify", args.parent + "^{commit}").decode().strip()
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        checkouts = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        extract_parent(parent_sha, checkouts["parent"])
        copy_working_tree(checkouts["change"])
        for workload in args.workload:
            for seed in args.seeds:
                order = ("change", "parent") if seed % 2 else ("parent", "change")
                for side in order:
                    run = run_once(checkouts[side], workload, seed, args.seconds)
                    runs.append({"side": side, "workload": workload, "seed": seed, **run})
                    print(json.dumps(runs[-1]), file=sys.stderr)

    workloads = {w: summarise(runs, w) for w in args.workload}
    seeds = f"{args.seeds.start}-{args.seeds.stop - 1}"
    summary = {
        "parent_commit": parent_sha,
        "command": f"python3 perfbench/run.py --workload <w> --seed <s> "
                   f"--seconds {args.seconds:g} --trace 0",
        "method": "parent (git archive of the parent commit) and change (copy of the working "
                  "tree) run from separate temporary directories, one run at a time, "
                  "alternating which side runs first (odd seed: change first); medians and "
                  f"quartiles (inclusive method); seeds {seeds} on each of "
                  + ", ".join(args.workload),
        "claim": claim(workloads, args.workload[0], args.claim),
        "workloads": workloads,
        "runs": runs,
    }
    text = json.dumps(summary, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    print(text, end="")
    return 1 if any(r["failed"] for r in runs) else 0


if __name__ == "__main__":
    sys.exit(main())
