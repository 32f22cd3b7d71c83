"""tools/bench_pairs.py: its seed ranges and its per-metric win counts."""

import argparse
import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


def load_tool():
    """tools/bench_pairs.py as a module of its own, read from the file."""
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCH_PAIRS = load_tool()


@pytest.mark.parametrize("text, seeds", [("5", [5]), ("3-7", [3, 4, 5, 6, 7])])
def test_parse_seeds(text, seeds):
    assert list(BENCH_PAIRS.parse_seeds(text)) == seeds


def test_a_reversed_seed_range_is_a_usage_error(capsys):
    with pytest.raises(argparse.ArgumentTypeError):
        BENCH_PAIRS.parse_seeds("7-3")
    # refused while parsing, before any checkout is made
    with pytest.raises(SystemExit) as exc:
        BENCH_PAIRS.main(["--parent", "HEAD", "--workload", "solve", "--seeds", "7-3"])
    assert exc.value.code == 2
    assert "names no seed" in capsys.readouterr().err


def run(side, seed, ops_per_s, op_ms_p50):
    metrics = dict.fromkeys(BENCH_PAIRS.METRICS, 1.0)
    metrics.update(ops_per_s=ops_per_s, op_ms_p50=op_ms_p50)
    return {"side": side, "workload": "w", "seed": seed, **metrics}


def test_summarise_counts_wins_in_each_metrics_direction():
    assert BENCH_PAIRS.BETTER["ops_per_s"] == "higher"
    assert BENCH_PAIRS.BETTER["op_ms_p50"] == "lower"
    runs = [
        run("parent", 1, 100.0, 0.50), run("change", 1, 110.0, 0.45),  # change better in both
        run("parent", 2, 100.0, 0.50), run("change", 2, 90.0, 0.40),   # faster p50, fewer ops
        run("parent", 3, 100.0, 0.50), run("change", 3, 105.0, 0.55),  # more ops, slower p50
        run("parent", 4, 100.0, 0.50), run("change", 4, 100.0, 0.50),  # a tie is not a win
    ]
    summary = BENCH_PAIRS.summarise(runs, "w")
    assert summary["pairs"] == 4
    assert summary["ops_per_s_change_wins"] == 2
    assert summary["op_ms_p50_change_wins"] == 2
    assert summary["peak_rss_mb_change_wins"] == 0
    assert summary["ops_per_s"]["change_median"] == 102.5
    assert summary["ops_per_s"]["parent_quartiles"] == [100.0, 100.0]


def test_a_claim_is_made_only_when_asked():
    runs = [run("parent", 1, 100.0, 0.50), run("change", 1, 110.0, 0.45),
            run("parent", 2, 100.0, 0.50), run("change", 2, 90.0, 0.55)]
    workloads = {"w": BENCH_PAIRS.summarise(runs, "w")}
    assert BENCH_PAIRS.claim(workloads, "w", None) is None
    assert BENCH_PAIRS.claim(workloads, "w", "op_ms_p50") == {
        "workload": "w", "metric": "op_ms_p50", "parent_median": 0.5, "change_median": 0.5,
        "gain": 0.0, "change_wins": 1, "pairs": 2, "parent_iqr": 0.0,
    }
    assert BENCH_PAIRS.claim(workloads, "w", "ops_per_s")["change_wins"] == 1


def test_without_claim_the_summary_claims_nothing(monkeypatch, capsys):
    # git, the checkouts and the runs are stubbed; --claim has no default
    monkeypatch.setattr(BENCH_PAIRS, "git", lambda *args: b"parent-sha\n")
    monkeypatch.setattr(BENCH_PAIRS, "extract_parent", lambda rev, dest: None)
    monkeypatch.setattr(BENCH_PAIRS, "copy_working_tree", lambda dest: None)
    monkeypatch.setattr(BENCH_PAIRS, "run_once", lambda *args: {
        **dict.fromkeys(BENCH_PAIRS.METRICS, 1.0), "attempted": 1, "failed": 0, "correct": True})
    assert BENCH_PAIRS.main(["--parent", "HEAD", "--workload", "w", "--seeds", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["claim"] is None
