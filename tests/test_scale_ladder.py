"""tools/scale_ladder.py: the smallest rung of each ladder, and where a ladder stops."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "scale_ladder.py"


def load_tool():
    """tools/scale_ladder.py as a module of its own, read from the file."""
    spec = importlib.util.spec_from_file_location("scale_ladder", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SCALE_LADDER = load_tool()
SMALLEST = {name: (key, sizes[0]) for name, key, sizes, _ in SCALE_LADDER.LADDERS}


def test_smallest_rung_of_each_ladder(tmp_path, capsys):
    # six children of about 0.1-0.2 s each, and the five documents they read
    out = tmp_path / "ladder.json"
    assert SCALE_LADDER.main(["--rungs", "1", "--out", str(out)]) == 0
    ladders = json.loads(out.read_text())["ladders"]
    assert list(ladders) == list(SMALLEST)
    for name, (step,) in ladders.items():
        key, size = SMALLEST[name]
        assert step[key] == size
        assert step["exit"] == 0 and not step["timed_out"], (name, step)
        assert step["maxrss_mb"] > 0 and 0 < step["wall_s"] < 60
        assert len(step["report_sha256"]) == 64
    assert json.loads(capsys.readouterr().out)["ladders"] == ladders


def test_a_ladder_stops_at_its_first_rung_over_a_limit(tmp_path, monkeypatch):
    # a wall limit no child can meet: each ladder records its first rung,
    # killed, and climbs no further
    monkeypatch.setattr(SCALE_LADDER, "WALL_S", 0.001)
    out = tmp_path / "ladder.json"
    assert SCALE_LADDER.main(["--rungs", "2", "--out", str(out)]) == 0
    summary = json.loads(out.read_text())
    assert summary["wall_limit_s"] == 0.001
    for name, steps in summary["ladders"].items():
        assert len(steps) == 1 and steps[0]["timed_out"], (name, steps)
        assert steps[0]["exit"] != 0


def test_rungs_must_be_positive(capsys):
    with pytest.raises(SystemExit) as exc:
        SCALE_LADDER.main(["--rungs", "0"])
    assert exc.value.code == 2
    assert "must be positive" in capsys.readouterr().err
