"""tools/layers.py: per-call timing of the search loop's steps."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("layers", ROOT / "tools" / "layers.py")
layers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layers)

# Calls per pass of each workload.  The search is deterministic, so these
# move only when the search itself changes.  exact_random's 4x4 and 5x5
# grids are below the key index's size, so its steps are never called.
CALLS = {
    "sierpinski16": {  # 5 solves of 2000 merges
        "KeyIndex.probe": 7000,
        "KeyIndex.sync": 2904,
        "KeyIndex.restore": 2792,
        "_Engine._find_conflict": 3000,
        "_Engine._apply_merge": 5953,
        "_Engine._undo_merge": 5564,
        "_Engine._adopt_incumbent": 201,
    },
    "random16": {  # 2 solves of 7500 merges
        "KeyIndex.probe": 14548,
        "KeyIndex.sync": 519,
        "KeyIndex.restore": 278,
        "_Engine._find_conflict": 452,
        "_Engine._apply_merge": 1102,
        "_Engine._undo_merge": 761,
        "_Engine._adopt_incumbent": 260,
    },
    "exact_random": {  # 62 exact solves
        "KeyIndex.probe": 0,
        "KeyIndex.sync": 0,
        "KeyIndex.restore": 0,
        "_Engine._find_conflict": 54525,
        "_Engine._apply_merge": 54525,
        "_Engine._undo_merge": 54525,
        "_Engine._adopt_incumbent": 673,
    },
}


@pytest.mark.parametrize("workload", sorted(CALLS))
def test_call_counts(workload, tmp_path, capsys):
    out = tmp_path / "layers.json"
    assert layers.main(["--workload", workload, "--passes", "2", "--json", str(out)]) == 0
    table = json.loads(out.read_text())
    assert {r["name"]: r["calls"] for r in table["rows"]} == CALLS[workload]
    assert all(r["us_per_call"] > 0 and 0 < r["share"] < 1 for r in table["rows"] if r["calls"])
    # what no timed step covers: the loop in _run and _node, _tick, rng draws
    assert 0 < table["rest_share"] < 1
    # the offset is measured next to each timed pass and the least taken off
    lo, hi = table["timer_offset_range_us"]
    assert 0 < lo <= hi and table["timer_offset_us"] == lo
    printed = capsys.readouterr().out
    assert "KeyIndex.probe" in printed and f"(range {lo:.3f}-{hi:.3f} " in printed
    assert "rest (untimed)" in printed


def test_a_result_off_its_reference_prints_no_table(monkeypatch, capsys):
    monkeypatch.setattr(layers.workloads, "check", lambda *args: "differs")
    assert layers.main(["--workload", "sierpinski16", "--passes", "1"]) == 1
    captured = capsys.readouterr()
    assert "layers: FAIL seed0: differs" in captured.err
    assert "KeyIndex.probe" not in captured.out
