"""tools/layers.py: per-call timing of the search loop's steps."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("layers", ROOT / "tools" / "layers.py")
layers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layers)

# Calls per pass of sierpinski16 (5 solves of 2000 merges).  The search is
# deterministic, so these move only when the search itself changes.
SIERPINSKI16_CALLS = {
    "KeyIndex.probe": 7000,
    "KeyIndex.sync": 2904,
    "KeyIndex.restore": 2792,
    "_Engine._find_conflict": 3005,
    "_Engine._apply_merge": 5953,
    "_Engine._undo_merge": 5564,
    "_Engine._adopt_incumbent": 201,
}


def test_sierpinski16_call_counts(tmp_path, capsys):
    out = tmp_path / "layers.json"
    assert layers.main(["--workload", "sierpinski16", "--passes", "1", "--json", str(out)]) == 0
    table = json.loads(out.read_text())
    assert {r["name"]: r["calls"] for r in table["rows"]} == SIERPINSKI16_CALLS
    assert all(r["us_per_call"] > 0 and 0 < r["share"] < 1 for r in table["rows"])
    assert "KeyIndex.probe" in capsys.readouterr().out


def test_a_result_off_its_reference_prints_no_table(monkeypatch, capsys):
    monkeypatch.setattr(layers.workloads, "check", lambda *args: "differs")
    assert layers.main(["--workload", "sierpinski16", "--passes", "1"]) == 1
    captured = capsys.readouterr()
    assert "layers: FAIL seed0: differs" in captured.err
    assert "KeyIndex.probe" not in captured.out
