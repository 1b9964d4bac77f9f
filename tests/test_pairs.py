"""tools/pairs.py: the summary of paired runs, and its exit status."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

METRICS = [
    {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "merges_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]


def test_summary_on_fixed_numbers():
    parent = [{"run_s": p, "merges_per_s": 100.0} for p in (1.0, 2.0, 3.0, 4.0, 5.0)]
    change = [
        {"run_s": c, "merges_per_s": m}
        for c, m in ((0.9, 110.0), (1.8, 90.0), (3.3, 100.0), (3.6, 120.0), (4.5, 130.0))
    ]
    run_s, rate = pairs.summarize(METRICS, parent, change)
    assert (run_s["parent_q1"], run_s["parent_median"], run_s["parent_q3"]) == (2.0, 3.0, 4.0)
    assert run_s["change_median"] == 3.3
    assert (run_s["won"], run_s["pairs"]) == (4, 5)
    assert run_s["ratio_median"] == pytest.approx(0.9)
    # higher is better here, and a tie is not a win
    assert (rate["won"], rate["pairs"]) == (3, 5)
    assert rate["ratio_median"] == pytest.approx(1.1)
    assert rate["parent_q1"] == rate["parent_q3"] == 100.0
    table = pairs.format_rows([run_s, rate]).splitlines()
    assert table[1].split() == ["run_s", "3", "[2", "-", "4]", "3.3", "4/5", "0.9000"]


def test_one_pair_has_degenerate_quartiles():
    (row, _) = pairs.summarize(METRICS, [{"run_s": 2.0, "merges_per_s": 1.0}],
                               [{"run_s": 1.0, "merges_per_s": 1.0}])
    assert (row["parent_q1"], row["parent_median"], row["parent_q3"]) == (2.0, 2.0, 2.0)
    assert (row["won"], row["ratio_median"]) == (1, 0.5)


def _checkout(tmp_path, name, correct, run_s):
    """A directory whose perfbench/run.py prints one fixed result."""
    metrics = {m["name"]: {"value": run_s, "unit": m["unit"]} for m in pairs.end_to_end_metrics()}
    bench = tmp_path / name / "perfbench"
    bench.mkdir(parents=True)
    result = json.dumps({"correct": correct, "metrics": metrics})
    (bench / "run.py").write_text(f"import sys\nprint({result!r})\nsys.exit({0 if correct else 1})\n")
    return bench.parent


def test_main_runs_alternating_pairs(tmp_path, capsys):
    parent = _checkout(tmp_path, "parent", True, 2.0)
    change = _checkout(tmp_path, "change", True, 1.0)
    argv = [str(parent), str(change), "--workload", "random16", "--pairs", "2",
            "--seconds", "1", "--seed-base", "7"]
    assert pairs.main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("pair 0 seed 7 first parent: run_s 2 -> 1")
    assert out[1].startswith("pair 1 seed 8 first change: ")
    assert out[2] == "random16: 2 pairs of 1 s runs, seeds 7-8"
    assert out[4].split()[-2:] == ["2/2", "0.5000"]


def test_main_exits_one_on_an_incorrect_run(tmp_path, capsys):
    parent = _checkout(tmp_path, "parent", True, 2.0)
    change = _checkout(tmp_path, "change", False, 1.0)
    argv = [str(parent), str(change), "--workload", "random16", "--pairs", "1",
            "--seconds", "1", "--seed-base", "0"]
    assert pairs.main(argv) == 1
    assert "pair 0 seed 0: change run not correct" in capsys.readouterr().err


def test_json_records_the_runs_and_the_summary(tmp_path, capsys):
    parent = _checkout(tmp_path, "parent", True, 2.0)
    change = _checkout(tmp_path, "change", True, 1.0)
    path = tmp_path / "bench.json"
    argv = [str(parent), str(change), "--workload", "random16", "--pairs", "2", "--seconds", "1",
            "--seed-base", "7", "--json", str(path)]
    assert pairs.main(argv) == 0
    record = json.loads(path.read_text())
    assert record["command"] == ["python3", "tools/pairs.py", *argv]
    assert (record["workload"], record["seconds"], record["seeds"]) == ("random16", 1.0, [7, 8])
    assert [(p["seed"], p["first"]) for p in record["pairs"]] == [(7, "parent"), (8, "change")]
    names = [m["name"] for m in pairs.end_to_end_metrics()]
    for p in record["pairs"]:
        assert p["parent"] == dict.fromkeys(names, 2.0)
        assert p["change"] == dict.fromkeys(names, 1.0)
    assert [r["name"] for r in record["summary"]] == names
    assert record["summary"][0]["ratio_median"] == 0.5
    assert record["incorrect_runs"] == 0


def test_json_keeps_an_incorrect_run(tmp_path, capsys):
    parent = _checkout(tmp_path, "parent", True, 2.0)
    change = _checkout(tmp_path, "change", False, 1.0)
    path = tmp_path / "bench.json"
    argv = [str(parent), str(change), "--workload", "random16", "--pairs", "1", "--seconds", "1",
            "--seed-base", "0", "--json", str(path)]
    assert pairs.main(argv) == 1
    record = json.loads(path.read_text())
    assert record["pairs"][0]["change"] is None
    assert (record["incorrect_runs"], record["summary"]) == (1, [])


def test_interrupt_leaves_an_existing_record_as_it_was(tmp_path, monkeypatch):
    # a Ctrl-C during the runs must neither truncate the record it was to
    # replace nor leave its temporary file behind
    path = tmp_path / "BENCH_0.json"
    path.write_text('{"kept": true}\n')
    before = path.read_bytes()

    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(pairs, "run_once", interrupted)
    argv = [str(tmp_path / "p"), str(tmp_path / "c"), "--workload", "random16", "--pairs", "1",
            "--seconds", "1", "--seed-base", "0", "--json", str(path)]
    with pytest.raises(KeyboardInterrupt):
        pairs.main(argv)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["BENCH_0.json"]


@pytest.mark.parametrize("target", ["dir", "missing/bench.json"])
def test_unwritable_json_fails_before_any_run(tmp_path, capsys, target):
    # neither checkout exists, so reaching a run would raise instead
    (tmp_path / "dir").mkdir()
    argv = [str(tmp_path / "p"), str(tmp_path / "c"), "--workload", "random16", "--pairs", "1",
            "--seconds", "1", "--seed-base", "0", "--json", str(tmp_path / target)]
    with pytest.raises(SystemExit) as exc:
        pairs.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "cannot write" in captured.err
    assert "pair 0" not in captured.out + captured.err


def test_unknown_workload_fails_before_any_run(tmp_path, capsys):
    # the names come from BENCHMARK.json; neither checkout exists, so
    # reaching a run would raise instead
    assert "random16" in pairs.workload_names()
    argv = [str(tmp_path / "p"), str(tmp_path / "c"), "--workload", "nosuch", "--pairs", "2",
            "--seconds", "1", "--seed-base", "0"]
    with pytest.raises(SystemExit) as exc:
        pairs.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "invalid choice: 'nosuch'" in captured.err
    assert "pair 0" not in captured.out + captured.err


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_committed_speed_record(path):
    # each committed record of a speed claim is a complete, correct
    # paired run of one of the benchmark's workloads
    record = json.loads(path.read_text())
    assert record["workload"] in pairs.workload_names()
    names = [m["name"] for m in pairs.end_to_end_metrics()]
    assert [row["name"] for row in record["summary"]] == names
    seeds = record["seeds"]
    assert [p["seed"] for p in record["pairs"]] == seeds and len(set(seeds)) == len(seeds)
    for p in record["pairs"]:
        assert isinstance(p["parent"], dict) and isinstance(p["change"], dict)
        assert sorted(p["parent"]) == sorted(p["change"]) == sorted(names)
    assert record["incorrect_runs"] == 0
