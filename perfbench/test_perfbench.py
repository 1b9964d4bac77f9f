"""Tests of the benchmark itself.

    python3 -m pytest perfbench

The tiny runs are real runs of ``run.py`` on the full workloads with a
very short measuring time, so the module takes a minute or two.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import sleep

import pytest

from spans import Tracer, read_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd: Path, workload: str, trace: int, seed: int = 0):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def copy_bench(dest: Path, with_sources: bool) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    files = shutil.ignore_patterns("__pycache__", "out")
    shutil.copytree(HERE, dest / "perfbench", ignore=files)
    if with_sources:
        shutil.copytree(ROOT / "src" / "patsolve", dest / "src" / "patsolve", ignore=files)
    return dest


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric(workload, trace):
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert f"{m['name']} " in proc.stdout  # also printed by name


def test_tampered_reference_trace_is_a_failure(tmp_path):
    copy_bench(tmp_path, with_sources=True)
    ref_path = tmp_path / "perfbench" / "reference.json"
    ref = json.loads(ref_path.read_text())
    ref["sierpinski16"]["seed0"]["trace"][5][0] += 1
    ref_path.write_text(json.dumps(ref))
    proc = bench(tmp_path, "sierpinski16", 0)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "seed0: trace differs from the reference" in proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] >= 1 and result["failed"] < result["attempted"]


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    copy_bench(tmp_path, with_sources=False)
    proc = bench(tmp_path, "sierpinski16", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_spans_self_time_nesting_and_round_trip(tmp_path):
    t = Tracer()

    def leaf(n):
        sleep(0.002)
        return inner(n - 1) if n else 0

    inner = t.wrap("leaf", leaf)  # calls itself: one span per outer call
    root = t.open("solve")
    inner(3)
    inner(0)
    t.close(root)

    kids = t.children()[root]
    assert len(t) == 3 and len(kids) == 2
    own = t.self_time(root, kids)
    assert own >= 0
    assert abs(own + sum(t.duration(k) for k in kids) - t.duration(root)) < 1e-9

    t.write(tmp_path / "spans.bin")
    back = read_spans(tmp_path / "spans.bin")
    assert back.names == t.names
    assert list(back.parent) == list(t.parent) and list(back.end) == list(t.end)
