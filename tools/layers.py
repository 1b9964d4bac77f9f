"""Per-call cost of the search loop's own steps on one benchmark workload.

    python3 tools/layers.py --workload W [--passes N] [--json PATH]

``perfbench``'s spans stop at the calls ``patsolve.search`` makes into
other modules, so they cannot see the key index or the engine's steps.
This tool times each call of ``KeyIndex.probe``, ``sync`` and
``restore`` and of ``_Engine._find_conflict``, ``_apply_merge``,
``_undo_merge`` and ``_adopt_incumbent``.  It imports ``patsolve`` from
``src/`` and the workload's solves from ``perfbench/workloads.py``, and
runs N plain passes over them alternating with N timed ones.  For each
step it reports the calls per pass, the microseconds per call and the
share of the best plain pass, taken from the timed pass in which the
step cost least.  The last row, ``rest_share`` in the JSON, is the share
of the best plain pass that no timed step covers: ``_run``, ``_node``,
``_tick``, the rng draws and each solve's set-up and hand-out.  The
timer's own cost, the least it records per call around an empty
function, is measured next to every timed pass, as it drifts between
runs; the least of those is taken off every call, and the table reports
their range.

Every result of every pass is checked against ``perfbench/reference.json``
and re-verified by simulation; if one fails, no table is printed and the
exit status is 1.  ``--json PATH`` also writes the table to PATH.  Exit
status 2 means a usage error.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import patsolve  # noqa: E402
from patsolve import search  # noqa: E402
from patsolve.keyindex import KeyIndex  # noqa: E402

# read only, by file: a module of this name in sys.modules, as its
# dataclass needs, shadows nothing of perfbench's own
_spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

STEPS = (
    (KeyIndex, "probe"),
    (KeyIndex, "sync"),
    (KeyIndex, "restore"),
    (search._Engine, "_find_conflict"),
    (search._Engine, "_apply_merge"),
    (search._Engine, "_undo_merge"),
    (search._Engine, "_adopt_incumbent"),
)
NAMES = tuple(f"{cls.__name__}.{attr}" for cls, attr in STEPS)


def timed(fn, slot: list):
    """``fn`` adding 1 to ``slot[0]`` and its seconds to ``slot[1]`` per call."""
    def wrapper(*args):
        t0 = perf_counter()
        result = fn(*args)
        slot[1] += perf_counter() - t0
        slot[0] += 1
        return result
    return wrapper


def timer_offset() -> float:
    """The least seconds per call the timer records around an empty
    function, over five rounds of 20000 calls."""
    slot = [0, 0.0]
    empty = timed(lambda *args: None, slot)
    best = float("inf")
    for _ in range(5):
        slot[:] = [0, 0.0]
        for _ in range(20000):
            empty(None, 0, 1)
        best = min(best, slot[1] / slot[0])
    return best


def one_pass(solves, reference, slots=None) -> tuple[float, list[str]]:
    """Solve each of ``solves`` once, with every step timed into ``slots``
    when it is given.  Returns the pass's seconds and its failed checks."""
    saved = [getattr(cls, attr) for cls, attr in STEPS]
    if slots is not None:
        for (cls, attr), fn, slot in zip(STEPS, saved, slots):
            setattr(cls, attr, timed(fn, slot))
    gc.collect()
    results = []
    try:
        t0 = perf_counter()
        for solve in solves:
            results.append(patsolve.solve(solve.grid, solve.cfg))
        elapsed = perf_counter() - t0
    finally:
        for (cls, attr), fn in zip(STEPS, saved):
            setattr(cls, attr, fn)
    failures = []
    for solve, result in zip(solves, results):
        why = workloads.check(patsolve, solve, result, reference.get(solve.key))
        if why is not None:
            failures.append(f"{solve.key}: {why}")
    return elapsed, failures


def measure(workload: str, passes: int) -> tuple[dict | None, list[str]]:
    """The table of ``passes`` plain and timed passes of ``workload``, or
    None with the failed checks when a result differs from its reference."""
    reference = workloads.load_reference()[workload]
    solves = workloads.make_solves(patsolve, workload)
    offsets = []
    best_pass = float("inf")
    least = [float("inf")] * len(STEPS)
    counts = set()
    failures: list[str] = []
    for _ in range(passes):
        elapsed, bad = one_pass(solves, reference)
        best_pass = min(best_pass, elapsed)
        slots = [[0, 0.0] for _ in STEPS]
        offsets.append(timer_offset())
        _, bad_timed = one_pass(solves, reference, slots)
        failures += bad + bad_timed
        counts.add(tuple(calls for calls, _ in slots))
        least = [min(s, seconds) for s, (_, seconds) in zip(least, slots)]
    if len(counts) > 1:
        failures.append("call counts differ between passes")
    if failures:
        return None, failures
    (calls,) = counts
    offset = min(offsets)
    least = [s - n * offset for n, s in zip(calls, least)]
    rows = [
        {
            "name": name,
            "calls": n,
            "us_per_call": s / n * 1e6 if n else 0.0,
            "share": s / best_pass,
        }
        for name, n, s in zip(NAMES, calls, least)
    ]
    return {
        "workload": workload,
        "passes": passes,
        "pass_s": best_pass,
        "timer_offset_us": offset * 1e6,
        "timer_offset_range_us": [offset * 1e6, max(offsets) * 1e6],
        "rows": rows,
        "rest_share": 1 - sum(r["share"] for r in rows),
    }, []


def format_table(table: dict) -> str:
    lo, hi = table["timer_offset_range_us"]
    out = [
        f"{table['workload']}: best of {table['passes']} passes {table['pass_s']:.4f} s; "
        f"timer offset {table['timer_offset_us']:.3f} us/call taken off "
        f"(range {lo:.3f}-{hi:.3f} over {table['passes']} timed passes)",
        f"{'step':<26} {'calls':>8} {'us/call':>9} {'share':>7}",
    ]
    for r in table["rows"]:
        out.append(f"{r['name']:<26} {r['calls']:>8} {r['us_per_call']:>9.3f} {r['share']:>7.1%}")
    out.append(f"{'rest (untimed)':<26} {'':>8} {'':>9} {table['rest_share']:>7.1%}")
    return "\n".join(out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--passes", type=int, default=5)
    ap.add_argument("--json", type=Path, help="write the table here")
    args = ap.parse_args(argv)
    if args.passes < 1:
        ap.error("--passes must be positive")
    table, failures = measure(args.workload, args.passes)
    if table is None:
        for line in failures:
            print(f"layers: FAIL {line}", file=sys.stderr)
        return 1
    print(format_table(table))
    if args.json is not None:
        args.json.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
