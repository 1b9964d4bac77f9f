"""The benchmark's workloads, their reference results and the result checks.

Each workload is a fixed list of solves.  The lists are the ones the
acceptance tests and ROADMAP name, so that every solve has a reference
result recorded from the program (``reference.json``, written by
``record.py``).  Nothing here imports patsolve: callers pass the imported
package in as ``ps``, so set-up can time the import itself.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

REFERENCE = Path(__file__).with_name("reference.json")

# Merge budgets per anytime solve.  Every incumbent of these solves
# arrives inside the budget (the last by merge 1662 on Sierpinski and
# 7400 on random), so the tail measures steady merges/s.
SIERPINSKI_CUTOFF = 2000
RANDOM_CUTOFF = 7500
RANDOM_GRIDS = 2
# (m, n, grids) of the exact workload; grid i uses gen_random seed and
# search seed 1000 + i, as acceptance criterion 8 does.  Sixty-two
# grids give the per-solve p90 six samples beyond it.
EXACT_SHAPES = ((4, 4, 60), (5, 5, 2))
# Every solve also reports progress this often, so that a solve's time
# splits into segments of fixed work (1 to 5 ms here) that can be
# compared across passes.  The workloads are sized so that a pass takes
# under a second and a run has dozens of passes: the more passes, the
# surer each segment's least time is a moment when the machine ran at
# full speed.
SEGMENT_MERGES = 100

WORKLOADS = ("sierpinski16", "random16", "exact_random")


@dataclass(frozen=True)
class Solve:
    key: str
    grid: object
    cfg: object


def make_solves(ps, workload: str) -> list[Solve]:
    """Generate the workload's instances with the patsolve package ``ps``."""
    def anytime(cutoff, seed):
        return ps.SolveConfig.anytime(cutoff, seed=seed, report_every=SEGMENT_MERGES)

    if workload == "sierpinski16":
        grid = ps.gen_sierpinski(16, 16)
        return [Solve(f"seed{s}", grid, anytime(SIERPINSKI_CUTOFF, s)) for s in range(5)]
    if workload == "random16":
        return [
            Solve(f"grid{100 + i}", ps.gen_random(16, 16, 2, 100 + i), anytime(RANDOM_CUTOFF, 100 + i))
            for i in range(RANDOM_GRIDS)
        ]
    if workload == "exact_random":
        return [
            Solve(
                f"{m}x{n}/grid{1000 + i}",
                ps.gen_random(m, n, 2, 1000 + i),
                ps.SolveConfig(mode="exact", rng_seed=1000 + i, report_every=SEGMENT_MERGES),
            )
            for m, n, count in EXACT_SHAPES
            for i in range(count)
        ]
    raise ValueError(f"unknown workload {workload!r}")


def run_solve(ps, solve: Solve, observer=None):
    """Solve once, timestamping each event of the public progress callback.

    Returns the result, the seconds between consecutive events (from the
    start, up to the end) and how many of those segments lead up to the
    last improvement.  Events come at fixed merge counts and at each
    improvement, so equal runs give equal segment lists."""
    stamps, bests = [], []

    def progress(merges, best):
        stamps.append(perf_counter())
        bests.append(best)

    t0 = perf_counter()
    result = ps.solve(solve.grid, solve.cfg, progress=progress, observer=observer)
    points = [t0, *stamps, perf_counter()]
    segments = [b - a for a, b in zip(points, points[1:])]
    return result, segments, bests.index(result.best_size) + 1


def summary(result) -> dict:
    """The part of a result that the reference pins down exactly."""
    return {
        "best": result.best_size,
        "merges": result.merges_performed,
        "proven": result.proven_optimal,
        "trace": [list(step) for step in result.trace],
    }


def check(ps, solve: Solve, result, ref) -> str | None:
    """None when the result equals its reference and its tile set verifies
    by simulation, else why not."""
    if not isinstance(ref, dict):
        return "no reference recorded"
    for field, value in summary(result).items():
        if ref.get(field) != value:
            return f"{field} differs from the reference"
    if len(result.best_system.tiles) != result.best_size:
        return "best_system size differs from best_size"
    report = ps.verify_solution(result.best_system, solve.grid)
    if not report.ok:
        return f"verification failed: {report.failure}"
    return None


def load_reference(path: Path = REFERENCE) -> dict:
    with open(path) as f:
        return json.load(f)
