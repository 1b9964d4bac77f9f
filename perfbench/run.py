"""patsolve benchmark: one workload, one process, every result checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Imports patsolve from ``src/`` beside this directory.  After one warm-up
pass, whole passes over the workload's solves run until S seconds have
passed; ``--seed`` fixes the order the solves run in.  Each result is
compared with its recorded reference and re-verified by simulation.
Set-up (a fresh import plus instance generation) is repeated once per
pass without replacing the package in use.

Timings are best of passes.  Each solve reports progress every 100
merges, which splits its time into segments of fixed work; a
solve's time is the sum over its segments of each segment's least time
over the passes.  On a shared machine the speed of the processor drifts
by tens of percent from second to second; noise only ever adds time, so
the least time of a short piece of fixed work is the stable estimate of
the program's own cost.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes that record spans around the calls
``patsolve.search`` makes into the other layers, then makes one untimed
pass through the ``observer`` hook to count nodes, and prints the
per-layer metrics.  Spans are written to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit status is
0 when every check passed, 1 when one failed, 2 when the benchmark could
not start (no ``src/patsolve``, bad arguments, no reference).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from spans import Tracer
from workloads import WORKLOADS, check, load_reference, make_solves, run_solve

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# The functions patsolve.search imports from other layers, by metric prefix.
SEARCH_CALLS = {
    "build_mgta": "mgta.build_mgta",
    "extract_tas": "mgta.extract_tas",
    "verify_solution": "atam.verify_solution",
    "partition_from_labels": "partition.from_labels",
}
RNG_METHODS = ("next_u64", "randrange", "shuffle", "choice")
LAYERS = (*SEARCH_CALLS.values(), "rng")


def _patsolve_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "patsolve" or n.startswith("patsolve.")}


def import_fresh():
    """Import patsolve from SRC, dropping any copy imported before."""
    for name in _patsolve_modules():
        del sys.modules[name]
    ps = importlib.import_module("patsolve")
    if Path(ps.__file__).resolve().parent != SRC / "patsolve":
        raise ImportError(f"patsolve imported from {ps.__file__}, not {SRC}")
    return ps


def set_up(workload: str):
    """Import patsolve and generate the workload's instances.  Returns
    (package, solves, set-up seconds, generation seconds)."""
    t0 = perf_counter()
    ps = import_fresh()
    t1 = perf_counter()
    solves = make_solves(ps, workload)
    t2 = perf_counter()
    return ps, solves, t2 - t0, t2 - t1


@contextmanager
def instrumented(ps, tracer: Tracer):
    """Record spans around search's calls into the other layers."""
    search = sys.modules["patsolve.search"]
    saved = [(search, attr, getattr(search, attr)) for attr in SEARCH_CALLS]
    saved += [(ps.SplitMix64, meth, getattr(ps.SplitMix64, meth)) for meth in RNG_METHODS]
    for owner, attr, fn in saved:
        setattr(owner, attr, tracer.wrap(SEARCH_CALLS.get(attr, "rng"), fn))
    try:
        yield
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)


class Run:
    """Passes over one workload's solves, with the tallies of every check."""

    def __init__(self, workload: str, reference: dict, seed: int):
        self.workload = workload
        self.ps, self.solves, setup_s, gen_s = set_up(workload)
        self.setup_s, self.gen_s = [setup_s], [gen_s]
        self.reference = reference
        self.order = random.Random(seed)
        self.attempted = 0
        self.failures: list[str] = []

    def time_setup(self) -> None:
        """Set up once more and time it; the package in use stays."""
        kept = _patsolve_modules()
        _, _, setup_s, gen_s = set_up(self.workload)
        for name in _patsolve_modules():
            del sys.modules[name]
        sys.modules.update(kept)
        self.setup_s.append(setup_s)
        self.gen_s.append(gen_s)

    def _checked(self, solve, result) -> None:
        self.attempted += 1
        why = check(self.ps, solve, result, self.reference.get(solve.key))
        if why is not None:
            self.failures.append(f"{solve.key}: {why}")

    def one_pass(self, tracer: Tracer | None = None) -> tuple[list[dict], dict]:
        """Every solve once, in a seeded order.  Returns per-solve timings
        and the pass's result counts; the results themselves are checked
        after the pass and then dropped."""
        gc.collect()
        done, results = [], []
        for solve in self.order.sample(self.solves, len(self.solves)):
            span = tracer.open("solve") if tracer is not None else None
            result, segments, to_best = run_solve(self.ps, solve)
            if tracer is not None:
                tracer.close(span)
            done.append({"key": solve.key, "segments": segments, "to_best": to_best, "span": span})
            results.append((solve, result))
        for solve, result in results:
            self._checked(solve, result)
        return done, counts(r for _, r in results)

    def count_nodes(self) -> dict:
        """One untimed pass through the observer hook."""
        nodes = parts = conflicted = 0

        def observe(info):
            nonlocal nodes, parts, conflicted
            nodes += 1
            parts += info.num_parts
            conflicted += not info.constructible

        for solve in self.solves:
            result, _, _ = run_solve(self.ps, solve, observer=observe)
            self._checked(solve, result)
        return {
            "search.nodes": (nodes, "count"),
            "search.parts_per_node": (parts / nodes, "parts/node"),
            "search.conflicted_share": (conflicted / nodes, "ratio"),
        }


def counts(results) -> dict:
    """Totals over one pass's results; equal runs repeat them exactly."""
    results = list(results)
    return {
        "merges": sum(r.merges_performed for r in results),
        "merges_to_best": sum(r.trace[-1][0] for r in results),
        "incumbents": sum(len(r.trace) for r in results),
        "proven": sum(r.proven_optimal for r in results),
        "best_size_sum": sum(r.best_size for r in results),
    }


class Fastest:
    """Best of passes, folded in one pass at a time so that a run's memory
    does not grow with its number of passes: per solve, each segment's
    least time over the passes.  Also notes whether every pass had the
    same progress events."""

    def __init__(self):
        self.least: dict[str, list[float]] = {}
        self.shape: dict[str, tuple[int, int]] = {}
        self.same_events = True
        self.passes = 0

    def add(self, done: list[dict]) -> None:
        self.passes += 1
        for rec in done:
            key, segs = rec["key"], rec["segments"]
            shape = (len(segs), rec["to_best"])
            if self.shape.setdefault(key, shape) != shape:
                self.same_events = False
            self.least[key] = [min(a, b) for a, b in zip(self.least.get(key, segs), segs)]

    def times(self) -> tuple[list[float], list[float]]:
        """(solve seconds, seconds to best), one entry per solve: the least
        segment times summed over the whole solve and up to its last
        improvement."""
        return (
            [sum(segs) for segs in self.least.values()],
            [sum(segs[: self.shape[key][1]]) for key, segs in self.least.items()],
        )


def layer_totals(done: list[dict], tracer: Tracer, kids: dict) -> tuple[dict, list[str]]:
    """Per-layer calls and seconds of one traced pass and search's self
    time, plus the solves whose self time and child spans do not add up
    to the solve span."""
    out = {f"{layer}.{k}": 0 for layer in LAYERS for k in ("calls", "s")}
    out["search.self_s"] = 0.0
    problems = []
    for rec in done:
        span = rec["span"]
        direct = kids.get(span, [])
        own = tracer.self_time(span, direct)
        child_s = sum(tracer.duration(k) for k in direct)
        if abs(own + child_s - tracer.duration(span)) > 1e-6:
            problems.append(f"{rec['key']}: self time and child spans do not add up")
        out["search.self_s"] += own
        stack = list(direct)
        while stack:
            k = stack.pop()
            name = tracer.names[tracer.name_id[k]]
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += tracer.duration(k)
            stack.extend(kids.get(k, []))
    return out, problems


def measure(run: Run, seconds: float, trace: bool):
    """Warm up, then run passes until ``seconds`` have passed; with
    ``trace`` each untraced pass is followed by a traced one.  Returns
    the best of the untraced and of the traced passes, the traced
    passes' layer totals, the result counts of one pass, the tracer and
    the problems found."""
    run.one_pass()
    plain, traced, traced_passes, pass_counts = Fastest(), Fastest(), [], set()
    tracer = Tracer()
    t_end = perf_counter() + seconds
    while True:
        done, totals = run.one_pass()
        plain.add(done)
        pass_counts.add(tuple(totals.items()))
        if trace:
            with instrumented(run.ps, tracer):
                done, totals = run.one_pass(tracer)
            traced.add(done)
            traced_passes.append(done)
            pass_counts.add(tuple(totals.items()))
        run.time_setup()
        if perf_counter() >= t_end:
            break
    problems = []
    if len(pass_counts) > 1:
        problems.append("result counts differ between passes")
    if not (plain.same_events and traced.same_events) or (trace and traced.shape != plain.shape):
        problems.append("progress events differ between passes")
    kids = tracer.children()
    layers = []
    for done in traced_passes:
        row, bad = layer_totals(done, tracer, kids)
        layers.append(row)
        problems += bad
    if len({tuple(row[f"{layer}.calls"] for layer in LAYERS) for row in layers}) > 1:
        problems.append("layer call counts differ between traced passes")
    return plain, traced, layers, dict(pass_counts.pop()), tracer, problems


def end_to_end(run: Run, plain: Fastest, totals: dict) -> dict:
    walls, to_best = plain.times()
    run_s = sum(walls)
    return {
        "run_s": (run_s, "s"),
        "merges_per_s": (totals["merges"] / run_s, "1/s"),
        "time_to_best_s": (sum(to_best), "s"),
        "solve_s.p50": (statistics.median(walls), "s"),
        "solve_s.p90": (statistics.quantiles(walls, n=10, method="inclusive")[8], "s"),
        "best_size_sum": (totals["best_size_sum"], "tiles"),
        "setup_s": (min(run.setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(run: Run, plain: Fastest, traced: Fastest, layers: list[dict], totals: dict, nodes: dict) -> dict:
    least = lambda key: min(row[key] for row in layers)
    return {
        "search.self_s": (least("search.self_s"), "s"),
        **{f"{layer}.calls": (layers[0][f"{layer}.calls"], "count") for layer in LAYERS},
        **{f"{layer}.s": (least(f"{layer}.s"), "s") for layer in LAYERS},
        "pattern.gen_s": (min(run.gen_s), "s"),
        **{f"search.{key}": (totals[key], "count") for key in ("merges", "merges_to_best", "incumbents", "proven")},
        **nodes,
        "trace.overhead_ratio": (sum(traced.times()[0]) / sum(plain.times()[0]), "ratio"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    if not (SRC / "patsolve" / "__init__.py").is_file():
        print(f"perfbench: no patsolve sources under {SRC}", file=sys.stderr)
        return 2
    try:
        reference = load_reference()[args.workload]
    except (OSError, ValueError, KeyError) as exc:
        print(f"perfbench: no usable reference for {args.workload}: {exc!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    run = Run(args.workload, reference, args.seed)
    plain, traced, layers, totals, tracer, problems = measure(run, args.seconds, bool(args.trace))
    if args.trace:
        metrics = per_layer(run, plain, traced, layers, totals, run.count_nodes())
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.bin")
    else:
        metrics = end_to_end(run, plain, totals)

    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"passes {plain.passes} untraced, {len(layers)} traced; solves {len(run.solves)} per pass; "
          f"set-ups {len(run.setup_s)}; failed_share {len(run.failures)}/{run.attempted}")
    for line in run.failures + problems:
        print(f"perfbench: FAIL {line}", file=sys.stderr)
    correct = not run.failures and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
