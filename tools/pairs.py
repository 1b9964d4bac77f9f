"""Paired benchmark runs of two checkouts, summarised per end-to-end metric.

    python3 tools/pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N --seconds S --seed-base B [--json PATH]

Pair i runs ``perfbench/run.py --workload W --seed B+i --seconds S
--trace 0`` once in each checkout, one right after the other: the parent
goes first in even pairs and the change in odd ones, so a drift in the
machine's speed falls on both sides alike.  The runs get
``PYTHONDONTWRITEBYTECODE=1``, so neither checkout is left with bytecode
that a later run would load instead of compiling.

For each end-to-end metric of ``BENCHMARK.json`` the summary gives the
parent's median with its quartiles, the change's median, the pairs the
change won (strictly better, in the metric's ``better`` direction) and
the median of the per-pair ratios change/parent.  ``--json PATH`` also
writes the command line, workload, run length, seeds, each pair's metric
values and the summary rows to PATH, as the record of a speed claim.
The record is written to a temporary file beside PATH, opened before
the first run so that an unwritable PATH fails at once, and moved onto
PATH with ``os.replace`` only once it is whole, so a run stopped early
(a Ctrl-C included) leaves PATH as it was.  ``--workload`` takes the
names of ``BENCHMARK.json``'s workloads, so a bad name also fails before
any run.  Exit status is 1 when any run was not correct (it exited
nonzero or reported ``"correct": false``), 2 on a usage error, and 0
otherwise.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def end_to_end_metrics(path: Path = ROOT / "BENCHMARK.json") -> list[dict]:
    return json.loads(path.read_text())["end_to_end"]


def workload_names(path: Path = ROOT / "BENCHMARK.json") -> list[str]:
    return [w["name"] for w in json.loads(path.read_text())["workloads"]]


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """One benchmark run in ``checkout``: its metric values by name, or
    None when the run was not correct."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {}
    if proc.returncode != 0 or result.get("correct") is not True:
        sys.stderr.write(proc.stderr)
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(metrics: list[dict], parent: list[dict], change: list[dict]) -> list[dict]:
    """Per metric, over the pairs (``parent[i]``, ``change[i]``): the
    parent's quartiles, the change's median, the pairs the change won
    and the median per-pair ratio change/parent."""
    rows = []
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        pairs = [(p[name], c[name]) for p, c in zip(parent, change)]
        q1, med, q3 = quartiles([p for p, _ in pairs])
        won = sum((c < p) if lower else (c > p) for p, c in pairs)
        ratios = [c / p for p, c in pairs if p]
        rows.append({
            "name": name,
            "parent_q1": q1,
            "parent_median": med,
            "parent_q3": q3,
            "change_median": statistics.median(c for _, c in pairs),
            "won": won,
            "pairs": len(pairs),
            "ratio_median": statistics.median(ratios) if ratios else float("nan"),
        })
    return rows


def format_rows(rows: list[dict]) -> str:
    out = [f"{'metric':<16} {'parent median [q1 - q3]':<34} {'change median':<14} {'won':<7} ratio"]
    for r in rows:
        parent = f"{r['parent_median']:.6g} [{r['parent_q1']:.6g} - {r['parent_q3']:.6g}]"
        out.append(f"{r['name']:<16} {parent:<34} {r['change_median']:<14.6g} "
                   f"{str(r['won']) + '/' + str(r['pairs']):<7} {r['ratio_median']:.4f}")
    return "\n".join(out)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True, choices=workload_names())
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--seed-base", type=int, required=True)
    ap.add_argument("--json", type=Path, help="write the runs and the summary here")
    args = ap.parse_args(argv)
    if args.pairs < 1 or not args.seconds > 0:
        ap.error("--pairs and --seconds must be positive")
    out = None
    if args.json is not None:
        tmp = args.json.with_name(f".{args.json.name}.{os.getpid()}.tmp")
        try:
            if args.json.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            out = open(tmp, "w", encoding="utf-8")
        except OSError as exc:
            ap.error(f"cannot write {args.json}: {exc.strerror}")
    try:
        metrics = end_to_end_metrics()
        parent, change, records = [], [], []
        incorrect = 0
        for i in range(args.pairs):
            seed = args.seed_base + i
            sides = [("parent", args.parent), ("change", args.change)]
            if i % 2:
                sides.reverse()
            got = {}
            for label, checkout in sides:
                got[label] = run_once(checkout, args.workload, seed, args.seconds)
                if got[label] is None:
                    print(f"pair {i} seed {seed}: {label} run not correct", file=sys.stderr)
                    incorrect += 1
            records.append({"seed": seed, "first": sides[0][0], **got})
            if None in got.values():
                continue
            parent.append(got["parent"])
            change.append(got["change"])
            print(f"pair {i} seed {seed} first {sides[0][0]}: " + ", ".join(
                f"{m['name']} {got['parent'][m['name']]:.6g} -> {got['change'][m['name']]:.6g}"
                for m in metrics), flush=True)
        rows = summarize(metrics, parent, change) if parent else []
        if parent:
            print(f"{args.workload}: {len(parent)} pairs of {args.seconds:g} s runs, "
                  f"seeds {args.seed_base}-{args.seed_base + args.pairs - 1}")
            print(format_rows(rows))
        if out is not None:
            json.dump({
                "command": ["python3", "tools/pairs.py", *argv],
                "workload": args.workload,
                "seconds": args.seconds,
                "seeds": [r["seed"] for r in records],
                "incorrect_runs": incorrect,
                "pairs": records,
                "summary": rows,
            }, out, indent=1)
            out.write("\n")
            out.close()
            os.replace(tmp, args.json)
    except BaseException:
        if out is not None:
            out.close()
            os.unlink(tmp)
        raise
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
