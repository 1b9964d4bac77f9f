"""Re-record ``reference.json``: every workload solved once by the current
program, each best tile set verified by simulation.

    python3 perfbench/record.py

The references pin the program's behaviour: the benchmark fails any run
whose results differ from them.  Re-record them only in a change to the
benchmark itself, never in a change that claims a speed-up.
"""

from __future__ import annotations

import json
import sys

from run import SRC, import_fresh
from workloads import REFERENCE, WORKLOADS, make_solves, run_solve, summary


def main() -> int:
    sys.path.insert(0, str(SRC))
    ps = import_fresh()
    reference = {}
    for workload in WORKLOADS:
        reference[workload] = {}
        for solve in make_solves(ps, workload):
            result, _, _ = run_solve(ps, solve)
            report = ps.verify_solution(result.best_system, solve.grid)
            if not report.ok:
                print(f"{workload} {solve.key}: {report.failure}", file=sys.stderr)
                return 1
            reference[workload][solve.key] = summary(result)
            print(workload, solve.key, result.best_size, result.merges_performed)
    with open(REFERENCE, "w") as f:
        json.dump(reference, f, separators=(",", ":"))
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
