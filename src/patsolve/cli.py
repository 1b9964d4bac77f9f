"""Command line interface.

Subcommands:

* ``generate`` - write a pattern file (sierpinski, counter or random).
* ``solve`` - search for a minimum tile set, exact or with a merge
  cutoff, writing the tile set and an optional progress event stream.
* ``verify`` - simulate a tile-set file against a pattern file.
* ``bench`` - solve batches of random instances per size and print a
  TSV of merge-count percentiles.

Exit status is 0 on success (a cutoff solve that stops early still
succeeds; it reports ``optimal=false``), 1 on failures (bad input
files, failed verification), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys

from .atam import verify_solution
from .pattern import (
    PatternError,
    check_random_dims,
    emit_pattern,
    gen_binary_counter,
    gen_random,
    gen_sierpinski,
    parse_pattern,
)
from .search import SolveConfig, solve
from .tiles import TilesetError, emit_tileset, parse_tileset


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except OSError as exc:
        raise SystemExit(f"error: cannot read {path}: {exc.strerror}") from None


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    except OSError as exc:
        raise SystemExit(f"error: cannot write {path}: {exc.strerror}") from None


def _cmd_generate(args) -> int:
    if args.type == "sierpinski":
        grid = gen_sierpinski(args.m, args.n)
    elif args.type == "counter":
        grid = gen_binary_counter(args.m, args.n)
    else:
        grid = gen_random(args.m, args.n, args.k, args.seed)
    _write(args.out, emit_pattern(grid))
    return 0


def _cmd_solve(args) -> int:
    grid = parse_pattern(_read(args.pattern))
    if args.exact:
        cfg = SolveConfig(mode="exact", rng_seed=args.seed, report_every=args.report_every)
    else:
        cfg = SolveConfig(
            mode="anytime",
            cutoff_merges=args.cutoff,
            rng_seed=args.seed,
            report_every=args.report_every,
        )
    events = None
    if args.events:
        try:
            events = open(args.events, "w", encoding="ascii")
        except OSError as exc:
            raise SystemExit(f"error: cannot write {args.events}: {exc.strerror}") from None
    try:
        progress = None
        if events is not None:
            progress = lambda merges, best: events.write(
                f"event merges={merges} best={best}\n"
            )
        result = solve(grid, cfg, progress=progress)
        final = (
            f"result best={result.best_size} merges={result.merges_performed} "
            f"optimal={'true' if result.proven_optimal else 'false'}\n"
        )
        if events is not None:
            events.write(final)
        sys.stdout.write(final)
    finally:
        if events is not None:
            events.close()
    if args.out:
        _write(args.out, emit_tileset(result.best_system))
    return 0


def _cmd_verify(args) -> int:
    grid = parse_pattern(_read(args.pattern))
    system = parse_tileset(_read(args.tiles))
    if (system.m, system.n) != (grid.m, grid.n):
        print(
            f"verify: FAIL dimension mismatch: tiles target {system.m}x{system.n}, "
            f"pattern {grid.m}x{grid.n}",
            file=sys.stderr,
        )
        return 1
    report = verify_solution(system, grid)
    if report.ok:
        print(f"verify: OK {len(system.tiles)} tiles assemble the pattern")
        return 0
    print(f"verify: FAIL {report.failure}", file=sys.stderr)
    return 1


def _percentile(sorted_vals: list[int], q: float) -> int:
    # nearest-rank on the sorted list: index round(q * (len-1))
    return sorted_vals[round(q * (len(sorted_vals) - 1))]


def _cmd_bench(args) -> int:
    sizes = []
    for tok in args.sizes.split(","):
        try:
            ms, ns = tok.lower().split("x")
            sizes.append((int(ms), int(ns)))
        except ValueError:
            raise SystemExit(f"error: bad size {tok!r}, expected like 3x3") from None
    # every size is checked before the first solve, so a bad one fails fast
    for m, n in sizes:
        check_random_dims(m, n, args.k)
    lines = ["size\tp20\tmedian\tp80\n"]
    for m, n in sizes:
        merges = []
        for i in range(args.runs):
            seed = args.seed + i
            grid = gen_random(m, n, args.k, seed)
            result = solve(grid, SolveConfig.exact(seed=seed))
            merges.append(result.merges_performed)
        merges.sort()
        lines.append(
            f"{m}x{n}\t{_percentile(merges, 0.2)}\t"
            f"{_percentile(merges, 0.5)}\t{_percentile(merges, 0.8)}\n"
        )
    _write(args.out, "".join(lines))
    return 0


def _int_at_least(low: int):
    """argparse type for integers >= low; a smaller value is a usage error
    (exit 2), like any other bad argument."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="patsolve",
        description="Minimum tile sets for coloured rectangular patterns.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a pattern file")
    gen.add_argument("--type", required=True, choices=("sierpinski", "counter", "random"))
    gen.add_argument("--m", type=int, required=True, help="columns")
    gen.add_argument("--n", type=int, required=True, help="rows")
    gen.add_argument("--k", type=int, default=2, help="colours (random only)")
    gen.add_argument("--seed", type=int, default=0, help="RNG seed (random only)")
    gen.add_argument("--out", help="output file (default stdout)")
    gen.set_defaults(func=_cmd_generate)

    slv = sub.add_parser("solve", help="search for a minimum tile set")
    slv.add_argument("--pattern", required=True, help="pattern file")
    group = slv.add_mutually_exclusive_group(required=True)
    group.add_argument("--exact", action="store_true", help="run to proven optimality")
    group.add_argument(
        "--cutoff", type=_int_at_least(0), help="stop after N merge operations"
    )
    slv.add_argument("--seed", type=int, default=0, help="search RNG seed")
    slv.add_argument(
        "--report-every", type=_int_at_least(1), help="progress event every N merges"
    )
    slv.add_argument("--out", help="write the best tile set here")
    slv.add_argument("--events", help="write the progress event stream here")
    slv.set_defaults(func=_cmd_solve)

    ver = sub.add_parser("verify", help="check a tile set against a pattern")
    ver.add_argument("--pattern", required=True, help="pattern file")
    ver.add_argument("--tiles", required=True, help="tile-set file")
    ver.set_defaults(func=_cmd_verify)

    ben = sub.add_parser("bench", help="merge-count percentiles on random instances")
    ben.add_argument("--sizes", default="2x2,2x3,3x3,3x4,4x4", help="comma list like 2x2,3x3")
    ben.add_argument("--k", type=int, default=2, help="colours per instance")
    ben.add_argument(
        "--runs", type=_int_at_least(1), default=21, help="instances per size"
    )
    ben.add_argument("--seed", type=int, default=0, help="base seed; run i uses seed+i")
    ben.add_argument("--out", help="output TSV (default stdout)")
    ben.set_defaults(func=_cmd_bench)
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # PatternError and TilesetError included
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 1
        raise


if __name__ == "__main__":
    sys.exit(main())
