import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest

import patsolve
import patsolve.cli as cli_module
from patsolve import (
    gen_binary_counter,
    gen_sierpinski,
    parse_pattern,
    parse_tileset,
    verify_solution,
)
from patsolve.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_sierpinski_to_file(self, tmp_path, capsys):
        out = tmp_path / "pat.txt"
        code, stdout, _ = run(
            capsys, "generate", "--type", "sierpinski", "--m", "4", "--n", "4",
            "--out", str(out),
        )
        assert code == 0 and stdout == ""
        assert parse_pattern(out.read_text()) == gen_sierpinski(4, 4)

    def test_counter_to_stdout(self, capsys):
        code, stdout, _ = run(
            capsys, "generate", "--type", "counter", "--m", "3", "--n", "5"
        )
        assert code == 0
        assert parse_pattern(stdout) == gen_binary_counter(3, 5)

    def test_random_is_seed_deterministic(self, tmp_path, capsys):
        a, b, c = (tmp_path / name for name in ("a", "b", "c"))
        for path, seed in ((a, "7"), (b, "7"), (c, "8")):
            run(
                capsys, "generate", "--type", "random", "--m", "4", "--n", "4",
                "--k", "3", "--seed", seed, "--out", str(path),
            )
        assert a.read_text() == b.read_text()
        assert a.read_text() != c.read_text()

    def test_impossible_k_fails_cleanly(self, capsys):
        code, _, stderr = run(
            capsys, "generate", "--type", "random", "--m", "2", "--n", "2",
            "--k", "9",
        )
        assert code == 1
        assert stderr.startswith("error:")

    def test_rare_onto_colouring_fails_fast(self, capsys):
        code, _, stderr = run(
            capsys, "generate", "--type", "random", "--m", "5", "--n", "5",
            "--k", "25",
        )
        assert code == 1
        assert stderr.startswith("error:")

    def test_over_cell_cap_fails_fast(self, capsys):
        start = time.perf_counter()
        code, out, stderr = run(
            capsys, "generate", "--type", "sierpinski", "--m", "100000", "--n", "100000",
        )
        assert time.perf_counter() - start < 0.5
        assert code == 1 and out == ""
        assert stderr.startswith("error:") and "MAX_CELLS" in stderr

    def test_unwritable_out_fails(self, tmp_path, capsys):
        code, stdout, stderr = run(
            capsys, "generate", "--type", "sierpinski", "--m", "4", "--n", "4",
            "--out", str(tmp_path),
        )
        assert code == 1 and stdout == ""
        assert stderr.startswith(f"error: cannot write {tmp_path}")


class TestSolve:
    def test_exact_run_writes_everything(self, tmp_path, capsys):
        pat = tmp_path / "pat.txt"
        tiles = tmp_path / "tiles.txt"
        events = tmp_path / "events.txt"
        run(capsys, "generate", "--type", "sierpinski", "--m", "3", "--n", "3",
            "--out", str(pat))
        code, stdout, _ = run(
            capsys, "solve", "--pattern", str(pat), "--exact", "--seed", "1",
            "--out", str(tiles), "--events", str(events),
        )
        assert code == 0
        assert stdout.startswith("result best=3 merges=")
        assert stdout.rstrip().endswith("optimal=true")
        system = parse_tileset(tiles.read_text())
        assert len(system.tiles) == 3
        assert verify_solution(system, gen_sierpinski(3, 3)).ok
        lines = events.read_text().splitlines()
        assert lines[-1] + "\n" == stdout
        assert all(l.startswith("event merges=") for l in lines[:-1])

    def test_cutoff_reports_not_optimal(self, tmp_path, capsys):
        pat = tmp_path / "pat.txt"
        run(capsys, "generate", "--type", "random", "--m", "5", "--n", "5",
            "--seed", "3", "--out", str(pat))
        code, stdout, _ = run(
            capsys, "solve", "--pattern", str(pat), "--cutoff", "50",
        )
        assert code == 0
        assert "merges=50 " in stdout
        assert stdout.rstrip().endswith("optimal=false")

    def test_report_every_cadence(self, tmp_path, capsys):
        pat = tmp_path / "pat.txt"
        events = tmp_path / "events.txt"
        run(capsys, "generate", "--type", "random", "--m", "5", "--n", "5",
            "--seed", "4", "--out", str(pat))
        run(capsys, "solve", "--pattern", str(pat), "--cutoff", "300",
            "--report-every", "100", "--events", str(events))
        text = events.read_text()
        for m in (100, 200, 300):
            assert f"event merges={m} best=" in text

    def test_missing_pattern_file(self, tmp_path, capsys):
        code, _, stderr = run(
            capsys, "solve", "--pattern", str(tmp_path / "nope.txt"), "--exact"
        )
        assert code == 1
        assert "cannot read" in stderr

    def test_negative_cutoff_is_usage_error(self, tmp_path, capsys):
        pat = tmp_path / "pat.txt"
        run(capsys, "generate", "--type", "sierpinski", "--m", "3", "--n", "3",
            "--out", str(pat))
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--pattern", str(pat), "--cutoff", "-1"])
        assert exc.value.code == 2
        stderr = capsys.readouterr().err
        assert "--cutoff" in stderr and "must be at least 0" in stderr
        assert "Traceback" not in stderr

    @pytest.mark.parametrize("target", ["dir", "missing/tiles.txt"])
    def test_unwritable_out_fails_before_solving(self, tmp_path, capsys, target):
        pat = tmp_path / "pat.txt"
        run(capsys, "generate", "--type", "sierpinski", "--m", "3", "--n", "3",
            "--out", str(pat))
        (tmp_path / "dir").mkdir()
        with mock.patch("patsolve.cli.solve", side_effect=AssertionError("solve called")):
            code, stdout, stderr = run(
                capsys, "solve", "--pattern", str(pat), "--exact",
                "--out", str(tmp_path / target),
            )
        assert code == 1 and stdout == ""
        assert stderr.startswith(f"error: cannot write {tmp_path / target}:")

    def test_out_dash_writes_stdout(self, tmp_path, capsys):
        pat = tmp_path / "pat.txt"
        run(capsys, "generate", "--type", "sierpinski", "--m", "3", "--n", "3",
            "--out", str(pat))
        code, stdout, _ = run(capsys, "solve", "--pattern", str(pat), "--exact", "--out", "-")
        assert code == 0
        result, tiles = stdout.split("\n", 1)
        assert result.startswith("result best=3 ")
        assert verify_solution(parse_tileset(tiles), gen_sierpinski(3, 3)).ok

    def test_interrupt_writes_the_best_and_exits_130(self, tmp_path, capsys):
        pat = tmp_path / "pat.txt"
        tiles = tmp_path / "tiles.txt"
        events = tmp_path / "events.txt"
        run(capsys, "generate", "--type", "random", "--m", "6", "--n", "6",
            "--seed", "5", "--out", str(pat))
        real_solve = cli_module.solve

        def interrupted_solve(grid, cfg, progress):
            def stop(merges, best):
                progress(merges, best)
                if merges >= 40:
                    raise KeyboardInterrupt

            return real_solve(grid, cfg, progress=stop)

        with mock.patch.object(cli_module, "solve", interrupted_solve):
            code, stdout, _ = run(
                capsys, "solve", "--pattern", str(pat), "--cutoff", "100000",
                "--out", str(tiles), "--events", str(events),
            )
        assert code == 130
        assert stdout.startswith("result best=") and stdout.endswith(" optimal=false\n")
        lines = events.read_text().splitlines()
        assert lines[-1] + "\n" == stdout
        best = int(lines[-2].split("best=")[1])
        assert stdout.startswith(f"result best={best} ")
        system = parse_tileset(tiles.read_text())
        assert len(system.tiles) == best
        assert run(capsys, "verify", "--pattern", str(pat), "--tiles", str(tiles))[0] == 0

    def test_sigint_writes_the_best_and_exits_130(self, tmp_path, capsys):
        pat = tmp_path / "pat.txt"
        tiles = tmp_path / "tiles.txt"
        events = tmp_path / "events.txt"
        run(capsys, "generate", "--type", "random", "--m", "16", "--n", "16",
            "--seed", "100", "--out", str(pat))
        src = Path(patsolve.__file__).resolve().parent.parent
        proc = subprocess.Popen(
            [sys.executable, "-m", "patsolve.cli", "solve", "--pattern", str(pat),
             "--cutoff", "100000000", "--out", str(tiles), "--events", str(events)],
            env={**os.environ, "PYTHONPATH": str(src)},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            # a parent that ignores SIGINT would pass that on; the CLI is
            # tested with the default disposition, as in a terminal
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
        )
        try:
            deadline = time.monotonic() + 60
            while not (events.exists() and "event " in events.read_text()):
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.05)
            proc.send_signal(signal.SIGINT)
            stdout, stderr = proc.communicate(timeout=60)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == 130, stderr
        assert stdout.startswith("result best=") and stdout.endswith(" optimal=false\n")
        assert events.read_text().splitlines()[-1] + "\n" == stdout
        code, verified, _ = run(capsys, "verify", "--pattern", str(pat), "--tiles", str(tiles))
        assert code == 0 and verified.startswith("verify: OK")

    def test_sigterm_leaves_an_existing_out_file_as_it_was(self, tmp_path, capsys):
        # the tile set replaces --out only once it is written, so a solve
        # killed mid-search leaves the file that stood there before, and
        # the SIGTERM unwinds the solve, which takes its temporary file away
        pat = tmp_path / "pat.txt"
        tiles = tmp_path / "tiles.txt"
        events = tmp_path / "events.txt"
        run(capsys, "generate", "--type", "random", "--m", "16", "--n", "16",
            "--seed", "100", "--out", str(pat))
        run(capsys, "solve", "--pattern", str(pat), "--cutoff", "50", "--out", str(tiles))
        before = tiles.read_bytes()
        src = Path(patsolve.__file__).resolve().parent.parent
        proc = subprocess.Popen(
            [sys.executable, "-m", "patsolve.cli", "solve", "--pattern", str(pat),
             "--cutoff", "100000000", "--out", str(tiles), "--events", str(events)],
            env={**os.environ, "PYTHONPATH": str(src)},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            deadline = time.monotonic() + 60
            while not (events.exists() and "event " in events.read_text()):
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.05)
            proc.send_signal(signal.SIGTERM)
            proc.communicate(timeout=60)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == -signal.SIGTERM
        assert tiles.read_bytes() == before
        assert not list(tmp_path.glob(".tiles.txt.*.tmp"))
        code, verified, _ = run(capsys, "verify", "--pattern", str(pat), "--tiles", str(tiles))
        assert code == 0 and verified.startswith("verify: OK")

    def test_huge_header_short_row(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("2000000000 1 2\n0 1\n")
        code, _, stderr = run(capsys, "solve", "--pattern", str(bad), "--exact")
        assert code == 1
        assert stderr.startswith("error:") and "expected 2000000000 entries" in stderr

    def test_huge_colour_count_fails_fast(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 1 1000000000000\n0\n")
        t0 = time.perf_counter()
        code, _, stderr = run(capsys, "solve", "--pattern", str(bad), "--exact")
        assert time.perf_counter() - t0 < 1.0
        assert code == 1
        assert stderr == "error: colouring is not onto: colour 1 unused\n"

    def test_malformed_pattern_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a pattern\n")
        code, _, stderr = run(capsys, "solve", "--pattern", str(bad), "--exact")
        assert code == 1
        assert stderr.startswith("error:")


class TestVerify:
    def solved(self, tmp_path, capsys, gen_args, stem):
        pat = tmp_path / f"{stem}.pat"
        tiles = tmp_path / f"{stem}.tiles"
        run(capsys, "generate", *gen_args, "--out", str(pat))
        run(capsys, "solve", "--pattern", str(pat), "--exact", "--out", str(tiles))
        return pat, tiles

    def test_ok(self, tmp_path, capsys):
        pat, tiles = self.solved(
            tmp_path, capsys, ("--type", "sierpinski", "--m", "3", "--n", "3"), "s"
        )
        code, stdout, _ = run(
            capsys, "verify", "--pattern", str(pat), "--tiles", str(tiles)
        )
        assert code == 0
        assert stdout.startswith("verify: OK")

    def test_wrong_pattern_fails(self, tmp_path, capsys):
        _, tiles = self.solved(
            tmp_path, capsys, ("--type", "sierpinski", "--m", "3", "--n", "3"), "s"
        )
        other = tmp_path / "counter.pat"
        run(capsys, "generate", "--type", "counter", "--m", "3", "--n", "3",
            "--out", str(other))
        code, stdout, stderr = run(
            capsys, "verify", "--pattern", str(other), "--tiles", str(tiles)
        )
        assert code == 1 and stdout == ""
        assert stderr.startswith("verify: FAIL")

    def test_dimension_mismatch(self, tmp_path, capsys):
        _, tiles = self.solved(
            tmp_path, capsys, ("--type", "sierpinski", "--m", "3", "--n", "3"), "s"
        )
        other = tmp_path / "big.pat"
        run(capsys, "generate", "--type", "sierpinski", "--m", "4", "--n", "4",
            "--out", str(other))
        code, _, stderr = run(
            capsys, "verify", "--pattern", str(other), "--tiles", str(tiles)
        )
        assert code == 1
        assert "dimension mismatch" in stderr


class TestBench:
    def test_tiny_table(self, tmp_path, capsys):
        out = tmp_path / "bench.tsv"
        code, _, _ = run(
            capsys, "bench", "--sizes", "2x2,2x3", "--runs", "3", "--seed", "1",
            "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "size\tp20\tmedian\tp80"
        assert len(lines) == 3
        for row in lines[1:]:
            size, p20, med, p80 = row.split("\t")
            assert int(p20) <= int(med) <= int(p80)
        assert lines[1].startswith("2x2\t") and lines[2].startswith("2x3\t")

    def test_bad_size_token(self, capsys):
        code, _, stderr = run(capsys, "bench", "--sizes", "2x2,fish")
        assert code == 1
        assert "bad size" in stderr

    def test_over_cell_cap_fails_fast(self, capsys):
        start = time.perf_counter()
        code, out, stderr = run(capsys, "bench", "--sizes", "100000x100000", "--runs", "1")
        assert time.perf_counter() - start < 0.5
        assert code == 1 and out == ""
        assert stderr.startswith("error:") and "MAX_CELLS" in stderr

    @staticmethod
    def no_solve():
        # every --sizes entry must be checked before the first solve
        return mock.patch("patsolve.cli.solve", side_effect=AssertionError("solve called"))

    def test_later_size_over_cap_fails_before_solving(self, capsys):
        start = time.perf_counter()
        with self.no_solve():
            code, out, stderr = run(
                capsys, "bench", "--sizes", "4x4,100000x100000", "--runs", "21"
            )
        assert time.perf_counter() - start < 0.5
        assert code == 1 and out == ""
        assert "MAX_CELLS" in stderr

    def test_too_many_colours_fails_before_solving(self, capsys):
        with self.no_solve():
            code, out, stderr = run(capsys, "bench", "--sizes", "4x4,2x2", "--k", "5")
        assert code == 1 and out == ""
        assert "need 1 <= k <= 4, got k=5" in stderr

    def test_zero_runs_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--sizes", "2x2", "--runs", "0"])
        assert exc.value.code == 2
        stderr = capsys.readouterr().err
        assert "--runs" in stderr and "must be at least 1" in stderr
        assert "Traceback" not in stderr

    def test_usage_error_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--pattern", "p.txt"])  # neither --exact nor --cutoff
        assert exc.value.code == 2
