import time
from unittest import mock

import pytest

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

    def test_huge_header_short_row(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("2000000000 1 2\n0 1\n")
        code, _, stderr = run(capsys, "solve", "--pattern", str(bad), "--exact")
        assert code == 1
        assert stderr.startswith("error:") and "expected 2000000000 entries" in stderr

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
