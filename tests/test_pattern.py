import itertools
import time
import tracemalloc

import pytest
from hypothesis import given, settings

from patsolve import (
    ColorGrid,
    PatternError,
    cell_coords,
    cell_index,
    color_partition,
    emit_pattern,
    gen_binary_counter,
    gen_random,
    gen_sierpinski,
    parse_pattern,
)
from patsolve.pattern import MAX_CELLS
from helpers import counter_color, sierpinski_color, small_grids


def test_cell_index_roundtrip():
    m, n = 5, 3
    seen = set()
    for y in range(1, n + 1):
        for x in range(1, m + 1):
            i = cell_index(x, y, m)
            assert cell_coords(i, m) == (x, y)
            seen.add(i)
    assert seen == set(range(m * n))


def test_cell_index_is_row_major_from_southwest():
    assert cell_index(1, 1, 4) == 0
    assert cell_index(2, 1, 4) == 1
    assert cell_index(1, 2, 4) == 4


class TestColorGrid:
    def test_color_accessor(self):
        g = ColorGrid(2, 2, 2, (0, 1, 1, 0))
        assert g.color(1, 1) == 0
        assert g.color(2, 1) == 1
        assert g.color(1, 2) == 1
        assert g.color(2, 2) == 0

    def test_rejects_wrong_cell_count(self):
        with pytest.raises(PatternError):
            ColorGrid(2, 2, 2, (0, 1, 0))

    def test_rejects_out_of_range_colour(self):
        with pytest.raises(PatternError):
            ColorGrid(2, 1, 2, (0, 2))

    def test_rejects_non_onto(self):
        with pytest.raises(PatternError, match="onto"):
            ColorGrid(2, 2, 3, (0, 1, 1, 0))

    def test_rejects_bad_dims(self):
        with pytest.raises(PatternError):
            ColorGrid(0, 2, 1, ())

    def test_single_colour_is_legal(self):
        g = ColorGrid(3, 2, 1, (0,) * 6)
        assert g.k == 1


class TestParseEmit:
    def test_roundtrip(self):
        for g in (gen_sierpinski(3, 4), gen_binary_counter(4, 4), gen_random(5, 2, 3, 1)):
            assert parse_pattern(emit_pattern(g)) == g

    @settings(max_examples=200, deadline=None)
    @given(grid=small_grids(max_cells=30, max_colours=12))
    def test_roundtrip_random_grids(self, grid):
        assert parse_pattern(emit_pattern(grid)) == grid

    def test_rows_are_north_first(self):
        # the last data row of the text is y=1
        g = ColorGrid(2, 2, 2, (0, 0, 1, 1))
        text = emit_pattern(g)
        lines = text.strip().splitlines()
        assert lines[0] == "2 2 2"
        assert lines[1] == "1 1"  # y=2
        assert lines[2] == "0 0"  # y=1

    def test_whitespace_tolerant(self):
        g = parse_pattern("  2  2   2 \n\n  1   1\n0  1\n")
        assert g.cells == (0, 1, 1, 1)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "2 2\n1 1\n0 1",  # short header
            "2 2 2\n1 1\n0 1 1",  # row too long
            "2 2 2\n1 1",  # missing row
            "2 2 2\n1 1\n0 2",  # colour out of range
            "2 2 2\n1 1\n1 1",  # not onto
            "a b c\n1 1\n0 1",  # non-numeric header
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(PatternError):
            parse_pattern(text)

    def test_row_widths_checked_before_allocation(self):
        # the header claims a million cells, the text holds two: the short
        # row must be rejected before a cell array of the claimed size exists
        tracemalloc.start()
        try:
            with pytest.raises(PatternError, match="expected 1000000 entries"):
                parse_pattern("1000000 1 2\n0 1\n")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestGridCap:
    @pytest.mark.parametrize(
        "gen",
        [gen_sierpinski, gen_binary_counter, lambda m, n: gen_random(m, n, 2, 0)],
        ids=["sierpinski", "counter", "random"],
    )
    @pytest.mark.parametrize("m, n", [(MAX_CELLS + 1, 1), (1, MAX_CELLS + 1), (10**5, 10**5)])
    def test_generators_refuse_before_allocating(self, gen, m, n):
        tracemalloc.start()
        try:
            with pytest.raises(PatternError, match="MAX_CELLS"):
                gen(m, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_parser_refuses_over_cap(self):
        # row widths are checked first, so the text must hold every cell
        text = "1025 1024 2\n" + ("0 1 " * 512 + "1\n") * 1024
        with pytest.raises(PatternError, match="MAX_CELLS"):
            parse_pattern(text)

    def test_grid_at_cap_is_accepted(self):
        assert MAX_CELLS == 1 << 20
        assert gen_binary_counter(MAX_CELLS, 1).m == MAX_CELLS


class TestGenerators:
    def test_sierpinski_matches_binomial_parity(self):
        g = gen_sierpinski(16, 16)
        for y in range(1, 17):
            for x in range(1, 17):
                assert g.color(x, y) == sierpinski_color(x, y), (x, y)

    def test_counter_matches_bit_extraction(self):
        g = gen_binary_counter(16, 16)
        for y in range(1, 17):
            for x in range(1, 17):
                assert g.color(x, y) == counter_color(x, y), (x, y)

    def test_counter_small_rows(self):
        # rows y=1..3 of a 3-wide counter read 1, 2, 3 in binary (lsb west)
        g = gen_binary_counter(3, 3)
        rows = [[g.color(x, y) for x in (1, 2, 3)] for y in (1, 2, 3)]
        assert rows == [[1, 0, 0], [0, 1, 0], [1, 1, 0]]

    def test_structured_generators_declare_two_colours(self):
        assert gen_sierpinski(4, 4).k == 2
        assert gen_binary_counter(4, 4).k == 2

    def test_degenerate_single_colour_strip(self):
        # a 1-wide counter column is all zeros except row 1; 1x1 is constant
        g = gen_binary_counter(1, 1)
        assert g.k == 1

    def test_random_is_onto_and_seeded(self):
        a = gen_random(6, 5, 3, 42)
        b = gen_random(6, 5, 3, 42)
        c = gen_random(6, 5, 3, 43)
        assert a == b
        assert a != c
        assert set(a.cells) == {0, 1, 2}

    def test_random_rejects_impossible_k(self):
        with pytest.raises(PatternError):
            gen_random(2, 2, 5, 0)

    def test_random_k_equals_cells(self):
        g = gen_random(2, 2, 4, 7)
        assert sorted(g.cells) == [0, 1, 2, 3]

    def test_random_gives_up_on_rare_onto_colourings(self):
        # an onto 25-colouring of 5x5 turns up once in about 5.8e9 draws
        start = time.perf_counter()
        with pytest.raises(PatternError, match="in 1000 draws"):
            gen_random(5, 5, 25, 0)
        assert time.perf_counter() - start < 5


def test_color_partition_parts_are_colour_preimages():
    g = ColorGrid(2, 2, 2, (0, 1, 1, 0))
    p = color_partition(g)
    assert p.labels == (0, 1, 1, 0)
    for i, lab in enumerate(p.labels):
        assert lab == g.cells[i]


def test_color_partition_every_small_grid():
    for cells in itertools.product(range(2), repeat=4):
        if set(cells) != {0, 1}:
            continue
        g = ColorGrid(2, 2, 2, cells)
        p = color_partition(g)
        assert p.num_parts == 2
        assert p.labels == cells
