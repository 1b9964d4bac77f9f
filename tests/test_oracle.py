import pytest

from patsolve import (
    ColorGrid,
    brute_constructible,
    enumerate_min_tileset,
    iter_set_partitions,
    partition_from_labels,
    refines,
    color_partition,
)

BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203, 7: 877, 8: 4140, 9: 21147}


def test_partition_counts_are_bell_numbers():
    for n, bell in BELL.items():
        assert sum(1 for _ in iter_set_partitions(n)) == bell


def test_restricted_growth_strings_are_valid():
    # each label is at most one above the running maximum, starting at 0
    for rgs in iter_set_partitions(6):
        mx = -1
        for v in rgs:
            assert 0 <= v <= mx + 1
            mx = max(mx, v)


def test_partitions_are_distinct():
    seen = set(tuple(r) for r in iter_set_partitions(7))
    assert len(seen) == BELL[7]


def test_discrete_and_single_part_constructibility():
    discrete = partition_from_labels(3, 3, range(9))
    assert brute_constructible(discrete)
    single = partition_from_labels(3, 3, [0] * 9)
    assert brute_constructible(single)


def test_known_conflict_is_rejected():
    p = partition_from_labels(2, 3, [0, 1, 0, 1, 0, 2])
    assert not brute_constructible(p)


class TestEnumerateMinTileset:
    def test_single_colour_needs_one_tile(self):
        result = enumerate_min_tileset(ColorGrid(3, 3, 1, (0,) * 9))
        assert result.min_size == 1

    def test_stripes_need_two(self):
        # vertical stripes: one tile per column colour
        result = enumerate_min_tileset(ColorGrid(2, 2, 2, (0, 1, 0, 1)))
        assert result.min_size == 2
        # horizontal stripes
        result = enumerate_min_tileset(ColorGrid(2, 2, 2, (0, 0, 1, 1)))
        assert result.min_size == 2

    def test_checkerboard_needs_two(self):
        # the diagonal partition is constructible: glue quads
        # (0,1,2,3) / (2,3,0,1) differ in the south-west pair
        result = enumerate_min_tileset(ColorGrid(2, 2, 2, (0, 1, 1, 0)))
        assert result.min_size == 2

    def test_lone_cell_needs_two(self):
        result = enumerate_min_tileset(ColorGrid(2, 2, 2, (0, 1, 1, 1)))
        assert result.min_size == 2

    def test_witness_is_usable(self):
        grid = ColorGrid(3, 3, 2, (0, 1, 0, 1, 0, 1, 0, 1, 0))
        result = enumerate_min_tileset(grid)
        w = result.witness
        assert w.num_parts == result.min_size
        assert refines(color_partition(grid), w)
        assert brute_constructible(w)

    def test_count_includes_discrete(self):
        # the discrete partition is always constructible, so the count is >= 1
        result = enumerate_min_tileset(ColorGrid(2, 2, 2, (0, 1, 1, 0)))
        assert result.count_constructible >= 1

    def test_size_cap(self):
        with pytest.raises(ValueError):
            enumerate_min_tileset(ColorGrid(2, 5, 1, (0,) * 10))


def test_min_size_never_below_colour_count():
    grid = ColorGrid(3, 3, 3, (0, 1, 2, 1, 0, 1, 2, 1, 0))
    result = enumerate_min_tileset(grid)
    assert result.min_size >= 3
