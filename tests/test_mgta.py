import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from patsolve import (
    ColorGrid,
    SplitMix64,
    Partition,
    build_mgta,
    brute_constructible,
    color_partition,
    constructibility,
    extract_tas,
    grid_adjacencies,
    initial_partition,
    iter_set_partitions,
    merge_parts,
    merge_tiles,
    partition_from_labels,
    refines,
    simulate,
    UniqueTerminal,
    verify_solution,
)
from patsolve.mgta import check_constructible, coarsen_rows
from helpers import small_grids


def all_partitions(m, n):
    for rgs in iter_set_partitions(m * n):
        yield partition_from_labels(m, n, rgs)


def test_grid_adjacencies_count():
    # m*(n-1) vertical plus (m-1)*n horizontal internal edges
    for m, n in ((1, 1), (2, 2), (3, 4), (5, 2)):
        assert len(grid_adjacencies(m, n)) == m * (n - 1) + (m - 1) * n


def test_discrete_partition_glue_count():
    # 4mn slots minus one union per internal edge leaves 2mn + m + n
    for m in range(1, 9):
        for n in range(1, 9):
            f = build_mgta(initial_partition(m, n))
            assert f.num_classes == 2 * m * n + m + n, (m, n)


def test_single_cell_classes_are_slot_ordered():
    f = build_mgta(initial_partition(1, 1))
    assert f.glues == ((0, 1, 2, 3),)  # N, E, S, W by first occurrence


def test_single_part_collapses_to_two_classes():
    # one part covering a 3x3 grid: every N unifies with S, every E with W
    p = partition_from_labels(3, 3, [0] * 9)
    f = build_mgta(p)
    assert f.num_classes == 2
    n, e, s, w = f.glues[0]
    assert n == s and e == w and n != e
    assert constructibility(f).is_constructible


def test_checkerboard_quads():
    p = partition_from_labels(2, 2, [0, 1, 1, 0])
    f = build_mgta(p)
    assert f.glues == ((0, 1, 2, 3), (2, 3, 0, 1))
    assert constructibility(f).is_constructible


def test_known_conflict():
    # left column one part; the two lower-right cells one part; the top-right
    # cell alone.  The pair part's south glue meets its own north glue, and
    # the single cell inherits both classes from it: a forced collision.
    p = partition_from_labels(2, 3, [0, 1, 0, 1, 0, 2])
    f = build_mgta(p)
    verdict = constructibility(f)
    assert not verdict.is_constructible
    assert verdict.conflict == (1, 2)
    n1, e1, s1, w1 = f.glues[1]
    n2, e2, s2, w2 = f.glues[2]
    assert (s1, w1) == (s2, w2)


def test_conflict_pair_really_collides():
    rng = SplitMix64(13)
    seen = 0
    for p in all_partitions(3, 3):
        f = build_mgta(p)
        verdict = constructibility(f)
        if verdict.is_constructible:
            continue
        seen += 1
        a, b = verdict.conflict
        assert f.glues[a][2] == f.glues[b][2]  # south
        assert f.glues[a][3] == f.glues[b][3]  # west
    assert seen > 0


def test_adjacency_order_does_not_matter():
    rng = SplitMix64(21)
    base = grid_adjacencies(3, 3)
    for p in itertools.islice(all_partitions(3, 3), 0, 400, 7):
        f = build_mgta(p)
        for _ in range(5):
            order = list(base)
            rng.shuffle(order)
            g = build_mgta(p, adjacency_order=order)
            assert g.canonical_quads == f.canonical_quads
            assert g.num_classes == f.num_classes


def test_agrees_with_brute_force_on_all_small_partitions():
    for m, n in ((2, 2), (2, 3), (3, 3)):
        for p in all_partitions(m, n):
            assert constructibility(build_mgta(p)).is_constructible == (
                brute_constructible(p)
            ), p.labels


def test_incremental_merge_matches_batch_rebuild():
    rng = SplitMix64(55)
    for trial in range(500):
        m = 2 + trial % 3
        n = 2 + (trial // 3) % 3
        p = initial_partition(m, n)
        f = build_mgta(p)
        while p.num_parts > 1:
            a = rng.randrange(p.num_parts)
            b = rng.randrange(p.num_parts)
            if a == b:
                continue
            f = merge_tiles(f, a, b)
            p = merge_parts(p, a, b)
            batch = build_mgta(p)
            assert f.partition == p
            assert f.canonical_quads == batch.canonical_quads
            assert f.num_classes == batch.num_classes



@st.composite
def partitions(draw, max_side=5):
    """Partitions of grids of up to ``max_side`` x ``max_side`` cells, with
    canonical part ids."""
    m = draw(st.integers(1, max_side))
    n = draw(st.integers(1, max_side))
    raw = draw(st.lists(st.integers(0, m * n - 1), min_size=m * n, max_size=m * n))
    return partition_from_labels(m, n, raw)


def united(p, pairs):
    """The partition with the parts of each pair united, relabelled from
    scratch."""
    root = list(range(p.num_parts))

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for a, b in pairs:
        root[find(a)] = find(b)
    return partition_from_labels(p.m, p.n, [find(lab) for lab in p.labels])


def anchors_of(p):
    """The first cell of each part of ``p``, in canonical part order."""
    first = {}
    for c, lab in enumerate(p.labels):
        first.setdefault(lab, c)
    return sorted(first.values())


class TestCoarsen:
    """``coarsen_rows`` and ``merge_tiles`` against a fresh ``build_mgta``
    of the coarsened partition, part ids and class ids included."""

    @staticmethod
    def chained_pairs(p, data):
        ids = st.integers(0, p.num_parts - 1)
        pairs = data.draw(st.lists(st.tuples(ids, ids), max_size=5))
        walk = data.draw(st.lists(ids, min_size=1, max_size=4))
        # a chain a-b-c..., then its two ends and one part with itself,
        # each already one part by then
        return pairs + list(zip(walk, walk[1:])) + [(walk[-1], walk[0]), (walk[0], walk[0])]

    @settings(max_examples=300, deadline=None)
    @given(p=partitions(), data=st.data())
    def test_matches_rebuild(self, p, data):
        pairs = self.chained_pairs(p, data)
        f = build_mgta(p)
        rows = [(*quad, 7) for quad in f.glues]
        gone, ranks, new_rows, num_classes = coarsen_rows(rows, f.num_classes, pairs)
        want = build_mgta(united(p, pairs))
        assert new_rows == tuple((*quad, 7) for quad in want.glues)
        assert num_classes == want.num_classes
        # dropping the united-away ids lines the old parts' anchors up
        # with the new parts, and the ranks renumber every old class
        assert gone == sorted(gone, reverse=True)
        anchors = anchors_of(p)
        for q in gone:
            del anchors[q]
        assert anchors == anchors_of(want.partition)
        for old_part, new_part in zip(p.labels, want.partition.labels):
            assert tuple(ranks[g] for g in f.glues[old_part]) == want.glues[new_part]

    def test_uniting_two_colours_raises(self):
        # a united part is one tile, so all the parts it unites need one colour
        seen = {"mixed": 0, "one colour": 0}

        @settings(max_examples=300, deadline=None)
        @given(p=partitions(), data=st.data())
        def check(p, data):
            pairs = self.chained_pairs(p, data)
            colours = data.draw(
                st.lists(st.integers(0, 2), min_size=p.num_parts, max_size=p.num_parts)
            )
            f = build_mgta(p)
            rows = [(*quad, col) for quad, col in zip(f.glues, colours)]
            whole = united(p, pairs)
            part_colours = [set() for _ in range(whole.num_parts)]
            for old, new in zip(p.labels, whole.labels):
                part_colours[new].add(colours[old])
            if any(len(cols) > 1 for cols in part_colours):
                seen["mixed"] += 1
                with pytest.raises(ValueError, match="different colours"):
                    coarsen_rows(rows, f.num_classes, pairs)
            else:
                seen["one colour"] += 1
                coarsen_rows(rows, f.num_classes, pairs)

        check()
        assert all(seen.values()), seen

    def test_derived_rows_are_checked_like_a_rebuild(self):
        # check_constructible on coarsened rows, which are in canonical part
        # order, names the pair constructibility() names on a rebuild
        seen = {"constructible": 0, "conflict": 0}

        @settings(max_examples=300, deadline=None)
        @given(p=partitions(), data=st.data())
        def check(p, data):
            pairs = self.chained_pairs(p, data)
            f = build_mgta(p)
            rows = coarsen_rows([(*quad, 0) for quad in f.glues], f.num_classes, pairs)[2]
            verdict = constructibility(build_mgta(united(p, pairs)))
            if verdict.is_constructible:
                seen["constructible"] += 1
                check_constructible(rows)
            else:
                seen["conflict"] += 1
                a, b = verdict.conflict
                with pytest.raises(ValueError, match=rf"parts \({a}, {b}\) share S and W"):
                    check_constructible(rows)

        check()
        assert all(seen.values()), seen

    @settings(max_examples=300, deadline=None)
    @given(p=partitions(), data=st.data())
    def test_merge_tiles_matches_rebuild(self, p, data):
        k = p.num_parts
        assume(k >= 2)
        # the same grouping under any part ids, canonical or not
        perm = data.draw(st.permutations(range(k)))
        q = Partition(p.m, p.n, tuple(perm[lab] for lab in p.labels))
        a, b = data.draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True))
        got = merge_tiles(build_mgta(q), a, b)
        want = build_mgta(merge_parts(q, a, b))
        assert got.partition.labels == want.partition.labels  # canonical ids
        assert got.glues == want.glues
        assert got.num_classes == want.num_classes

    def test_merge_tiles_errors(self):
        f = build_mgta(initial_partition(2, 2))
        with pytest.raises(ValueError, match=r"^unknown part id in merge: 0, 4$"):
            merge_tiles(f, 0, 4)
        with pytest.raises(ValueError, match=r"^unknown part id in merge: -1, 2$"):
            merge_tiles(f, -1, 2)
        with pytest.raises(ValueError, match=r"^cannot merge a part with itself$"):
            merge_tiles(f, 3, 3)

class TestExtractTas:
    def test_stripes_round_trip(self):
        grid = ColorGrid(2, 2, 2, (0, 0, 1, 1))
        p = partition_from_labels(2, 2, [0, 0, 1, 1])
        system = extract_tas(build_mgta(p), grid)
        assert len(system.tiles) == 2
        result = simulate(system)
        assert isinstance(result, UniqueTerminal)
        assert result.assembly.colors(system) == grid.cells

    def test_rejects_conflicted_assignment(self):
        p = partition_from_labels(2, 3, [0, 1, 0, 1, 0, 2])
        f = build_mgta(p)
        grid = ColorGrid(2, 3, 3, (0, 1, 0, 1, 0, 2))
        with pytest.raises(ValueError):
            extract_tas(f, grid)

    def test_rejects_partition_crossing_colours(self):
        grid = ColorGrid(2, 2, 2, (0, 1, 1, 0))
        p = partition_from_labels(2, 2, [0, 0, 1, 1])  # mixes both colours
        with pytest.raises(ValueError):
            extract_tas(build_mgta(p), grid)

    def test_rejects_dimension_mismatch(self):
        p = partition_from_labels(2, 2, [0, 1, 1, 0])
        with pytest.raises(ValueError):
            extract_tas(build_mgta(p), ColorGrid(2, 3, 2, (0, 1, 1, 0, 0, 1)))

    def test_seed_rows_come_from_border_glues(self):
        grid = ColorGrid(2, 2, 2, (0, 1, 1, 0))
        p = partition_from_labels(2, 2, [0, 1, 1, 0])
        f = build_mgta(p)
        system = extract_tas(f, grid)
        assert system.seed_north == (f.glues[0][2], f.glues[1][2])
        assert system.seed_east == (f.glues[0][3], f.glues[1][3])

    def test_checks_agree_with_constructibility_and_refines(self):
        # extract_tas checks constructibility with one set of (S, W) pairs
        # and the colouring while it colours the parts; both must decide
        # exactly as constructibility() and refines(color_partition(g), p)
        seen = {"ok": 0, "conflict": 0, "colours": 0}

        @settings(max_examples=400, deadline=None)
        @given(grid=small_grids(max_cells=9), data=st.data())
        def check(grid, data):
            mn = grid.m * grid.n
            raw = data.draw(st.lists(st.integers(0, mn - 1), min_size=mn, max_size=mn))
            if data.draw(st.booleans()):
                # split the colour classes only, so the partition refines them
                raw = [c * mn + r for c, r in zip(grid.cells, raw)]
            p = partition_from_labels(grid.m, grid.n, raw)
            f = build_mgta(p)
            verdict = constructibility(f)
            if verdict.is_constructible and refines(color_partition(grid), p):
                seen["ok"] += 1
                system = extract_tas(f, grid)
                assert len(system.tiles) == p.num_parts
                assert verify_solution(system, grid).ok
                return
            with pytest.raises(ValueError) as exc:
                extract_tas(f, grid)
            if verdict.is_constructible:
                seen["colours"] += 1
                assert "grid colouring" in str(exc.value)
            else:
                seen["conflict"] += 1
                assert f"parts {verdict.conflict} share S and W" in str(exc.value)

        check()
        assert all(seen.values()), seen
