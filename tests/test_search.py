import itertools
import sys
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import patsolve.search as search_module
from patsolve import (
    ColorGrid,
    SharedIncumbent,
    SolveConfig,
    SplitMix64,
    brute_constructible,
    build_mgta,
    check_special_form,
    child_node,
    color_partition,
    constructibility,
    enumerate_children,
    enumerate_min_tileset,
    extract_tas,
    forced_child,
    gen_random,
    gen_sierpinski,
    initial_partition,
    iter_set_partitions,
    lower_bound,
    make_root,
    merge_parts,
    partition_from_labels,
    refines,
    solve,
    verify_solution,
)
from helpers import onto_colorings


class TestSolveConfig:
    def test_exact_constructor(self):
        cfg = SolveConfig.exact(seed=5)
        assert cfg.mode == "exact" and cfg.cutoff_merges is None

    def test_anytime_constructor(self):
        cfg = SolveConfig.anytime(1000, seed=5)
        assert cfg.mode == "anytime" and cfg.cutoff_merges == 1000

    def test_exact_forbids_cutoff(self):
        with pytest.raises(ValueError):
            SolveConfig(mode="exact", cutoff_merges=10)

    def test_anytime_requires_cutoff(self):
        with pytest.raises(ValueError):
            SolveConfig(mode="anytime")

    def test_cutoff_zero_is_legal_but_negative_is_not(self):
        assert SolveConfig.anytime(0, seed=1).cutoff_merges == 0
        with pytest.raises(ValueError):
            SolveConfig.anytime(-1, seed=1)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            SolveConfig(mode="bestfirst")


class TestNodeApi:
    def test_root_shape(self):
        g = ColorGrid(2, 2, 2, (0, 1, 1, 0))
        root = make_root(g)
        assert root.partition == initial_partition(2, 2)
        assert root.bound == 2  # one singleton clique allowance per colour
        assert all(not c for c in root.graphs.clique)
        assert check_special_form(root)

    def test_lower_bound_arithmetic(self):
        g = ColorGrid(2, 2, 2, (0, 1, 1, 0))
        root = make_root(g)
        assert lower_bound(root.graphs) == 2

    def test_enumerate_children_count(self):
        # three cells of one colour, one of the other: C(3,2) + 0 children
        g = ColorGrid(2, 2, 2, (0, 1, 1, 1))
        moves = enumerate_children(make_root(g), SplitMix64(3))
        assert len(moves) == 3
        for mv in moves:
            assert g.cells[mv.p1] == g.cells[mv.p2] == mv.color

    def test_enumeration_count_general(self):
        # sum over colours of C(n_k, 2) at a fresh root
        g = ColorGrid(3, 3, 2, (0, 0, 1, 0, 1, 1, 0, 1, 0))
        n0 = sum(1 for c in g.cells if c == 0)
        n1 = 9 - n0
        moves = enumerate_children(make_root(g), SplitMix64(0))
        want = n0 * (n0 - 1) // 2 + n1 * (n1 - 1) // 2
        assert len(moves) == want

    def test_enumerate_requires_constructible(self):
        node = build_node([0, 1, 0, 1, 0, 2], (0, 1, 0, 1, 0, 1), 2)
        with pytest.raises(ValueError):
            enumerate_children(node, SplitMix64(0))

    def test_child_node_keeps_special_form(self):
        g = ColorGrid(2, 2, 2, (0, 1, 1, 1))
        root = make_root(g)
        for mv in enumerate_children(root, SplitMix64(1)):
            child = child_node(root, mv)
            assert check_special_form(child)
            assert child.partition.num_parts == 3


def build_node(labels, colors, k):
    """A SearchNode over an arbitrary partition with all parts isolated."""
    from patsolve.search import ConstraintGraphs, SearchNode

    g = ColorGrid(2, 3, k, colors)
    p = partition_from_labels(2, 3, labels)
    colors_of = [-1] * p.num_parts
    for i, lab in enumerate(p.labels):
        if colors_of[lab] < 0:
            colors_of[lab] = g.cells[i]
    iso = [set() for _ in range(k)]
    for part, col in enumerate(colors_of):
        iso[col].add(part)
    graphs = ConstraintGraphs(
        tuple(frozenset() for _ in range(k)), tuple(frozenset(s) for s in iso)
    )
    return SearchNode(g, p, build_mgta(p), graphs, lower_bound(graphs))


class TestForcedChild:
    def test_same_colour_conflict_is_forced(self):
        # the known 2x3 conflict with both parts coloured alike
        node = build_node([0, 1, 0, 1, 0, 2], (0, 1, 0, 1, 0, 1), 2)
        mv = forced_child(node)
        assert mv is not None
        assert {mv.p1, mv.p2} == {1, 2}

    def test_cross_colour_conflict_dies(self):
        node = build_node([0, 1, 0, 1, 0, 2], (0, 1, 0, 1, 0, 2), 3)
        assert forced_child(node) is None

    def test_excluded_pair_dies(self):
        # same conflict, but both parts already sit in their colour's clique
        from patsolve.search import ConstraintGraphs, SearchNode

        base = build_node([0, 1, 0, 1, 0, 2], (0, 1, 0, 1, 0, 1), 2)
        cliques = list(base.graphs.clique)
        iso = list(base.graphs.isolated)
        col = 1
        cliques[col] = frozenset({1, 2})
        iso[col] = iso[col] - {1, 2}
        graphs = ConstraintGraphs(tuple(cliques), tuple(iso))
        node = SearchNode(
            base.grid, base.partition, base.glues, graphs, lower_bound(graphs)
        )
        assert forced_child(node) is None

    def test_forced_on_constructible_raises(self):
        g = ColorGrid(2, 2, 2, (0, 1, 1, 0))
        with pytest.raises(ValueError):
            forced_child(make_root(g))


def test_conflict_pair_merge_dominates_coarsenings():
    # for every conflicted partition, every constructible coarsening also
    # coarsens the forced merge of the conflict pair
    for m, n in ((2, 2), (2, 3)):
        partitions = [
            partition_from_labels(m, n, rgs) for rgs in iter_set_partitions(m * n)
        ]
        constructible = [p for p in partitions if brute_constructible(p)]
        for p in partitions:
            verdict = constructibility(build_mgta(p))
            if verdict.is_constructible:
                continue
            p1, p2 = verdict.conflict
            forced = merge_parts(p, p1, p2)
            for c in constructible:
                if refines(c, p):
                    assert refines(c, forced), (p.labels, c.labels)


class TestSolveSmall:
    def test_matches_oracle_on_2x2(self):
        for g in onto_colorings(2, 2):
            res = solve(g, SolveConfig.exact(seed=1))
            assert res.proven_optimal
            assert res.best_size == enumerate_min_tileset(g).min_size

    def test_matches_oracle_on_sampled_3x3(self):
        for seed in range(8):
            g = gen_random(3, 3, 2, seed)
            res = solve(g, SolveConfig.exact(seed=seed))
            assert res.proven_optimal
            assert res.best_size == enumerate_min_tileset(g).min_size

    def test_single_colour_grid(self):
        g = ColorGrid(3, 3, 1, (0,) * 9)
        res = solve(g, SolveConfig.exact(seed=0))
        assert res.best_size == 1 and res.proven_optimal

    def test_one_by_one(self):
        g = ColorGrid(1, 1, 1, (0,))
        res = solve(g, SolveConfig.exact(seed=0))
        assert res.best_size == 1
        assert res.merges_performed == 0

    def test_sierpinski_exact(self):
        res3 = solve(gen_sierpinski(3, 3), SolveConfig.exact(seed=0))
        assert (res3.best_size, res3.proven_optimal) == (3, True)
        res4 = solve(gen_sierpinski(4, 4), SolveConfig.exact(seed=0))
        assert (res4.best_size, res4.proven_optimal) == (4, True)

    def test_deep_strip(self):
        # a 1-wide column exercises long forced chains and deep recursion
        g = gen_random(1, 16, 2, 3)
        res = solve(g, SolveConfig.exact(seed=3))
        assert res.proven_optimal
        assert verify_solution(res.best_system, g).ok


class TestSolveContract:
    def test_first_incumbent_is_instance_size(self):
        g = gen_random(3, 3, 2, 11)
        res = solve(g, SolveConfig.exact(seed=11))
        assert res.trace[0] == (0, 9)

    def test_trace_strictly_decreases(self):
        g = gen_random(4, 4, 2, 2)
        res = solve(g, SolveConfig.exact(seed=2))
        sizes = [s for _, s in res.trace]
        assert sizes == sorted(sizes, reverse=True)
        assert len(set(sizes)) == len(sizes)
        merges = [m for m, _ in res.trace]
        assert merges == sorted(merges)
        assert res.best_size == sizes[-1]

    def test_best_system_verifies(self):
        g = gen_random(4, 4, 3, 7)
        res = solve(g, SolveConfig.exact(seed=7))
        assert verify_solution(res.best_system, g).ok
        assert res.best_partition.num_parts == res.best_size
        assert refines(color_partition(g), res.best_partition)

    def test_same_seed_same_run(self):
        g = gen_random(5, 5, 2, 4)
        a = solve(g, SolveConfig.anytime(20_000, seed=9))
        b = solve(g, SolveConfig.anytime(20_000, seed=9))
        assert (a.best_size, a.trace, a.merges_performed) == (
            b.best_size,
            b.trace,
            b.merges_performed,
        )

    def test_different_seed_different_run(self):
        g = gen_random(6, 6, 2, 5)
        a = solve(g, SolveConfig.anytime(30_000, seed=9))
        c = solve(g, SolveConfig.anytime(30_000, seed=10))
        assert a.trace != c.trace

    def test_cutoff_is_respected(self):
        g = gen_random(6, 6, 2, 1)
        res = solve(g, SolveConfig.anytime(500, seed=1))
        assert res.merges_performed == 500
        assert not res.proven_optimal
        assert verify_solution(res.best_system, g).ok

    def test_exhaustion_before_cutoff_proves(self):
        g = gen_random(3, 3, 2, 6)
        res = solve(g, SolveConfig.anytime(10**6, seed=6))
        assert res.proven_optimal
        assert res.merges_performed < 10**6

    def test_tiny_cutoff_still_yields_solution(self):
        g = gen_random(4, 4, 2, 8)
        res = solve(g, SolveConfig.anytime(1, seed=8))
        assert res.best_size <= 16
        assert verify_solution(res.best_system, g).ok


class TestPruningIsSound:
    def test_toggles_do_not_change_optimum(self):
        for g in itertools.islice(onto_colorings(2, 3), 0, 62, 5):
            full = solve(g, SolveConfig.exact(seed=3))
            nb = solve(g, SolveConfig.exact(seed=3), use_bound=False)
            ng = solve(g, SolveConfig.exact(seed=3), use_graph_pruning=False)
            assert full.best_size == nb.best_size == ng.best_size

    def test_toggles_on_3x3(self):
        g = gen_random(3, 3, 2, 17)
        full = solve(g, SolveConfig.exact(seed=17))
        ng = solve(g, SolveConfig.exact(seed=17), use_graph_pruning=False)
        assert full.best_size == ng.best_size


class TestObservers:
    def test_node_disjointness_on_2x2(self):
        for g in onto_colorings(2, 2):
            seen = []
            solve(g, SolveConfig.exact(seed=5), observer=seen.append)
            signatures = [info.signature for info in seen]
            assert len(signatures) == len(set(signatures)), g.cells

    def test_node_disjointness_on_2x3_sample(self):
        for g in itertools.islice(onto_colorings(2, 3), 0, 62, 9):
            seen = []
            solve(g, SolveConfig.exact(seed=5), observer=seen.append)
            signatures = [info.signature for info in seen]
            assert len(signatures) == len(set(signatures))

    def test_observed_invariants(self):
        g = gen_random(3, 3, 2, 23)
        seen = []
        solve(g, SolveConfig.exact(seed=23), observer=seen.append)
        for info in seen:
            anchors = set(info.part_anchors)
            assert len(anchors) == info.num_parts
            members = set().union(*info.cliques) if info.cliques else set()
            assert members <= anchors
            assert info.bound == sum(max(1, len(c)) for c in info.cliques)

    def test_progress_cadence(self):
        g = gen_random(5, 5, 2, 2)
        calls = []
        solve(
            g,
            SolveConfig.anytime(2000, seed=2, report_every=250),
            progress=lambda m, b: calls.append((m, b)),
        )
        reported = {m for m, _ in calls}
        assert {250, 500, 750, 1000, 1250, 1500, 1750, 2000} <= reported

    def test_on_incumbent_systems_verify(self):
        g = gen_random(5, 5, 2, 12)
        seen = []
        solve(
            g,
            SolveConfig.anytime(10_000, seed=12),
            on_incumbent=lambda m, s, system, part: seen.append((s, system, part)),
        )
        assert seen
        for size, system, part in seen:
            assert part.num_parts == size
            assert len(system.tiles) == size
            assert verify_solution(system, g).ok


class TestSharedIncumbent:
    def test_offer_is_monotone(self):
        cell = SharedIncumbent()
        cell.offer(10)
        cell.offer(20)
        assert cell.value == 10
        cell.offer(3)
        assert cell.value == 3

    def test_portfolio_shares_best(self):
        g = gen_random(5, 5, 2, 3)
        cell = SharedIncumbent()
        r1 = solve(g, SolveConfig.anytime(15_000, seed=1), shared_incumbent=cell)
        r2 = solve(g, SolveConfig.anytime(15_000, seed=2), shared_incumbent=cell)
        assert cell.value == min(r1.best_size, r2.best_size)

    def test_foreign_bound_prunes_but_keeps_local_result(self):
        g = gen_random(4, 4, 2, 5)
        alone = solve(g, SolveConfig.exact(seed=5))
        cell = SharedIncumbent()
        cell.offer(alone.best_size)
        helped = solve(g, SolveConfig.exact(seed=5), shared_incumbent=cell)
        # the foreign incumbent only prunes; local search still finds its own
        assert helped.best_size >= alone.best_size
        assert helped.merges_performed <= alone.merges_performed


@st.composite
def small_grids(draw):
    """Onto colourings of grids of at most 12 cells, strips included."""
    m = draw(st.integers(1, 12))
    n = draw(st.integers(1, 12 // m))
    raw = draw(st.lists(st.integers(0, 2), min_size=m * n, max_size=m * n))
    relabel: dict[int, int] = {}
    cells = tuple(relabel.setdefault(c, len(relabel)) for c in raw)
    return ColorGrid(m, n, len(relabel), cells)


class TestIncumbentAssignment:
    """The engine reads each incumbent's glue assignment off its own slot
    union-find.  build_mgta computes the same assignment from the
    partition alone; the two must agree on every incumbent, class ids
    included."""

    @staticmethod
    def solve_checked(grid, cfg):
        real_extract = search_module.extract_tas
        checked = []

        def extract_checked(f, g):
            ref = build_mgta(f.partition)
            assert f.glues == ref.glues
            assert f.num_classes == ref.num_classes
            system = real_extract(f, g)
            assert system == extract_tas(ref, g)
            checked.append(system)
            return system

        with mock.patch.object(search_module, "extract_tas", extract_checked):
            result = solve(grid, cfg)
        assert len(checked) == len(result.trace)
        assert checked[-1] == result.best_system
        return result

    @settings(max_examples=100, deadline=None)
    @given(grid=small_grids(), seed=st.integers(0, 1000))
    @example(grid=gen_random(1, 12, 2, 4), seed=4)
    @example(grid=gen_random(12, 1, 2, 4), seed=4)
    @example(grid=gen_sierpinski(3, 4), seed=0)
    def test_small_grids_exact(self, grid, seed):
        self.solve_checked(grid, SolveConfig.exact(seed=seed))

    def test_sierpinski16(self):
        res = self.solve_checked(gen_sierpinski(16, 16), SolveConfig.anytime(2000, seed=0))
        assert res.best_size == 4

    def test_random16(self):
        res = self.solve_checked(
            gen_random(16, 16, 2, 100), SolveConfig.anytime(7500, seed=100)
        )
        assert len(res.trace) > 100


class TestProcessState:
    # 20x20 needs a recursion limit of 3*400+200 = 1400, above the 1000
    # that is set here, so solve has to raise it and put it back
    @pytest.mark.parametrize(
        "grid, cfg",
        [
            (ColorGrid(20, 20, 1, (0,) * 400), SolveConfig.exact(seed=0)),
            (gen_random(20, 20, 2, 1), SolveConfig.anytime(50, seed=0)),
        ],
        ids=["exact", "cutoff"],
    )
    def test_recursion_limit_restored(self, grid, cfg):
        saved = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            solve(grid, cfg)
            assert sys.getrecursionlimit() == 1000
        finally:
            sys.setrecursionlimit(saved)
