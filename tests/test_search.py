import itertools
import sys
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import patsolve.search as search_module
from patsolve import (
    ColorGrid,
    SolveConfig,
    brute_constructible,
    build_mgta,
    color_partition,
    constructibility,
    enumerate_min_tileset,
    extract_tas,
    gen_random,
    gen_sierpinski,
    initial_partition,
    iter_set_partitions,
    merge_parts,
    partition_from_labels,
    refines,
    solve,
    verify_solution,
)
from helpers import onto_colorings, small_grids


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


def observe(grid, seed=0, **options):
    """Every node the engine visits on an exact solve, in visiting order,
    as (NodeInfo, Partition) pairs."""
    seen = []
    solve(grid, SolveConfig.exact(seed=seed), observer=seen.append, **options)
    return [(info, partition_from_labels(grid.m, grid.n, info.part_anchors)) for info in seen]


def sample_grids():
    """Every two-coloured 2x2 and 2x3 grid and a sample of three-coloured
    2x3 grids."""
    yield from onto_colorings(2, 2)
    yield from onto_colorings(2, 3)
    yield from itertools.islice(onto_colorings(2, 3, k=3), 0, 540, 9)


class TestNodeApi:
    """The nodes the engine visits, as its observer sees them."""

    def test_root_shape(self):
        for g in (ColorGrid(2, 2, 2, (0, 1, 1, 0)), gen_random(3, 3, 3, 4)):
            root, _ = observe(g)[0]
            assert root.part_anchors == tuple(range(g.m * g.n))  # discrete
            assert root.bound == g.k  # one singleton clique allowance per colour
            assert all(not c for c in root.cliques)
            assert root.constructible and root.merges == 0

    def test_lower_bound_arithmetic(self):
        # without the bound the search reaches nodes with large cliques
        nodes = observe(gen_random(3, 3, 3, 4), use_bound=False)
        assert max(len(c) for info, _ in nodes for c in info.cliques) >= 3
        for info, _ in nodes:
            assert info.bound == sum(max(1, len(c)) for c in info.cliques)

    def test_enumerate_children_count(self):
        # three cells of one colour, one of the other: C(3,2) + 0 children,
        # each the merge of a same-coloured pair of cells
        g = ColorGrid(2, 2, 2, (0, 1, 1, 1))
        root = initial_partition(2, 2)
        pairs = [(a, b) for a, b in itertools.combinations(range(4), 2)
                 if g.cells[a] == g.cells[b]]
        children = [part for info, part in observe(g, seed=3, use_bound=False)
                    if info.num_parts == 3]
        assert sorted(c.labels for c in children) == sorted(
            merge_parts(root, a, b).labels for a, b in pairs
        )

    def test_enumeration_count_general(self):
        # sum over colours of C(n_k, 2) at a fresh root
        for g in (ColorGrid(3, 3, 2, (0, 0, 1, 0, 1, 1, 0, 1, 0)), gen_random(3, 3, 3, 4)):
            counts = [g.cells.count(c) for c in range(g.k)]
            nodes = observe(g, use_bound=False)
            children = [info for info, _ in nodes if info.num_parts == g.m * g.n - 1]
            assert len(children) == sum(c * (c - 1) // 2 for c in counts)

    def test_enumerate_requires_constructible(self):
        # Below a node the visit order lists its subtree contiguously, and no
        # later node coarsens it (later branches keep an excluded pair of it
        # apart), so its children are the nodes of that run with one part
        # fewer.  A conflicted node has at most one; constructible ones
        # branch.
        branching = 0
        for g in sample_grids():
            nodes = observe(g, seed=5)
            for i, (info, part) in enumerate(nodes):
                children = []
                for _, later in nodes[i + 1:]:
                    if not refines(later, part):
                        break
                    if later.num_parts == part.num_parts - 1:
                        children.append(later)
                if not info.constructible:
                    assert len(children) <= 1, (g.cells, part.labels)
                branching += len(children) > 1
        assert branching

    def test_child_node_keeps_special_form(self):
        # every part is one colour, and every clique holds live anchors of
        # its own colour only
        for g in sample_grids():
            for info, part in observe(g, seed=1):
                assert refines(color_partition(g), part)
                anchors = set(info.part_anchors)
                for col, clique in enumerate(info.cliques):
                    assert clique <= anchors
                    assert all(g.cells[a] == col for a in clique)


def visited_nodes():
    """Every node the engine visits on the sample grids and on random 4x4
    grids, as (grid, NodeInfo, partition, ``constructibility`` verdict,
    next node's partition or None).  The sample grids run with the bound
    off, so that the search goes deep enough to meet excluded pairs; the
    4x4 grids add nodes with several conflicts to choose from."""
    runs = [(g, {"use_bound": False}) for g in sample_grids()]
    runs += [(gen_random(4, 4, k, s), {}) for k in (2, 3) for s in range(4)]
    for g, options in runs:
        nodes = observe(g, seed=7, **options)
        for i, (info, part) in enumerate(nodes):
            after = nodes[i + 1][1] if i + 1 < len(nodes) else None
            yield g, info, part, constructibility(build_mgta(part)), after


def conflicted_steps():
    """For every conflicted node of ``visited_nodes``: its partition, the
    conflict pair ``constructibility`` reports, whether the pair is one
    colour, whether it is excluded, and the next node's partition."""
    for g, info, part, verdict, after in visited_nodes():
        if verdict.is_constructible:
            continue
        p1, p2 = verdict.conflict
        anchors = sorted(set(info.part_anchors))  # part ids follow ascending anchors
        a1, a2 = anchors[p1], anchors[p2]
        col = g.cells[a1]
        excluded = a1 in info.cliques[col] and a2 in info.cliques[col]
        yield part, (p1, p2), g.cells[a2] == col, excluded, after


class TestForcedChild:
    """The forced step of the engine against ``mgta.constructibility``."""

    def test_same_colour_conflict_is_forced(self):
        forced = 0
        for part, (p1, p2), same_colour, excluded, after in conflicted_steps():
            if same_colour and not excluded:
                assert after == merge_parts(part, p1, p2), part.labels
                forced += 1
        assert forced

    def test_cross_colour_conflict_dies(self):
        dead = 0
        for part, (p1, p2), same_colour, _, after in conflicted_steps():
            if not same_colour:
                assert after != merge_parts(part, p1, p2), part.labels
                dead += 1
        assert dead

    def test_excluded_pair_dies(self):
        # the conflicting pair already sits in its colour's clique
        dead = 0
        for part, (p1, p2), same_colour, excluded, after in conflicted_steps():
            if same_colour and excluded:
                assert after != merge_parts(part, p1, p2), part.labels
                dead += 1
        assert dead

    def test_constructible_flag_matches_mgta(self):
        for _, info, part, verdict, _ in visited_nodes():
            assert info.constructible == verdict.is_constructible, part.labels


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

    # every grid the oracle takes (at most 9 cells), k from 1 to 4; an
    # oracle call on 9 cells takes about 0.06 s
    @settings(max_examples=300, deadline=None)
    @given(grid=small_grids(max_cells=9, max_colours=4), seed=st.integers(0, 1000))
    @example(grid=gen_random(1, 9, 2, 5), seed=5)
    @example(grid=gen_random(9, 1, 2, 5), seed=5)
    @example(grid=gen_random(1, 9, 4, 6), seed=6)
    @example(grid=gen_random(9, 1, 3, 6), seed=6)
    def test_matches_oracle_on_small_grids(self, grid, seed):
        res = solve(grid, SolveConfig.exact(seed=seed))
        assert res.proven_optimal
        assert res.best_size == enumerate_min_tileset(grid).min_size

    def test_deep_strip(self):
        # a 1-wide column exercises long forced chains and a deep search stack
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
    # the brute-force oracle is the independent reference for the optimum;
    # the bound prune must change nothing either
    def test_toggles_do_not_change_optimum(self):
        for g in itertools.islice(onto_colorings(2, 3), 0, 62, 5):
            full = solve(g, SolveConfig.exact(seed=3))
            nb = solve(g, SolveConfig.exact(seed=3), use_bound=False)
            assert full.best_size == nb.best_size == enumerate_min_tileset(g).min_size

    def test_toggles_on_3x3(self):
        g = gen_random(3, 3, 2, 17)
        full = solve(g, SolveConfig.exact(seed=17))
        assert full.best_size == enumerate_min_tileset(g).min_size


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


def stack_depth() -> int:
    depth, frame = 0, sys._getframe(1)
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


PROCESS_STATE_SOLVES = pytest.mark.parametrize(
    "grid, cfg",
    [
        (ColorGrid(20, 20, 1, (0,) * 400), SolveConfig.exact(seed=0)),
        (gen_random(20, 20, 2, 1), SolveConfig.anytime(50, seed=0)),
    ],
    ids=["exact", "cutoff"],
)


class TestProcessState:
    # On 20x20 the exact solve's deepest path is 399 merges long and the
    # cutoff solve stops mid-tree; either way the recursion limit must be
    # as solve found it
    @PROCESS_STATE_SOLVES
    def test_recursion_limit_restored(self, grid, cfg):
        saved = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            solve(grid, cfg)
            assert sys.getrecursionlimit() == 1000
        finally:
            sys.setrecursionlimit(saved)

    @PROCESS_STATE_SOLVES
    def test_no_recursion_limit_needed(self, grid, cfg):
        # 60 frames above this one are enough only for a solve whose call
        # depth does not grow with the depth of the tree
        saved = sys.getrecursionlimit()
        sys.setrecursionlimit(stack_depth() + 60)
        try:
            with mock.patch.object(
                sys, "setrecursionlimit", side_effect=AssertionError("recursion limit changed")
            ):
                res = solve(grid, cfg)
        finally:
            sys.setrecursionlimit(saved)
        assert verify_solution(res.best_system, grid).ok
