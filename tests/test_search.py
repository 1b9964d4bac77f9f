import itertools
import sys
from contextlib import ExitStack
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import patsolve.search as search_module
from patsolve import (
    ColorGrid,
    Partition,
    SolveConfig,
    SplitMix64,
    Tile,
    brute_constructible,
    build_mgta,
    color_partition,
    constructibility,
    emit_tileset,
    enumerate_min_tileset,
    extract_tas,
    gen_binary_counter,
    gen_random,
    gen_sierpinski,
    initial_partition,
    iter_set_partitions,
    merge_parts,
    partition_from_labels,
    refines,
    simulate,
    solve,
    verify_solution,
)
from patsolve.keyindex import KeyIndex
from patsolve.mgta import E, N, S, W
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

    @pytest.mark.parametrize("field, value", [
        ("cutoff_merges", 3.5),
        ("cutoff_merges", True),
        ("report_every", 2.5),
        ("report_every", True),
        ("rng_seed", 1.5),
    ])
    def test_counts_and_seed_must_be_int(self, field, value):
        # a float count would be rounded up by the merge counter, and a
        # float seed would fail inside SplitMix64 only once solve runs
        with pytest.raises(TypeError, match=field):
            SolveConfig(**{"mode": "anytime", "cutoff_merges": 10, field: value})


class UnboundedEngine(search_module._Engine):
    """The engine with the bound prune off and the excluded-pair
    exclusions kept, so that observed searches reach deep nodes with large
    cliques and so that the prune's soundness can be checked."""

    def _pruned(self):
        return False


def solve_unbounded(grid, cfg, **options):
    with mock.patch.object(search_module, "_Engine", UnboundedEngine):
        return solve(grid, cfg, **options)


def observe(grid, seed=0, unbounded=False):
    """Every node the engine (or ``UnboundedEngine``) visits on an exact
    solve, in visiting order, as (NodeInfo, Partition) pairs."""
    seen = []
    (solve_unbounded if unbounded else solve)(
        grid, SolveConfig.exact(seed=seed), observer=seen.append
    )
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
        nodes = observe(gen_random(3, 3, 3, 4), unbounded=True)
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
        children = [part for info, part in observe(g, seed=3, unbounded=True)
                    if info.num_parts == 3]
        assert sorted(c.labels for c in children) == sorted(
            merge_parts(root, a, b).labels for a, b in pairs
        )

    def test_enumeration_count_general(self):
        # sum over colours of C(n_k, 2) at a fresh root
        for g in (ColorGrid(3, 3, 2, (0, 0, 1, 0, 1, 1, 0, 1, 0)), gen_random(3, 3, 3, 4)):
            counts = [g.cells.count(c) for c in range(g.k)]
            nodes = observe(g, unbounded=True)
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


class ScriptedRng:
    """The draws ``_node`` makes, scripted: the deviation draw of pick i
    (counted over the picks that draw one, those with more than one vertex
    left) departs when i is in ``script``, whose value maps the number of
    vertices left to the swap offset j; shuffles keep the order."""

    def __init__(self, script):
        self.script, self.picks, self.offset = script, 0, None

    def randrange(self, n):
        if self.offset is not None:
            j, self.offset = self.offset(n), None
            return j
        assert n == search_module._DEVIATION
        self.offset = self.script.get(self.picks)
        self.picks += 1
        return 1 if self.offset is None else 0

    def shuffle(self, items):
        pass


def listed_walk(isolated, script):
    """The isolated vertices in the order the walk takes them, by the rule
    that lists the rest of the walk at each deviation and swaps its first
    vertex with its j-th."""
    rest, taken, pick = list(isolated), [], 0
    while rest:
        if len(rest) > 1:
            if pick in script:
                j = script[pick](len(rest))
                rest[0], rest[j] = rest[j], rest[0]
            pick += 1
        taken.append(rest.pop(0))
    return taken


@pytest.mark.parametrize("script", [
    {0: lambda left: left - 1},  # at the first pick
    {0: lambda left: 0},
    {3: lambda left: left // 2},  # at a later pick
    {4: lambda left: left - 1},
    {1: lambda left: 5, 2: lambda left: 2},  # twice in a row, within the listed vertices
    {1: lambda left: 2, 2: lambda left: left - 1},  # twice in a row, past them
    {0: lambda left: 0, 1: lambda left: left - 1, 2: lambda left: 0},
], ids=["first-last", "first-zero", "later", "later-last", "twice-within", "twice-past", "thrice"])
def test_deviations_take_the_listed_walks_vertices(script):
    # a node of merged parts, some of them already in a clique, so the
    # walk skips live parts; the vertices join their cliques in the order
    # they are taken, and exhausting the node undoes the joins
    grid = gen_random(4, 4, 2, 23)
    engine = UnboundedEngine(grid, SolveConfig.exact(), None, None, None)
    for lo, hi in ((3, 10), (1, 9)):
        while lo != hi:
            engine.path.append(engine._apply_merge(lo, hi, grid.cells[lo]))
            lo, hi = engine._find_conflict() or (0, 0)
    live = live_anchors(engine.nxt, engine.mn)
    taken = []

    class Clique(set):
        def add(self, v):
            taken.append(v)
            super().add(v)

    engine.clique = [Clique(a for a in live[2:9:3] if grid.cells[a] == col) for col in range(grid.k)]
    assert all(engine.clique) and engine.keys is None
    before = [set(cl) for cl in engine.clique]
    isolated = [a for a in live if a not in engine.clique[grid.cells[a]]]
    engine.best = 0  # no adoption; the unbounded engine prunes nothing
    engine.rng = ScriptedRng(script)
    children = list(engine._node())
    assert taken == listed_walk(isolated, script)
    assert engine.rng.picks == len(isolated) - 1
    assert len(children) == sum(
        len(before[grid.cells[v]]) + sum(grid.cells[u] == grid.cells[v] for u in taken[:i])
        for i, v in enumerate(taken)
    )
    assert engine.clique == before


def visited_nodes():
    """Every node the engine visits on the sample grids and on random 4x4
    grids, as (grid, NodeInfo, partition, ``constructibility`` verdict,
    next node's partition or None).  The sample grids run with the bound
    off (``UnboundedEngine``), so that the search goes deep enough to meet
    excluded pairs; the 4x4 grids add nodes with several conflicts to
    choose from."""
    runs = [(g, True) for g in sample_grids()]
    runs += [(gen_random(4, 4, k, s), False) for k in (2, 3) for s in range(4)]
    for g, unbounded in runs:
        nodes = observe(g, seed=7, unbounded=unbounded)
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
            nb = solve_unbounded(g, SolveConfig.exact(seed=3))
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

    @pytest.mark.parametrize("grid", [
        gen_random(4, 4, 2, 3), gen_random(4, 4, 3, 5), gen_sierpinski(5, 5),
        gen_binary_counter(5, 4), gen_random(1, 12, 2, 4),
    ], ids=["random4x4k2", "random4x4k3", "sierpinski5x5", "counter5x4", "strip1x12"])
    def test_incumbents_assemble_alike_in_any_order(self, grid):
        # every incumbent is deterministic, so the order in which the frontier
        # is consumed cannot change the terminal assembly
        systems = []
        solve(grid, SolveConfig.exact(seed=1),
              on_incumbent=lambda m, s, system, part: systems.append(system))
        assert len(systems) > 1
        for system in systems:
            canonical = simulate(system)
            assert canonical.assembly.colors(system) == grid.cells
            for seed in range(4):
                assert simulate(system, rng=SplitMix64(seed)) == canonical

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


def solve_with_adoption_check(grid, cfg, check, **options):
    """Solve with ``check(engine)`` called right after each incumbent is
    adopted, with the engine still at the incumbent's node."""

    class Engine(search_module._Engine):
        def _adopt_incumbent(self):
            super()._adopt_incumbent()
            check(self)

    with mock.patch.object(search_module, "_Engine", Engine):
        return solve(grid, cfg, **options)


class TestIncumbentAssignment:
    """The engine derives each incumbent's tile rows and class count from
    an ancestor's, the last incumbent's or the root's.  build_mgta
    computes the same assignment from the partition alone; the two must
    agree on every incumbent, class ids included, the tile system the
    engine verified must be extract_tas's on it, and the partition
    handed out must be the engine's."""

    @staticmethod
    def solve_checked(grid, cfg):
        checked = []

        def check(engine):
            _, anchors, table, num_classes, _ = engine.last
            part = Partition(grid.m, grid.n, engine._labels())  # the engine's
            ref = build_mgta(part)
            assert tuple(row[:4] for row in table.tiles) == ref.glues
            assert num_classes == ref.num_classes
            assert table == extract_tas(ref, grid)
            assert anchors == [part.labels.index(i) for i in range(part.num_parts)]
            handed = engine._hand_out()[1]
            assert handed == part and handed.labels == part.labels
            checked.append(table)

        result = solve_with_adoption_check(grid, cfg, check)
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


def solve_checking_adoption(grid, cfg):
    """Solve with each adopted incumbent's anchors, tile system and class
    count compared with ``build_mgta`` and ``extract_tas`` on the
    engine's partition at the state it is adopted at, its stored tile
    system checked to be the one ``verify_solution`` simulated, and the
    partition it hands out checked to be the engine's.  Returns the
    result and how many incumbents ``coarsen_rows`` derived from the last
    one and how many from the root after the root's own."""
    counts = {"from last": 0, "from root": 0}
    coarsened = []
    simulated = []
    previous = None  # the last incumbent's entry
    real_coarsen, real_verify = search_module.coarsen_rows, search_module.verify_solution

    def recorded_coarsen(rows, *args):
        coarsened.append(rows)
        return real_coarsen(rows, *args)

    def recorded_verify(system, g):
        simulated.append(system)
        return real_verify(system, g)

    def check(engine):
        nonlocal previous
        part = Partition(grid.m, grid.n, engine._labels())
        ref = build_mgta(part)
        assert engine.last[1] == [part.labels.index(i) for i in range(part.num_parts)]
        assert engine.last[2] == extract_tas(ref, grid)
        assert engine.last[3] == ref.num_classes
        assert engine.last[2] is simulated[-1]
        assert engine._hand_out()[1].labels == engine._labels()
        assert len(coarsened) == len(simulated)  # one derivation per incumbent
        if coarsened[-1] is engine.root[2].tiles:
            counts["from root"] += previous is not None
        else:
            assert coarsened[-1] is previous[2].tiles
            counts["from last"] += 1
        previous = engine.last

    with ExitStack() as patches:
        patches.enter_context(mock.patch.object(search_module, "coarsen_rows", recorded_coarsen))
        patches.enter_context(mock.patch.object(search_module, "verify_solution", recorded_verify))
        result = solve_with_adoption_check(grid, cfg, check)
    assert len(simulated) == len(result.trace)
    return result, counts["from last"], counts["from root"]


ADOPTION_WORKLOADS = {
    "sierpinski16": lambda: [
        (gen_sierpinski(16, 16), SolveConfig.anytime(2000, seed=s)) for s in range(5)
    ],
    "random16": lambda: [
        (gen_random(16, 16, 2, g), SolveConfig.anytime(7500, seed=g)) for g in (100, 101)
    ],
    "counter16": lambda: [(gen_binary_counter(16, 16), SolveConfig.anytime(2 * 10**4, seed=0))],
}


class TestIncumbentDerivation:
    """Every incumbent's tile system is an ancestor's coarsened by
    ``coarsen_rows``: the last incumbent's while it is still on the
    search path, else the root's.  Either must give the system
    ``build_mgta`` and ``extract_tas`` give on the engine's partition,
    and each workload must derive from both."""

    @pytest.mark.parametrize("name", sorted(ADOPTION_WORKLOADS))
    def test_workloads(self, name):
        from_last = from_root = 0
        for grid, cfg in ADOPTION_WORKLOADS[name]():
            _, a, b = solve_checking_adoption(grid, cfg)
            from_last += a
            from_root += b
        assert from_last and from_root, (from_last, from_root)

    def test_small_grids_exact(self):
        seen = {"from last": 0, "from root": 0}

        @settings(max_examples=150, deadline=None)
        @given(grid=small_grids(max_cells=9), seed=st.integers(0, 1000))
        @example(grid=gen_sierpinski(3, 3), seed=0)  # finds its optimum after backtracking
        def check(grid, seed):
            _, a, b = solve_checking_adoption(grid, SolveConfig.exact(seed=seed))
            seen["from last"] += a
            seen["from root"] += b

        check()
        assert all(seen.values()), seen

    def test_derived_rows_sharing_s_and_w_raise(self):
        # a derived incumbent whose rows share an (S, W) pair is refused
        # before it is simulated: here the derived rows get a copy of the
        # first row's S and W in their last row
        real_coarsen = search_module.coarsen_rows

        def clashing(*args):
            gone, ranks, rows, num_classes = real_coarsen(*args)
            n, e, _, _, col = rows[-1]
            return gone, ranks, (*rows[:-1], (n, e, rows[0][2], rows[0][3], col)), num_classes

        with mock.patch.object(search_module, "coarsen_rows", clashing):
            with pytest.raises(ValueError, match=r"^partition is not constructible: parts "):
                solve(gen_sierpinski(16, 16), SolveConfig.anytime(2000, seed=0))

    def test_cross_colour_merge_fails_adoption_from_the_root(self):
        # off the last incumbent's path, an incumbent is derived from the
        # root through every merge on the path, each checked for colour
        grid = ColorGrid(2, 2, 2, (0, 1, 1, 0))
        engine = search_module._Engine(grid, SolveConfig.exact(), None, None, None)
        engine._adopt_incumbent()  # the root
        engine.path.append(engine._apply_merge(0, 3, 0))
        engine._adopt_incumbent()
        engine._undo_merge(engine.path.pop())
        engine.path.append(engine._apply_merge(1, 2, 1))
        engine.path.append(engine._apply_merge(0, 1, 0))
        derived = []
        real_coarsen = search_module.coarsen_rows

        def recorded_coarsen(rows, *args):
            derived.append(rows)
            return real_coarsen(rows, *args)

        with mock.patch.object(search_module, "coarsen_rows", recorded_coarsen):
            with pytest.raises(ValueError, match="^parts 0 and 1 have different colours$"):
                engine._adopt_incumbent()
        assert len(derived) == 1 and derived[0] is engine.root[2].tiles


HAND_OUT_CASES = {
    "random5x5": (gen_random(5, 5, 2, 12), SolveConfig.exact(seed=12)),
    "sierpinski16": (gen_sierpinski(16, 16), SolveConfig.anytime(2000, seed=0)),
    "random16": (gen_random(16, 16, 2, 100), SolveConfig.anytime(7500, seed=100)),
}


class TestHandOut:
    """Incumbents are verified on tile systems of plain rows.  A solution
    is handed out as the system that was verified, with ``Tile``s for its
    rows, and a validated ``Partition``, both built only then."""

    @pytest.mark.parametrize("name", sorted(HAND_OUT_CASES))
    def test_on_incumbent_gets_the_verified_table(self, name):
        grid, cfg = HAND_OUT_CASES[name]
        simulated = []
        real_verify = search_module.verify_solution

        def recorded_verify(system, g):
            simulated.append(system)
            return real_verify(system, g)

        seen = []

        def on_incumbent(merges, size, system, part):
            table = simulated[-1]
            assert all(type(t) is Tile for t in system.tiles)
            assert len(system.tiles) == size == part.num_parts
            assert system == table  # tile for tile, and the seed glues
            assert type(part) is Partition
            seen.append(merges)

        with mock.patch.object(search_module, "verify_solution", recorded_verify):
            result = solve(grid, cfg, on_incumbent=on_incumbent)
        assert seen == [merges for merges, _ in result.trace]
        assert len(simulated) == len(seen)
        assert all(type(t) is Tile for t in result.best_system.tiles)
        assert result.best_system == simulated[-1]
        assert not result.interrupted

    @pytest.mark.parametrize("name", sorted(HAND_OUT_CASES))
    def test_on_incumbent_partition_is_the_assembly(self, name):
        # each on_incumbent partition takes its labels from the engine, which
        # sits at the incumbent; they are the tile ids of the system's
        # assembly, and only the final hand-out simulates
        grid, cfg = HAND_OUT_CASES[name]
        real_simulate = search_module.simulate
        simulated = []

        def recorded_simulate(system, *args, **kwargs):
            simulated.append(system)
            return real_simulate(system, *args, **kwargs)

        sizes = []

        def on_incumbent(merges, size, system, part):
            tiles = simulate(system).assembly.tiles
            assert part == Partition(grid.m, grid.n, tiles)
            assert tuple(part.labels) == tiles
            sizes.append(size)

        with mock.patch.object(search_module, "simulate", recorded_simulate):
            result = solve(grid, cfg, on_incumbent=on_incumbent)
        assert sizes == [size for _, size in result.trace]
        assert len(simulated) == 1

    @pytest.mark.parametrize("name", sorted(HAND_OUT_CASES))
    def test_on_incumbent_leaves_the_search_unchanged(self, name):
        grid, cfg = HAND_OUT_CASES[name]
        plain = solve(grid, cfg)
        handed = solve(grid, cfg, on_incumbent=lambda *args: None)
        assert handed.trace == plain.trace


INTERRUPT_GRID = gen_random(16, 16, 2, 100)
INTERRUPT_CFG = SolveConfig.anytime(7500, seed=100)


@pytest.fixture(scope="module")
def uninterrupted():
    """The interrupt tests' reference run: its result and the system handed
    out for each incumbent."""
    systems = []
    result = solve(
        INTERRUPT_GRID, INTERRUPT_CFG,
        on_incumbent=lambda merges, size, system, part: systems.append(system),
    )
    return result, systems


class TestInterrupt:
    """A KeyboardInterrupt anywhere in the search stops it, and ``solve``
    returns the last incumbent adopted before it, whole: its verified
    system, its partition, its size and the trace up to it agree."""

    @staticmethod
    def check_stopped(result, uninterrupted, adopted):
        """``result`` must be the reference run stopped after its first
        ``adopted`` incumbents."""
        reference, systems = uninterrupted
        assert result.interrupted and not result.proven_optimal
        assert result.trace == reference.trace[:adopted]
        assert result.best_size == result.trace[-1][1] == len(result.best_system.tiles)
        assert result.best_partition.num_parts == result.best_size
        assert all(type(t) is Tile for t in result.best_system.tiles)
        assert result.best_system == systems[adopted - 1]
        assert verify_solution(result.best_system, INTERRUPT_GRID).ok

    @pytest.mark.parametrize("hook", ["progress", "on_incumbent"])
    @pytest.mark.parametrize("k", [1, 2, 3, 17, 100])
    def test_at_the_kth_incumbent(self, uninterrupted, hook, k):
        assert len(uninterrupted[0].trace) > 100
        adopted = []

        def stop(merges, size, *_):
            adopted.append(size)
            if len(adopted) == k:
                raise KeyboardInterrupt

        result = solve(INTERRUPT_GRID, INTERRUPT_CFG, **{hook: stop})
        self.check_stopped(result, uninterrupted, k)
        assert result.merges_performed == result.trace[-1][0]

    @pytest.mark.parametrize("k", [2, 3, 17, 100])
    def test_inside_an_adoption(self, uninterrupted, k):
        # the k-th incumbent is interrupted while it is simulated, so the
        # result is the one before it
        calls = []
        real_verify = search_module.verify_solution

        def stop(system, g):
            calls.append(len(system.tiles))
            if len(calls) == k:
                raise KeyboardInterrupt
            return real_verify(system, g)

        with mock.patch.object(search_module, "verify_solution", stop):
            result = solve(INTERRUPT_GRID, INTERRUPT_CFG)
        self.check_stopped(result, uninterrupted, k - 1)

    @pytest.mark.parametrize("merges", [1, 500, 1445, 1446, 7400, 7500])
    def test_between_merges(self, uninterrupted, merges):
        reference, _ = uninterrupted

        def stop(at, best):
            if at == merges:
                raise KeyboardInterrupt

        cfg = SolveConfig.anytime(7500, seed=100, report_every=1)
        result = solve(INTERRUPT_GRID, cfg, progress=stop)
        adopted = sum(1 for m, _ in reference.trace if m < merges)
        self.check_stopped(result, uninterrupted, adopted)
        assert result.merges_performed == merges

    def test_before_the_first_incumbent_propagates(self):
        def stop(system, g):
            raise KeyboardInterrupt

        with mock.patch.object(search_module, "verify_solution", stop):
            with pytest.raises(KeyboardInterrupt):
                solve(INTERRUPT_GRID, INTERRUPT_CFG)


def test_engine_attributes_fit_the_specialized_layout():
    # CPython 3.11 specializes ``self.x`` loads only on instances of at most
    # 29 attributes; a 30th engine attribute slowed exact_random by about 9%
    engine = search_module._Engine(gen_sierpinski(5, 5), SolveConfig.exact(), None, None, None)
    assert engine._run()
    assert len(vars(engine)) <= 29, sorted(vars(engine))


@pytest.mark.parametrize("m, n", [(1, 6), (6, 1), (4, 4)])
def test_engine_starts_with_every_node_its_own_root(m, n):
    # one node per grid edge, 2mn+m+n in all, none linked before a merge:
    # undo pops every link, and no identification is installed at start
    engine = search_module._Engine(
        ColorGrid(m, n, 1, (0,) * (m * n)), SolveConfig.exact(), None, None, None
    )
    assert engine.parent == list(range(2 * m * n + m + n))
    assert engine.trail == []
    # every side of every cell is a node, and two sides share one exactly
    # when they face each other across a grid edge
    sides = {(c, side): edge_node(engine, c, side) for c in range(m * n) for side in range(4)}
    assert set(sides.values()) == set(engine.parent)
    for c in range(m * n):
        if c % m + 1 < m:
            assert sides[c, E] == sides[c + 1, W]
        if c + m < m * n:
            assert sides[c, N] == sides[c + m, S]


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


def index_state(idx):
    """What a key index says about the live parts: its depth, keys, roots
    of each indexed anchor, its number of buckets (one per edge node) and
    every non-empty bucket by node."""
    live = sorted(idx.owner.values())
    return (
        idx.depth,
        idx.owner,
        [(a, idx.south[a], idx.west[a]) for a in live],
        len(idx.by_root),
        {r: anchors for r, anchors in enumerate(idx.by_root) if anchors},
    )


def edge_node(engine, c, side):
    """The union-find node of side ``side`` of cell ``c`` in ``engine``."""
    return {
        N: c + engine.grid.m, E: engine.east[c], S: c, W: engine.wbase + c,
    }[side]


def scan_conflict(engine, parent, nxt):
    """The first pair of live parts, in canonical order, whose anchors'
    S and W nodes have equal roots: a plain scan of the live list of the
    engine state these lists describe, in ``engine``'s node layout."""

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    seen = {}
    for a in live_anchors(nxt, engine.mn):
        key = (find(edge_node(engine, a, S)), find(edge_node(engine, a, W)))
        if key in seen:
            return seen[key], a
        seen[key] = a
    return None


def live_anchors(nxt, mn):
    """The live anchors of the list ``nxt`` (sentinel ``mn``), in order."""
    live = []
    a = nxt[mn]
    while a != mn:
        live.append(a)
        a = nxt[a]
    return live


def merged_lists(engine, lo, hi):
    """Copies of ``engine``'s parents and live list describing the state
    one merge of the parts anchored at ``lo < hi`` away: the two parts'
    N, E, S and W nodes united (roots linked in any direction), and
    ``hi`` unlinked from the live list."""
    parent, nxt = list(engine.parent), list(engine.nxt)

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for side in range(4):
        a, b = find(edge_node(engine, lo, side)), find(edge_node(engine, hi, side))
        if a != b:
            parent[b] = a
    a = engine.mn
    while nxt[a] != hi:
        a = nxt[a]
    nxt[a] = nxt[hi]
    return parent, nxt


def solve_with_checked_index(grid, cfg, keyed_parts=None):
    """Solve with the key index cross-checked at every use: each probe
    against a full scan of the merged state it describes, the index after
    each sync against a fresh build, and after each restore against a
    fresh build at the next probe, once the trail is back at the node the
    index was restored to.  Returns the result and the number of syncs,
    restores and checks of each kind."""
    counts = {"build": 0, "probe": 0, "sync": 0, "restore": 0, "restored": 0}

    class CheckedIndex(KeyIndex):
        def __init__(self, engine):
            super().__init__(engine)
            self.engine = engine
            self.restored = False
            counts["build"] += 1

        def check(self, kind):
            assert index_state(self) == index_state(KeyIndex(self.engine))
            counts[kind] += 1

        def probe(self, lo, hi):
            if self.restored:
                self.check("restored")
                self.restored = False
            got = super().probe(lo, hi)
            assert got == scan_conflict(self.engine, *merged_lists(self.engine, lo, hi))
            counts["probe"] += 1
            return got

        def sync(self):
            token = super().sync()
            self.check("sync")
            return token

        def restore(self, token):
            super().restore(token)
            counts["restore"] += 1
            self.restored = True

    with ExitStack() as patches:
        patches.enter_context(mock.patch.object(search_module, "KeyIndex", CheckedIndex))
        if keyed_parts is not None:
            patches.enter_context(mock.patch.object(search_module, "_KEYED_PARTS", keyed_parts))
        result = solve(grid, cfg)
    return result, counts


KEYED_WORKLOADS = {
    "sierpinski16": (lambda: gen_sierpinski(16, 16), 0),
    "counter16": (lambda: gen_binary_counter(16, 16), 0),
    "random16": (lambda: gen_random(16, 16, 2, 100), 100),
}


SHORTCUT_SOLVES = {
    "random16": lambda: (gen_random(16, 16, 2, 100), SolveConfig.anytime(2000, seed=100), None),
    "sierpinski16": lambda: (gen_sierpinski(16, 16), SolveConfig.anytime(2000, seed=0), None),
    # in each of these one child dies on a pair of its clique that holds
    # the merged part, which took its clique member's place: as the pair's
    # second member, then as its first
    "random4x3": lambda: (gen_random(4, 3, 2, 375), SolveConfig.exact(seed=375), 1),
    "random3x4": lambda: (gen_random(3, 4, 2, 2580), SolveConfig.exact(seed=2580), 1),
}


def redirect_cases(engine, lo, hi):
    """How merging the parts anchored at ``lo < hi`` links each kind of
    edge node, N/S then E/W, from the engine's roots: the first link
    (hi's N or E root onto lo's), then the second (hi's S or W root onto
    lo's, as the first link leaves them).  Each kind is "none", "first",
    "second", "both" or "re-pointed": both, where the second link moves
    the root the first one ended at, so the first one's root must follow."""
    parent = engine.parent

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    cases = []
    for first, second in ((N, S), (E, W)):
        r0, r1 = find(edge_node(engine, lo, first)), find(edge_node(engine, hi, first))
        x, y = find(edge_node(engine, lo, second)), find(edge_node(engine, hi, second))
        x, y = (r0 if x == r1 else x), (r0 if y == r1 else y)
        if r0 != r1 and x != y:
            cases.append("re-pointed" if y == r0 else "both")
        else:
            cases.append("first" if r0 != r1 else "second" if x != y else "none")
    return tuple(cases)


class TestKeyIndex:
    """The key index against the full determinism scan and a fresh build.
    Traces must not move either: the golden traces pin that."""

    @pytest.mark.parametrize("keyed_parts", [None, 1], ids=["default", "always"])
    @pytest.mark.parametrize("name", sorted(KEYED_WORKLOADS))
    def test_workloads(self, name, keyed_parts):
        make_grid, seed = KEYED_WORKLOADS[name]
        cfg = SolveConfig.anytime(2000, seed=seed)
        result, counts = solve_with_checked_index(make_grid(), cfg, keyed_parts)
        # random16 finishes no synced node this early, nor does counter16 at
        # the default threshold; the exact solves below restore every sync
        assert counts["build"] == 1 and counts["probe"] and counts["sync"], counts
        assert counts["restored"] or name != "sierpinski16", counts
        assert result.trace == solve(make_grid(), cfg).trace

    @settings(max_examples=150, deadline=None)
    @given(grid=small_grids(max_cells=9), seed=st.integers(0, 1000))
    @example(grid=gen_sierpinski(3, 3), seed=0)
    @example(grid=gen_random(1, 9, 2, 5), seed=5)
    @example(grid=gen_random(3, 3, 3, 4), seed=7)
    def test_small_grids_exact(self, grid, seed):
        cfg = SolveConfig.exact(seed=seed)
        result, counts = solve_with_checked_index(grid, cfg, keyed_parts=1)
        # the index is built at the root, so every child of the root is
        # probed; only a grid whose root has no child probes none
        assert counts["probe"] or result.merges_performed == 0, counts
        assert counts["sync"] == counts["restore"]  # exhaustion ends every synced node
        reference = solve(grid, cfg)
        assert (result.trace, result.merges_performed) == (
            reference.trace, reference.merges_performed,
        )

    @pytest.mark.parametrize(
        "make_grid, seed",
        [(lambda: gen_random(4, 5, 2, 2), 0), (lambda: gen_binary_counter(7, 7), 1)],
        ids=["random4x5", "counter7"],
    )
    def test_merges_that_link_nothing(self, make_grid, seed):
        # a forced merge of two parts whose N, E, S and W classes are all
        # equal already links no node, so the trail does not grow with every
        # merge; the index must tell the node it is synced at by the path
        # (in both solves, counting gone parts by trail mark fails a sync)
        real_apply = search_module._Engine._apply_merge
        idle = [0]

        def counted_apply(engine, lo, hi, col):
            rec = real_apply(engine, lo, hi, col)
            idle[0] += rec[0] == len(engine.trail)
            return rec

        cfg = SolveConfig.anytime(2 * 10**4, seed=seed)
        with mock.patch.object(search_module._Engine, "_apply_merge", counted_apply):
            result, counts = solve_with_checked_index(make_grid(), cfg, keyed_parts=1)
        assert idle[0] and counts["sync"] and counts["restored"], (idle, counts)
        assert result.trace == solve(make_grid(), cfg).trace

    def test_small_grids_never_build_it(self):
        # at the default threshold grids this small keep the plain scan
        # (exact_random's grids are 4x4 and 5x5)
        _, counts = solve_with_checked_index(gen_random(5, 5, 2, 1000), SolveConfig.exact(seed=1000))
        assert not any(counts.values())

    def test_probe_every_pair(self):
        # each pick merges two live parts and then the forced chain below
        # it, so the state stays constructible; the index built there must
        # give, for every pair of live parts whatever their colours, the
        # first conflict of the state merging them would make.  Every
        # redirect case of both node kinds must come up.  The pairs are
        # probed lo-major, then hi-major twice, as a node probes one vertex
        # against its clique, so that probes share the memo of touched
        # anchors; then once more after a sync to a merge further down and
        # after the restore from it, each of which must drop the memo.
        seen = set()
        memo = {"hit": 0, "miss": 0}

        @settings(max_examples=200, deadline=None)
        @given(
            grid=small_grids(max_cells=16),
            picks=st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=8),
        )
        # merging parts 0 and 5 here links no root of part 5's key, which the
        # merged part 0 then shares
        @example(grid=ColorGrid(2, 4, 1, (0,) * 8), picks=[(14, 12), (6, 14), (8, 10), (15, 3)])
        # merging same-coloured parts anchored one above the other (hi = lo + m)
        # links hi's N root onto lo's and then hi's S root, which is lo's N
        # root, onto lo's S root, so the first link's root must be re-pointed;
        # parts side by side in a row (hi = lo + 1) do the same with E and W.
        # Here a probe that left it pointing at lo's N root (the first two) or
        # E root (the last two) gets some such pair wrong.
        @example(grid=ColorGrid(3, 3, 1, (0,) * 9), picks=[(12, 6)])
        @example(grid=gen_random(4, 4, 2, 23), picks=[(10, 3), (9, 7)])
        @example(grid=ColorGrid(2, 2, 1, (0,) * 4), picks=[(14, 5)])
        @example(grid=gen_random(4, 4, 2, 3), picks=[(4, 6), (1, 9)])
        # this state has pairs that share their N and S classes, and pairs
        # that share their E and W classes, so one kind links nothing
        @example(grid=gen_random(3, 3, 2, 21), picks=[(0, 15), (15, 4), (0, 13), (12, 5)])
        def check(grid, picks):
            engine = search_module._Engine(grid, SolveConfig.exact(), None, None, None)
            nxt, mn = engine.nxt, engine.mn

            def merge_down(lo, hi, records):
                while lo != hi:
                    records.append(engine._apply_merge(lo, hi, engine.grid.cells[lo]))
                    lo, hi = engine._find_conflict() or (0, 0)

            def probe_every_pair(index):
                pairs = list(itertools.combinations(live_anchors(nxt, mn), 2))
                hi_major = sorted(pairs, key=lambda pair: pair[::-1])
                for lo, hi in pairs + hi_major + hi_major:
                    expected = scan_conflict(engine, *merged_lists(engine, lo, hi))
                    size = len(index.memo)
                    assert index.probe(lo, hi) == expected, (lo, hi)
                    memo["miss" if len(index.memo) > size else "hit"] += 1
                    seen.update(zip(("N/S", "E/W"), redirect_cases(engine, lo, hi)))

            for i, j in picks:
                live = live_anchors(nxt, mn)
                lo, hi = sorted((live[i % len(live)], live[j % len(live)]))
                merge_down(lo, hi, [])
            index = KeyIndex(engine)
            probe_every_pair(index)
            live = live_anchors(nxt, mn)
            if len(live) > 1:
                merge_down(live[0], live[-1], engine.path)
                token = index.sync()
                probe_every_pair(index)
                while engine.path:
                    engine._undo_merge(engine.path.pop())
                index.restore(token)
                probe_every_pair(index)

        check()
        cases = ("none", "first", "second", "both", "re-pointed")
        assert seen == set(itertools.product(("N/S", "E/W"), cases)), seen
        assert memo["hit"] and memo["miss"], memo

    @pytest.mark.parametrize("name", sorted(SHORTCUT_SOLVES))
    def test_dead_children_are_not_made(self, name):
        # a child of the synced node whose probed conflict is fatal is
        # counted but never applied; an observed solve builds no index, so
        # every child is made, and the search must be the same either way
        grid, cfg, keyed_parts = SHORTCUT_SOLVES[name]()
        real_apply = search_module._Engine._apply_merge

        def solve_counting_applies(**options):
            """The result, the number of merges applied, and how many of
            them made a child of the synced node that dies at once."""
            applies = [0, 0]

            def counted_apply(engine, lo, hi, col):
                keys = engine.keys
                synced = keys is not None and keys.depth == len(engine.path)
                rec = real_apply(engine, lo, hi, col)
                applies[0] += 1
                conflict = synced and scan_conflict(engine, engine.parent, engine.nxt)
                if conflict:
                    p1, p2 = conflict
                    c = engine.grid.cells[p1]
                    cl = engine.clique[c]
                    applies[1] += engine.grid.cells[p2] != c or (p1 in cl and p2 in cl)
                return rec

            with ExitStack() as patches:
                patches.enter_context(
                    mock.patch.object(search_module._Engine, "_apply_merge", counted_apply)
                )
                if keyed_parts is not None:
                    patches.enter_context(
                        mock.patch.object(search_module, "_KEYED_PARTS", keyed_parts)
                    )
                result = solve(grid, cfg, **options)
            return result, applies

        plain, (plain_applies, plain_dead) = solve_counting_applies()
        observed, (observed_applies, observed_dead) = solve_counting_applies(
            observer=lambda node: None
        )
        assert plain.trace == observed.trace
        assert plain.merges_performed == observed.merges_performed
        assert emit_tileset(plain.best_system) == emit_tileset(observed.best_system)
        assert observed_applies == observed.merges_performed and not observed_dead
        assert plain_applies < plain.merges_performed and not plain_dead

    @pytest.mark.parametrize("engine", [search_module._Engine, UnboundedEngine], ids=["plain", "unbounded"])
    @pytest.mark.parametrize("name", ["random16", "sierpinski16"])
    def test_cutoffs_among_dead_children(self, name, engine):
        # a synced node ticks its dead children itself and asks the prune
        # only after a yield, so a cutoff that falls in a run of them must
        # stop where the unindexed walk, which makes every child, stops
        grid, cfg, _ = SHORTCUT_SOLVES[name]()
        real_apply = search_module._Engine._apply_merge
        applied = set()

        def numbered_apply(self, lo, hi, col):
            applied.add(self.merges + 1)
            return real_apply(self, lo, hi, col)

        def run(cutoff, **options):
            stream = []
            cfg_at = SolveConfig.anytime(cutoff, seed=cfg.rng_seed, report_every=1)
            with mock.patch.object(search_module, "_Engine", engine):
                result = solve(grid, cfg_at, progress=lambda *event: stream.append(event), **options)
            return stream, result.merges_performed, result.trace, emit_tileset(result.best_system)

        with mock.patch.object(search_module._Engine, "_apply_merge", numbered_apply):
            run(cfg.cutoff_merges)
        # every 37th cutoff, and the first between two dead children: the
        # unbounded sierpinski16 walk has 10 dead children in 2000 merges
        dead = set(range(1, cfg.cutoff_merges + 1)) - applied
        inside = sorted(c for c in dead if c + 1 in dead)
        assert inside
        for cutoff in sorted({*range(1, cfg.cutoff_merges + 1, 37), inside[0]}):
            assert run(cutoff) == run(cutoff, observer=lambda node: None), cutoff

    @pytest.mark.slow
    @pytest.mark.parametrize("name", sorted(KEYED_WORKLOADS))
    def test_workloads_long(self, name):
        make_grid, seed = KEYED_WORKLOADS[name]
        _, counts = solve_with_checked_index(make_grid(), SolveConfig.anytime(10**5, seed=seed))
        assert counts["probe"] and counts["sync"], counts


def solve_checking_merges(grid, cfg):
    """Solve with every merge checked: its two parts are never both in
    their colour's clique (so a merge record need only say whether ``lo``
    took ``hi``'s place there), and undoing it puts the union-find, the
    trail, the live list and every clique back as they were before it.
    Returns the result and how many merges were undone and how many of
    those had swapped a clique member."""
    counts = {"undone": 0, "swapped": 0}
    before = []

    class Engine(search_module._Engine):
        def state(self):
            return (
                list(self.parent), list(self.size), len(self.trail),
                list(self.nxt), list(self.prv), [set(cl) for cl in self.clique],
            )

        def _apply_merge(self, lo, hi, col):
            cl = self.clique[col]
            assert not (lo in cl and hi in cl), (lo, hi, cl)
            state = self.state()
            rec = super()._apply_merge(lo, hi, col)
            before.append((rec, state))
            return rec

        def _undo_merge(self, rec):
            applied, state = before.pop()
            assert applied is rec
            super()._undo_merge(rec)
            assert self.state() == state, rec
            counts["undone"] += 1
            counts["swapped"] += rec[-1]

    with mock.patch.object(search_module, "_Engine", Engine):
        result = solve(grid, cfg)
    return result, counts["undone"], counts["swapped"]


class TestMergeRecords:
    """A merge unites two parts that are not both in their colour's clique,
    and its undo restores the state exactly."""

    @pytest.mark.parametrize("name", sorted(KEYED_WORKLOADS))
    def test_workloads(self, name):
        make_grid, seed = KEYED_WORKLOADS[name]
        cfg = SolveConfig.anytime(2000, seed=seed)
        result, undone, swapped = solve_checking_merges(make_grid(), cfg)
        # this early only sierpinski16 backtracks over a merge that took a
        # clique member's place; the exact solves below undo many
        assert undone and (swapped or name != "sierpinski16"), (undone, swapped)
        assert result.trace == solve(make_grid(), cfg).trace

    def test_small_grids_exact(self):
        seen = {"undone": 0, "swapped": 0}

        @settings(max_examples=150, deadline=None)
        @given(grid=small_grids(max_cells=9), seed=st.integers(0, 1000))
        @example(grid=gen_random(3, 3, 2, 17), seed=1)  # undoes a swapped merge
        def check(grid, seed):
            result, undone, swapped = solve_checking_merges(grid, SolveConfig.exact(seed=seed))
            assert result.trace == solve(grid, SolveConfig.exact(seed=seed)).trace
            seen["undone"] += undone
            seen["swapped"] += swapped

        check()
        assert all(seen.values()), seen
