from hypothesis import event, example, given, settings

from patsolve import (
    Assembly,
    Nondeterministic,
    SplitMix64,
    Stuck,
    Tile,
    TileSystem,
    UniqueTerminal,
    gen_binary_counter,
    gen_sierpinski,
    simulate,
    verify_solution,
)
from helpers import counter_color, counter_tas, sierpinski_color, sierpinski_tas, tile_systems


class TestReferenceSystems:
    def test_counter_produces_binary_rows(self):
        for m, n in ((4, 4), (5, 9), (16, 16)):
            system = counter_tas(m, n)
            result = simulate(system)
            assert isinstance(result, UniqueTerminal)
            for y in range(1, n + 1):
                for x in range(1, m + 1):
                    tile = result.assembly.tile_at(x, y)
                    assert system.tiles[tile].color == counter_color(x, y), (x, y)

    def test_sierpinski_produces_binomial_parity(self):
        for m, n in ((5, 5), (16, 16)):
            system = sierpinski_tas(m, n)
            result = simulate(system)
            assert isinstance(result, UniqueTerminal)
            for y in range(1, n + 1):
                for x in range(1, m + 1):
                    tile = result.assembly.tile_at(x, y)
                    assert system.tiles[tile].color == sierpinski_color(x, y), (x, y)

    def test_generators_agree_with_reference_systems(self):
        assert verify_solution(counter_tas(8, 8), gen_binary_counter(8, 8)).ok
        assert verify_solution(sierpinski_tas(8, 8), gen_sierpinski(8, 8)).ok


def test_random_attachment_order_matches_canonical():
    # deterministic systems settle to one terminal assembly whatever the order
    system = sierpinski_tas(7, 7)
    canonical = simulate(system)
    for seed in range(5):
        shuffled = simulate(system, rng=SplitMix64(seed))
        assert shuffled.assembly == canonical.assembly


def test_general_rule_agrees_with_frontier_rule():
    for system in (counter_tas(6, 6), sierpinski_tas(6, 6)):
        a = simulate(system)
        b = simulate(system, check_general_rule=True)
        assert a.assembly == b.assembly


def test_nondeterminism_is_detected_with_site():
    # two tiles answering the same south/west pair
    t = Tile(north=0, east=0, south=0, west=0, color=0)
    u = Tile(north=1, east=1, south=0, west=0, color=1)
    system = TileSystem(
        m=2, n=2, tiles=(t, u), seed_north=(0, 0), seed_east=(0, 0)
    )
    result = simulate(system)
    assert isinstance(result, Nondeterministic)
    assert (result.x, result.y) == (1, 1)
    assert {result.tile1, result.tile2} == {0, 1}


def test_stuck_reports_open_frontier():
    # no tile matches the seed corner at all
    t = Tile(north=0, east=0, south=5, west=5, color=0)
    system = TileSystem(
        m=2, n=2, tiles=(t,), seed_north=(0, 0), seed_east=(0, 0)
    )
    result = simulate(system)
    assert isinstance(result, Stuck)
    assert (1, 1) in result.frontier


def test_growth_needs_both_supports():
    # the corner tile locks the rest of row and column; a tile that fits
    # only the corner leaves the remaining sites stuck, never half-attached
    t = Tile(north=7, east=7, south=0, west=0, color=0)
    system = TileSystem(
        m=2, n=2, tiles=(t,), seed_north=(0, 0), seed_east=(0, 0)
    )
    result = simulate(system)
    assert isinstance(result, Stuck)
    placed_sites = {(1, 1)}
    assert set(result.frontier).isdisjoint(placed_sites)


class TestVerifySolution:
    def test_pass(self):
        report = verify_solution(counter_tas(6, 6), gen_binary_counter(6, 6))
        assert report.ok
        assert report.failure is None

    def test_wrong_pattern_gives_located_mismatch(self):
        report = verify_solution(sierpinski_tas(6, 6), gen_binary_counter(6, 6))
        assert not report.ok
        x, y = report.position
        assert report.expected == counter_color(x, y)
        assert report.actual == sierpinski_color(x, y)

    def test_nondeterministic_system_fails_verification(self):
        t = Tile(north=0, east=0, south=0, west=0, color=0)
        u = Tile(north=1, east=1, south=0, west=0, color=1)
        system = TileSystem(m=2, n=2, tiles=(t, u), seed_north=(0, 0), seed_east=(0, 0))
        grid = gen_binary_counter(2, 2)
        report = verify_solution(system, grid)
        assert not report.ok
        assert "deterministic" in report.failure or "nondeterministic" in report.failure


def test_assembly_induced_partition_groups_by_tile():
    system = counter_tas(4, 4)
    result = simulate(system)
    p = result.assembly.induced_partition()
    for i, lab in enumerate(p.labels):
        for j in range(i + 1, len(p.labels)):
            same_tile = result.assembly.tiles[i] == result.assembly.tiles[j]
            assert (lab == p.labels[j]) == same_tile


def test_assembly_tile_at():
    a = Assembly(2, 2, (3, 1, 0, 2))
    assert a.tile_at(1, 1) == 3
    assert a.tile_at(2, 1) == 1
    assert a.tile_at(1, 2) == 0
    assert a.tile_at(2, 2) == 2


@settings(max_examples=300, deadline=None)
@given(system=tile_systems())
@example(system=sierpinski_tas(4, 3))
@example(  # nondeterministic at the corner
    system=TileSystem(2, 2, (Tile(0, 0, 0, 0, 0), Tile(1, 1, 0, 0, 1)), (0, 0), (0, 0))
)
@example(  # stuck at (2,1) and (1,2), the rest unsupported
    system=TileSystem(2, 2, (Tile(7, 7, 0, 0, 0),), (0, 0), (0, 0))
)
@example(  # stuck at (2,1), then nondeterministic at (1,2)
    system=TileSystem(
        2, 2, (Tile(1, 3, 0, 0, 0), Tile(0, 0, 1, 0, 0), Tile(0, 0, 1, 0, 1)),
        (0, 5), (0, 0),
    )
)
@example(  # tiles 0, 2 and 3 share the corner's key: report tiles 0 and 2
    system=TileSystem(
        1, 1,
        (Tile(0, 0, 0, 0, 0), Tile(0, 0, 5, 5, 0), Tile(1, 1, 0, 0, 1), Tile(2, 2, 0, 0, 0)),
        (0,), (0,),
    )
)
@example(  # distinct keys, no tile for the first cell
    system=TileSystem(2, 2, (Tile(0, 0, 1, 1, 0), Tile(1, 1, 0, 1, 0)), (0, 0), (0, 0))
)
@example(  # distinct keys, the first row fills, stuck at (2,2) mid-row
    system=TileSystem(
        3, 2, (Tile(1, 0, 0, 0, 0), Tile(0, 2, 1, 0, 1)), (0, 0, 0), (0, 0)
    )
)
@example(  # distinct keys, every cell but the last fills
    system=TileSystem(
        2, 2, (Tile(1, 2, 0, 0, 0), Tile(3, 0, 0, 2, 1), Tile(0, 4, 1, 0, 1)),
        (0, 0), (0, 0),
    )
)
@example(  # distinct keys, assembles
    system=TileSystem(
        2, 2,
        (Tile(1, 2, 0, 0, 0), Tile(3, 0, 0, 2, 1), Tile(0, 4, 1, 0, 1), Tile(5, 5, 3, 4, 0)),
        (0, 0), (0, 0),
    )
)
def test_sweep_matches_frontier_loop(system):
    # the canonical sweep against the frontier loop, which the general
    # strength rule cross-checks at every step
    swept = simulate(system)
    event(type(swept).__name__)
    assert swept == simulate(system, check_general_rule=True)
