"""Abstract Tile Assembly Model simulator at temperature 2.

Assembly starts from the L-shaped seed along the south and west borders
and proceeds by single tile attachments: a tile may occupy an empty
position when its sides bond with total strength at least 2 to already
placed neighbours (including the seed).  Glues bond with strength 1 on
equal labels, so with the L seed a position becomes fillable exactly
when its south and west neighbours are present; the simulator grows a
frontier of such positions.  The general strength rule is implemented
too (``attachable_tiles``) and the frontier specialization is asserted
against it when ``check_general_rule`` is set, which the test suite
does; on seeded systems the two never disagree because every producible
assembly is closed to the south-west.

In canonical order (no ``rng``, no ``check_general_rule``), which is
what ``verify_solution`` uses, the simulator makes one row-major pass
over the cells instead of running the frontier.  The frontier always
pops its smallest index and only ever gains larger ones, so it visits
supported cells in increasing index order, which is exactly the order
of the pass; both give the same outcome, at the same position, with the
same tile ids.  The frontier loop remains for random order and for
``check_general_rule``, and is the reference the pass is tested against.

Outcomes:

* ``UniqueTerminal`` - every position filled, one choice of tile at
  every step.  Carries the finished assembly.
* ``Nondeterministic`` - some reachable position admits two different
  tiles.  The first violation found is reported with its position.
* ``Stuck`` - some position can never be filled (it has support but no
  tile matches its south and west glues).
"""

from __future__ import annotations

from dataclasses import dataclass

from .partition import Partition, cell_coords, cell_index, partition_from_labels
from .pattern import ColorGrid
from .rng import SplitMix64
from .tiles import TileSystem, glue_strength


@dataclass(frozen=True)
class Assembly:
    """A fully tiled m x n rectangle: tile index per cell in canonical order."""

    m: int
    n: int
    tiles: tuple[int, ...]

    def tile_at(self, x: int, y: int) -> int:
        return self.tiles[cell_index(x, y, self.m)]

    def colors(self, system: TileSystem) -> tuple[int, ...]:
        """Per-cell colours of the placed tiles, canonical order."""
        return tuple(system.tiles[t].color for t in self.tiles)

    def induced_partition(self) -> Partition:
        """Cells grouped by which tile type they carry."""
        return partition_from_labels(self.m, self.n, self.tiles)


@dataclass(frozen=True)
class UniqueTerminal:
    assembly: Assembly


@dataclass(frozen=True)
class Nondeterministic:
    x: int
    y: int
    tile1: int
    tile2: int


@dataclass(frozen=True)
class Stuck:
    frontier: tuple[tuple[int, int], ...]


SimulationResult = UniqueTerminal | Nondeterministic | Stuck


def _south_glue(system: TileSystem, placed: list, x: int, y: int) -> int | None:
    """Glue presented northward into (x, y), or None if the south side is open."""
    if y == 1:
        return system.seed_north[x - 1]
    t = placed[cell_index(x, y - 1, system.m)]
    return None if t is None else system.tiles[t].north


def _west_glue(system: TileSystem, placed: list, x: int, y: int) -> int | None:
    """Glue presented eastward into (x, y), or None if the west side is open."""
    if x == 1:
        return system.seed_east[y - 1]
    t = placed[cell_index(x - 1, y, system.m)]
    return None if t is None else system.tiles[t].east


def attachable_tiles(system: TileSystem, placed: list, x: int, y: int) -> list[int]:
    """Tile indices attachable at (x, y) under the general rule: total bond
    strength to placed neighbours and the seed is >= the temperature."""
    m, n = system.m, system.n
    sg = _south_glue(system, placed, x, y)
    wg = _west_glue(system, placed, x, y)
    ng = en = None
    if y < n:
        t = placed[cell_index(x, y + 1, m)]
        if t is not None:
            ng = system.tiles[t].south
    if x < m:
        t = placed[cell_index(x + 1, y, m)]
        if t is not None:
            en = system.tiles[t].west
    out = []
    for i, tile in enumerate(system.tiles):
        strength = 0
        if sg is not None:
            strength += glue_strength(tile.south, sg)
        if wg is not None:
            strength += glue_strength(tile.west, wg)
        if ng is not None:
            strength += glue_strength(tile.north, ng)
        if en is not None:
            strength += glue_strength(tile.east, en)
        if strength >= system.temperature:
            out.append(i)
    return out


def simulate(
    system: TileSystem,
    rng: SplitMix64 | None = None,
    check_general_rule: bool = False,
) -> SimulationResult:
    """Grow the terminal assembly of a tile system.

    With ``rng`` the frontier is consumed in random order instead of
    canonical (y, x) order; deterministic systems produce the same
    terminal assembly either way.  ``check_general_rule`` cross-checks
    every frontier decision against ``attachable_tiles``.  With neither,
    growth is the single row-major pass of ``_sweep``.
    """
    by_sw: dict[tuple[int, int], list[int]] = {}
    for i, t in enumerate(system.tiles):
        by_sw.setdefault((t.south, t.west), []).append(i)
    if rng is None and not check_general_rule:
        return _sweep(system, by_sw)

    m, n = system.m, system.n
    mn = m * n
    placed: list[int | None] = [None] * mn
    frontier: list[int] = [cell_index(1, 1, m)]
    blocked: list[int] = []

    while frontier:
        if rng is None:
            # canonical order: smallest flat index first
            pick = min(range(len(frontier)), key=frontier.__getitem__)
        else:
            pick = rng.randrange(len(frontier))
        frontier[pick], frontier[-1] = frontier[-1], frontier[pick]
        c = frontier.pop()
        x, y = cell_coords(c, m)

        sg = _south_glue(system, placed, x, y)
        wg = _west_glue(system, placed, x, y)
        candidates = by_sw.get((sg, wg), [])
        if check_general_rule:
            general = attachable_tiles(system, placed, x, y)
            if general != candidates:
                raise AssertionError(
                    f"frontier rule and general rule disagree at ({x},{y}): "
                    f"{candidates} vs {general}"
                )
            # a supported position always has both in-neighbours present
            assert sg is not None and wg is not None
        if len(candidates) >= 2:
            return Nondeterministic(x, y, candidates[0], candidates[1])
        if not candidates:
            blocked.append(c)
            continue
        placed[c] = candidates[0]
        # east and north neighbours may have gained their second support
        if x < m and placed[c + 1] is None and (y == 1 or placed[c + 1 - m] is not None):
            frontier.append(c + 1)
        if y < n and placed[c + m] is None and (x == 1 or placed[c + m - 1] is not None):
            frontier.append(c + m)

    if blocked:
        return Stuck(frontier=tuple(cell_coords(c, m) for c in sorted(blocked)))
    assert all(t is not None for t in placed)
    return UniqueTerminal(Assembly(m, n, tuple(placed)))


def _sweep(system: TileSystem, by_sw: dict) -> SimulationResult:
    """Canonical-order growth as one row-major pass over the cells.

    A cell's south and west neighbours both come before it in row-major
    order, so by the time the pass reaches a cell it is known whether the
    cell is supported.  Supported cells are visited in increasing index
    order, which is the order the frontier loop pops them in, so the
    outcome, its position and its tile ids are the same."""
    m = system.m
    north = [t.north for t in system.tiles]
    east = [t.east for t in system.tiles]
    # glue each column presents northward into the current row; None
    # where the cell below was never filled
    up: list[int | None] = list(system.seed_north)
    placed: list[int | None] = []
    blocked: list[int] = []
    for y in range(system.n):
        west = system.seed_east[y]
        for x in range(m):
            south = up[x]
            if south is None or west is None:
                placed.append(None)  # unsupported, never reached
                up[x] = west = None
                continue
            candidates = by_sw.get((south, west))
            if candidates is None:
                blocked.append(len(placed))
                placed.append(None)
                up[x] = west = None
                continue
            if len(candidates) >= 2:
                return Nondeterministic(x + 1, y + 1, candidates[0], candidates[1])
            t = candidates[0]
            placed.append(t)
            up[x] = north[t]
            west = east[t]
    if blocked:
        return Stuck(frontier=tuple(cell_coords(c, m) for c in blocked))
    return UniqueTerminal(Assembly(m, system.n, tuple(placed)))


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking a tile system against a target colouring; on
    failure ``failure`` says why and ``position`` points at the first
    offending cell where that makes sense."""

    ok: bool
    failure: str | None = None
    position: tuple[int, int] | None = None
    expected: int | None = None
    actual: int | None = None


def verify_solution(system: TileSystem, grid: ColorGrid) -> VerificationReport:
    """True verification: simulate the system and compare the terminal
    assembly's colours against the grid, all at once; the cells are
    walked one by one only on a mismatch, to report the first one."""
    if (system.m, system.n) != (grid.m, grid.n):
        raise ValueError("tile system and grid dimensions differ")
    result = simulate(system)
    if isinstance(result, Nondeterministic):
        return VerificationReport(
            ok=False,
            failure=f"nondeterministic: tiles {result.tile1} and {result.tile2} "
            f"both attach at ({result.x},{result.y})",
            position=(result.x, result.y),
        )
    if isinstance(result, Stuck):
        x, y = result.frontier[0]
        return VerificationReport(
            ok=False,
            failure=f"assembly stuck: no tile fits at ({x},{y})",
            position=(x, y),
        )
    got = result.assembly.colors(system)
    if got == grid.cells:
        return VerificationReport(ok=True)
    for i, (have, want) in enumerate(zip(got, grid.cells)):
        if have != want:
            x, y = cell_coords(i, grid.m)
            return VerificationReport(
                ok=False,
                failure=f"colour mismatch at ({x},{y}): expected {want}, got {have}",
                position=(x, y),
                expected=want,
                actual=have,
            )
    return VerificationReport(ok=True)
