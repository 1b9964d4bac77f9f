"""Shared fixtures for the test suite: hand-built reference tile systems,
small enumeration utilities and Hypothesis strategies.

The two 4-tile systems below are written out from their arithmetic
definitions, not produced by any code under test.  The counter rows
display successive integers in binary; the triangle system computes
parity of binomial coefficients.  Expected patterns for both come from
independent closed forms (bit extraction, math.comb) so the simulator
and the generators can be checked against them separately.
"""

from __future__ import annotations

import itertools
import math

from hypothesis import strategies as st

from patsolve import ColorGrid, Tile, TileSystem


def counter_tas(m: int, n: int) -> TileSystem:
    # tile (b, c): b = bit carried up from the row below, c = carry coming
    # in from the east; the displayed bit is b xor c, the outgoing carry
    # b and c.  Seed: all-zero south row, carry 1 injected on the west.
    tiles = [
        Tile(north=b ^ c, east=b & c, south=b, west=c, color=b ^ c)
        for b, c in itertools.product((0, 1), repeat=2)
    ]
    return TileSystem(
        m=m,
        n=n,
        tiles=tuple(tiles),
        seed_north=(0,) * m,
        seed_east=(1,) * n,
    )


def counter_color(x: int, y: int) -> int:
    return (y >> (x - 1)) & 1


def sierpinski_tas(m: int, n: int) -> TileSystem:
    # tile (s, w): xor rule, both outputs are s xor w
    tiles = [
        Tile(north=s ^ w, east=s ^ w, south=s, west=w, color=s ^ w)
        for s, w in itertools.product((0, 1), repeat=2)
    ]
    return TileSystem(
        m=m,
        n=n,
        tiles=tuple(tiles),
        seed_north=(1,) + (0,) * (m - 1),
        seed_east=(0,) * n,
    )


def sierpinski_color(x: int, y: int) -> int:
    return math.comb(x + y - 2, x - 1) % 2


def onto_colorings(m: int, n: int, k: int = 2):
    """Every onto k-colouring of the m x n grid, as ColorGrid values."""
    for cells in itertools.product(range(k), repeat=m * n):
        if set(cells) == set(range(k)):
            yield ColorGrid(m, n, k, cells)


def grid_from_fn(m: int, n: int, k: int, fn) -> ColorGrid:
    cells = tuple(fn(x, y) for y in range(1, n + 1) for x in range(1, m + 1))
    return ColorGrid(m, n, k, cells)


@st.composite
def small_grids(draw, max_cells=12, max_colours=3):
    """Onto colourings of grids of at most ``max_cells`` cells with at most
    ``max_colours`` colours, strips included."""
    m = draw(st.integers(1, max_cells))
    n = draw(st.integers(1, max_cells // m))
    raw = draw(st.lists(st.integers(0, max_colours - 1), min_size=m * n, max_size=m * n))
    relabel: dict[int, int] = {}
    cells = tuple(relabel.setdefault(c, len(relabel)) for c in raw)
    return ColorGrid(m, n, len(relabel), cells)


@st.composite
def tile_systems(draw, max_glue=2):
    """Small random systems over glues 0..max_glue: with the default three
    glues many are stuck or nondeterministic, some assemble."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4))
    glue = st.integers(0, max_glue)
    tile = st.builds(
        Tile, north=glue, east=glue, south=glue, west=glue, color=st.integers(0, 1)
    )
    return TileSystem(
        m=m,
        n=n,
        tiles=tuple(draw(st.lists(tile, min_size=1, max_size=6))),
        seed_north=tuple(draw(st.lists(glue, min_size=m, max_size=m))),
        seed_east=tuple(draw(st.lists(glue, min_size=n, max_size=n))),
    )
