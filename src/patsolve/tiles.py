"""Tile systems: unit square tiles with glue-labelled sides, plus an
L-shaped seed along the south and west borders.

Glues are nonnegative integers.  Two abutting sides bond with strength 1
exactly when their glue labels are equal; the assembly temperature is
fixed at 2, so a tile needs two bonded sides to attach.  The seed
occupies row y = 0 and column x = 0: ``seed_north[x-1]`` is the glue the
seed presents northward under column x, ``seed_east[y-1]`` the glue it
presents eastward beside row y.

A ``Tile`` is a named tuple ``(north, east, south, west, color)``:
immutable, hashable and compared by its fields.  Being a tuple, it also
compares equal to the plain 5-tuple of its fields, and the functions
here and in the simulator read tiles by position, so a system whose
tiles are plain 5-tuples (as the search builds and verifies them) works
with all of them.

Text format::

    tiles <count> temperature 2
    tile <id> N=<g> E=<g> S=<g> W=<g> color=<c>      (count lines, ids 0..count-1)
    seedS x=<x> N=<g>                                 (x = 1..m in order)
    seedW y=<y> E=<g>                                 (y = 1..n in order)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

TEMPERATURE = 2


class TilesetError(ValueError):
    """Malformed tile-set text or an invalid system construction."""


class Tile(NamedTuple):
    north: int
    east: int
    south: int
    west: int
    color: int


@dataclass(frozen=True)
class TileSystem:
    m: int
    n: int
    tiles: tuple[Tile, ...]
    seed_north: tuple[int, ...]
    seed_east: tuple[int, ...]
    temperature: int = TEMPERATURE

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise TilesetError("target dimensions must be positive")
        if self.temperature != TEMPERATURE:
            raise TilesetError(f"temperature is fixed at {TEMPERATURE}")
        if len(self.seed_north) != self.m:
            raise TilesetError("seed_north must list one glue per column")
        if len(self.seed_east) != self.n:
            raise TilesetError("seed_east must list one glue per row")
        if not self.tiles:
            raise TilesetError("a tile system needs at least one tile")


def glue_strength(a: int, b: int) -> int:
    """Bond strength between two facing glues: 1 on equal labels, else 0."""
    return 1 if a == b else 0


def emit_tileset(system: TileSystem) -> str:
    out = [f"tiles {len(system.tiles)} temperature {system.temperature}\n"]
    for i, (north, east, south, west, color) in enumerate(system.tiles):
        out.append(f"tile {i} N={north} E={east} S={south} W={west} color={color}\n")
    for x in range(1, system.m + 1):
        out.append(f"seedS x={x} N={system.seed_north[x - 1]}\n")
    for y in range(1, system.n + 1):
        out.append(f"seedW y={y} E={system.seed_east[y - 1]}\n")
    return "".join(out)


def _kv(tok: str, key: str, line: str) -> int:
    if not tok.startswith(key + "="):
        raise TilesetError(f"expected {key}=<int> in {line!r}")
    try:
        v = int(tok[len(key) + 1 :])
    except ValueError:
        raise TilesetError(f"non-integer {key} in {line!r}") from None
    if v < 0:
        raise TilesetError(f"negative {key} in {line!r}")
    return v


def parse_tileset(text: str) -> TileSystem:
    """Parse the tile-set format.  Raises TilesetError on malformed input."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise TilesetError("empty tile-set file")
    head = lines[0].split()
    if len(head) != 4 or head[0] != "tiles" or head[2] != "temperature":
        raise TilesetError(f"bad header {lines[0]!r}")
    try:
        count = int(head[1])
        temp = int(head[3])
    except ValueError:
        raise TilesetError(f"non-integer in header {lines[0]!r}") from None
    if count < 1:
        raise TilesetError("tile count must be positive")
    if temp != TEMPERATURE:
        raise TilesetError(f"temperature must be {TEMPERATURE}, got {temp}")

    body = lines[1:]
    if len(body) < count:
        raise TilesetError(f"expected {count} tile lines, found {len(body)}")
    tiles = []
    for i in range(count):
        toks = body[i].split()
        if len(toks) != 7 or toks[0] != "tile":
            raise TilesetError(f"bad tile line {body[i]!r}")
        if toks[1] != str(i):
            raise TilesetError(f"tile ids must run 0..{count - 1} in order, got {body[i]!r}")
        tiles.append(
            Tile(
                north=_kv(toks[2], "N", body[i]),
                east=_kv(toks[3], "E", body[i]),
                south=_kv(toks[4], "S", body[i]),
                west=_kv(toks[5], "W", body[i]),
                color=_kv(toks[6], "color", body[i]),
            )
        )

    seed_north = []
    seed_east = []
    for line in body[count:]:
        toks = line.split()
        if len(toks) != 3:
            raise TilesetError(f"bad seed line {line!r}")
        if toks[0] == "seedS":
            if seed_east:
                raise TilesetError("seedS lines must precede seedW lines")
            x = _kv(toks[1], "x", line)
            if x != len(seed_north) + 1:
                raise TilesetError(f"seedS lines must run x=1.. in order, got {line!r}")
            seed_north.append(_kv(toks[2], "N", line))
        elif toks[0] == "seedW":
            y = _kv(toks[1], "y", line)
            if y != len(seed_east) + 1:
                raise TilesetError(f"seedW lines must run y=1.. in order, got {line!r}")
            seed_east.append(_kv(toks[2], "E", line))
        else:
            raise TilesetError(f"unexpected line {line!r}")
    if not seed_north or not seed_east:
        raise TilesetError("missing seed glue lines")
    return TileSystem(
        m=len(seed_north),
        n=len(seed_east),
        tiles=tuple(tiles),
        seed_north=tuple(seed_north),
        seed_east=tuple(seed_east),
        temperature=temp,
    )
