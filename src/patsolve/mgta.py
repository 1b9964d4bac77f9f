"""Most general tile assignments for grid partitions.

Giving every part of a partition its own tile means choosing four glue
classes per part, one per side.  Two constraints pin the choice down:
abutting sides of adjacent cells must carry the same class (otherwise
the assembly could not even be glued together), and beyond that nothing
may be identified.  The coarsest identification forced by adjacency
alone is the *most general* tile assignment (MGTA): start from a
distinct class per (part, side) slot and merge the two facing classes
across every internal grid edge until stable.  Any tile assignment that
builds the partition at all is a coarsening of it, which is what makes
the MGTA the only assignment one ever needs to inspect.

The computation is a union-find over per-cell side slots: cells of one
part share their four slots, and every internal edge links the two
facing slots.  Class ids in results are canonical, numbered by first
occurrence scanning parts in canonical order and sides in N, E, S, W
order, so equal assignments have equal tables.

A partition is constructible, i.e. some deterministic tile system
assembles exactly it, iff no two parts of its MGTA share both their
south and west classes.  (Two parts with equal full quadruples are a
special case.)  ``extract_tas`` turns a constructible assignment over a
colour-respecting partition into the concrete tile system.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .partition import Partition, cell_index, merge_parts
from .pattern import ColorGrid
from .tiles import Tile, TileSystem

# side slot offsets within a cell
N, E, S, W = 0, 1, 2, 3


def grid_adjacencies(m: int, n: int) -> list[tuple[int, int, int]]:
    """Internal grid edges as (cell, neighbour, axis) triples in canonical
    order; axis is N for a vertical edge (neighbour to the north) and E
    for a horizontal one (neighbour to the east)."""
    out = []
    for y in range(1, n + 1):
        for x in range(1, m + 1):
            c = cell_index(x, y, m)
            if x < m:
                out.append((c, c + 1, E))
            if y < n:
                out.append((c, c + m, N))
    return out


@dataclass(frozen=True, eq=False)
class GlueAssignment:
    """The MGTA of a partition: one (N, E, S, W) class quadruple per part id,
    with canonical class numbering."""

    partition: Partition
    glues: tuple[tuple[int, int, int, int], ...]
    num_classes: int

    @cached_property
    def canonical_quads(self) -> tuple[tuple[int, int, int, int], ...]:
        """Quadruples reordered by canonical part order (label-independent)."""
        return tuple(self.glues[p] for p in _canonical_part_order(self.partition))

    def __eq__(self, other) -> bool:
        if not isinstance(other, GlueAssignment):
            return NotImplemented
        return (
            self.partition == other.partition
            and self.canonical_quads == other.canonical_quads
        )

    def __hash__(self) -> int:
        return hash((self.partition, self.canonical_quads))


@dataclass(frozen=True)
class Constructibility:
    """Outcome of the determinism check: ``conflict`` is None when the
    partition is constructible, else the first (in canonical part order)
    pair of parts sharing both S and W classes."""

    conflict: tuple[int, int] | None = None

    @property
    def is_constructible(self) -> bool:
        return self.conflict is None


def _canonical_part_order(p: Partition) -> list[int]:
    order = []
    seen = set()
    for lab in p.labels:
        if lab not in seen:
            seen.add(lab)
            order.append(lab)
    return order


def _uf_find(parent: list[int], x: int) -> int:
    root = x
    while parent[root] != root:
        root = parent[root]
    while parent[x] != root:
        parent[x], x = root, parent[x]
    return root


def build_mgta(p: Partition, adjacency_order=None) -> GlueAssignment:
    """Compute the MGTA of a partition.

    ``adjacency_order`` may supply the internal grid edges in any order
    (as produced by ``grid_adjacencies``); the canonical result does not
    depend on it, which is what makes the assignment well defined.
    """
    m, n = p.m, p.n
    mn = m * n
    parent = list(range(4 * mn))

    def union(a: int, b: int) -> None:
        ra, rb = _uf_find(parent, a), _uf_find(parent, b)
        if ra != rb:
            parent[rb] = ra

    # cells of one part share their slots
    first_cell: dict[int, int] = {}
    for i, lab in enumerate(p.labels):
        j = first_cell.setdefault(lab, i)
        if j != i:
            for d in (N, E, S, W):
                union(4 * j + d, 4 * i + d)
    # facing sides across internal edges coincide
    edges = grid_adjacencies(m, n) if adjacency_order is None else adjacency_order
    for c, nb, axis in edges:
        if axis == N:
            union(4 * c + N, 4 * nb + S)
        else:
            union(4 * c + E, 4 * nb + W)

    raw = {
        lab: tuple(_uf_find(parent, 4 * i + d) for d in (N, E, S, W))
        for lab, i in first_cell.items()
    }
    return _canonicalize(p, raw)


def _canonicalize(p: Partition, raw_quads: dict) -> GlueAssignment:
    ids: dict = {}
    glues: list = [None] * len(raw_quads)
    for lab in _canonical_part_order(p):
        quad = []
        for cls in raw_quads[lab]:
            got = ids.get(cls)
            if got is None:
                got = ids[cls] = len(ids)
            quad.append(got)
        glues[lab] = tuple(quad)
    return GlueAssignment(p, tuple(glues), len(ids))


def merge_tiles(f: GlueAssignment, p1: int, p2: int) -> GlueAssignment:
    """The MGTA after uniting parts p1 and p2: their four side classes are
    identified pairwise.  Equals build_mgta(merge_parts(P, p1, p2))."""
    p = f.partition
    k = p.num_parts
    if not (0 <= p1 < k and 0 <= p2 < k):
        raise ValueError(f"unknown part id in merge: {p1}, {p2}")
    if p1 == p2:
        raise ValueError("cannot merge a part with itself")
    merged = merge_parts(p, p1, p2)

    parent = list(range(f.num_classes))
    for d in (N, E, S, W):
        ra = _uf_find(parent, f.glues[p1][d])
        rb = _uf_find(parent, f.glues[p2][d])
        if ra != rb:
            parent[rb] = ra

    raw: dict = {}
    for old_lab, new_lab in zip(p.labels, merged.labels):
        if new_lab not in raw:
            raw[new_lab] = tuple(_uf_find(parent, g) for g in f.glues[old_lab])
    return _canonicalize(merged, raw)


def constructibility(f: GlueAssignment) -> Constructibility:
    """Determinism check: scan parts in canonical order for two parts with
    equal (S, W) class pairs."""
    seen: dict[tuple[int, int], int] = {}
    for lab in _canonical_part_order(f.partition):
        key = (f.glues[lab][S], f.glues[lab][W])
        other = seen.get(key)
        if other is not None:
            return Constructibility(conflict=(other, lab))
        seen[key] = lab
    return Constructibility()


def extract_tas(f: GlueAssignment, grid: ColorGrid) -> TileSystem:
    """Concrete tile system for a constructible assignment: one tile per
    part, coloured by the part's cells, seed glues read off the south and
    west border classes.

    One pass over the parts checks constructibility (no two parts share
    an (S, W) pair; ``constructibility`` is consulted only to name the
    first such pair), and one pass over the cells gives each part its
    colour while checking that the partition respects the grid's
    colouring (refines the colour partition), since otherwise no single
    colour per tile exists.  Raises ValueError when either check fails.
    """
    p = f.partition
    m = grid.m
    if (p.m, p.n) != (m, grid.n):
        raise ValueError("partition and grid dimensions differ")
    glues = f.glues
    if len({(q[S], q[W]) for q in glues}) < len(glues):
        raise ValueError(
            f"partition is not constructible: parts {constructibility(f).conflict} "
            "share S and W"
        )

    labels = p.labels
    part_color: list[int | None] = [None] * len(glues)
    for lab, col in zip(labels, grid.cells):
        have = part_color[lab]
        if have is None:
            part_color[lab] = col
        elif have != col:
            raise ValueError("partition does not respect the grid colouring")
    tiles = tuple(
        Tile(q[N], q[E], q[S], q[W], col) for q, col in zip(glues, part_color)
    )
    seed_north = tuple(glues[labels[x]][S] for x in range(m))
    seed_east = tuple(glues[labels[y * m]][W] for y in range(grid.n))
    return TileSystem(m, grid.n, tiles, seed_north, seed_east)
