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

Uniting parts of a partition only identifies their side classes
pairwise, so the MGTA of a coarsening follows from the finer one's
without a rebuild: ``coarsen`` unites part ids and class ids and
renumbers both, and ``merge_tiles`` is one call of it.

A partition is constructible, i.e. some deterministic tile system
assembles exactly it, iff no two parts of its MGTA share both their
south and west classes.  (Two parts with equal full quadruples are a
special case.)  ``extract_tas`` turns a constructible assignment over a
colour-respecting partition into the concrete tile system.

``coarsen`` and ``extract_tas`` are typed wrappers over raw cores that
the search calls once per incumbent: ``coarsen_tables`` maps (labels,
quads, class count) to the coarsened triple without building or
validating a ``Partition``, and ``tile_table`` runs both of
``extract_tas``'s checks and gives the tiles as plain 5-tuples.  The
wrappers add the objects, the ``Partition``'s validation and the
``Tile``s, which the search builds only for the solutions it hands out.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from operator import add

from .partition import Partition, canonical_signature, cell_index
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
        return tuple(self.glues[p] for p in _canonical_part_order(self.partition.labels))

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


def _canonical_part_order(labels) -> list[int]:
    order = []
    seen = set()
    for lab in labels:
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
    for lab in _canonical_part_order(p.labels):
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
    identified pairwise.  Equals build_mgta(merge_parts(P, p1, p2)), with
    canonical part ids.  An assignment whose part ids are not canonical
    is renumbered first, so ``coarsen`` sees canonical labels."""
    p = f.partition
    k = p.num_parts
    if not (0 <= p1 < k and 0 <= p2 < k):
        raise ValueError(f"unknown part id in merge: {p1}, {p2}")
    if p1 == p2:
        raise ValueError("cannot merge a part with itself")
    signature = canonical_signature(p)
    if p.labels != signature:
        canonical_id = dict(zip(p.labels, signature))
        f = GlueAssignment(Partition(p.m, p.n, signature), f.canonical_quads, f.num_classes)
        p1, p2 = canonical_id[p1], canonical_id[p2]
    return coarsen(f, ((p1, p2),))


def coarsen(f: GlueAssignment, pairs) -> GlueAssignment:
    """The MGTA of the partition ``f`` coarsens to when each (a, b) of
    ``pairs`` unites the parts with ids a and b of ``f``, in one pass and
    without a rebuild.  ``f`` must have canonical part ids (its labels are
    its canonical signature), as ``build_mgta`` and ``coarsen`` give them.
    Pairs may repeat, chain, or name parts that earlier pairs united; their
    ids are not checked (``merge_tiles`` checks its pair).  The work is
    ``coarsen_tables``'s; this wraps its tables in a validated
    ``Partition`` and a ``GlueAssignment``."""
    p = f.partition
    labels, quads, num_classes = coarsen_tables(p.labels, f.glues, f.num_classes, pairs)
    return GlueAssignment(Partition(p.m, p.n, labels), quads, num_classes)


def coarsen_tables(labels, quads, num_classes: int, pairs):
    """``coarsen`` on raw tables: the labels, quads and class count of an
    MGTA with canonical part ids in, those of the coarsened MGTA out, with
    no ``Partition`` or ``GlueAssignment`` built or validated.  The search
    adopts its incumbents through this.

    Uniting two parts identifies their N, E, S, W classes pairwise and
    nothing else, so a union-find over the part ids and one over the
    class ids, each linking to the smaller id, gives the new partition
    and its classes.  The new ids are the ranks of the surviving (root)
    ids in their old order.  That is the canonical numbering: a united
    part's first cell is its smallest id's first cell, and a class
    first occurs in no part that was united away, because that part's
    sides are identified with those of the part of smaller id it joined.
    The labels are renumbered by ``map`` over the part ranks, and the
    quads of the surviving parts by one list comprehension that unpacks
    each quad against the class ranks; the new labels are compact by
    construction.
    """
    up: dict[int, int] = {}  # united-away part id -> smaller part id
    glue_up: dict[int, int] = {}  # likewise for class ids
    for a, b in pairs:
        while a in up:
            a = up[a]
        while b in up:
            b = up[b]
        if a == b:
            continue  # already one part, so its sides are already one
        if b < a:
            a, b = b, a
        up[b] = a
        for g, h in zip(quads[a], quads[b]):
            while g in glue_up:
                g = glue_up[g]
            while h in glue_up:
                h = glue_up[h]
            if g != h:
                if h < g:
                    g, h = h, g
                glue_up[h] = g

    new_labels = tuple(map(_ranks(up, len(quads)).__getitem__, labels))
    kept = list(quads)
    for q in sorted(up, reverse=True):
        del kept[q]
    r = _ranks(glue_up, num_classes)
    new_quads = tuple([(r[a], r[b], r[c], r[d]) for a, b, c, d in kept])
    return new_labels, new_quads, num_classes - len(glue_up)


def _ranks(up: dict[int, int], size: int) -> list[int]:
    """For each id below ``size``, the rank of its root among the roots,
    where ``up`` links every non-root id to a smaller id."""
    out: list[int] = []
    start = 0
    for i, q in enumerate(sorted(up)):
        out += range(start - i, q - i)  # ids start..q-1 follow i non-roots
        out.append(0)  # q's entry, filled in below
        start = q + 1
    out += range(start - len(up), size - len(up))
    for q, r in up.items():
        while r in up:
            r = up[r]
        out[q] = out[r]
    return out


def constructibility(f: GlueAssignment) -> Constructibility:
    """Determinism check: scan parts in canonical order for two parts with
    equal (S, W) class pairs."""
    return Constructibility(conflict=_sw_conflict(f.partition.labels, f.glues))


def _sw_conflict(labels, quads) -> tuple[int, int] | None:
    """The first two part ids, in canonical part order, whose quads share
    their (S, W) classes, or None."""
    seen: dict[tuple[int, int], int] = {}
    for lab in _canonical_part_order(labels):
        key = (quads[lab][S], quads[lab][W])
        other = seen.get(key)
        if other is not None:
            return (other, lab)
        seen[key] = lab
    return None


def extract_tas(f: GlueAssignment, grid: ColorGrid) -> TileSystem:
    """Concrete tile system for a constructible assignment: one ``Tile``
    per part, coloured by the part's cells, seed glues read off the south
    and west border classes.  Raises ValueError when the dimensions
    differ or a check of ``tile_table``, which does the work, fails."""
    p = f.partition
    if (p.m, p.n) != (grid.m, grid.n):
        raise ValueError("partition and grid dimensions differ")
    tiles, seed_north, seed_east = tile_table(p.labels, f.glues, grid)
    # Tile(*row) per part, built as the tuple subclass directly: what
    # Tile._make does, without a Python frame per tile
    tiles = tuple(map(tuple.__new__, repeat(Tile), tiles))
    return TileSystem(grid.m, grid.n, tiles, seed_north, seed_east)


def tile_table(labels, quads, grid: ColorGrid):
    """``extract_tas`` on raw tables: the labels and quads of an MGTA over
    ``grid``'s cells in, the tile system's rows out, as (tiles,
    seed_north, seed_east) with each tile a plain (N, E, S, W, colour)
    tuple.  The search verifies its incumbents on these rows and makes
    ``Tile``s only for the systems it hands out.

    One pass over the parts checks constructibility (no two parts share
    an (S, W) pair; the canonical scan runs only to name the first such
    pair), and one pass over the cells gives each part its colour while
    checking that the partition respects the grid's colouring (refines
    the colour partition), since otherwise no single colour per tile
    exists.  Raises ValueError when either check fails.
    """
    if len({(s, w) for _, _, s, w in quads}) < len(quads):
        raise ValueError(
            f"partition is not constructible: parts {_sw_conflict(labels, quads)} "
            "share S and W"
        )
    part_color: list[int | None] = [None] * len(quads)
    for lab, col in zip(labels, grid.cells):
        have = part_color[lab]
        if have is None:
            part_color[lab] = col
        elif have != col:
            raise ValueError("partition does not respect the grid colouring")
    m = grid.m
    tiles = tuple(map(add, quads, zip(part_color)))
    seed_north = tuple([quads[lab][S] for lab in labels[:m]])
    seed_east = tuple([quads[lab][W] for lab in labels[::m]])
    return tiles, seed_north, seed_east
