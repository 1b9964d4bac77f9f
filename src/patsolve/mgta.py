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
without a rebuild: ``coarsen_rows`` unites part ids and class ids and
renumbers the classes of the rows that stay, and ``merge_tiles`` is one
call of it.  It works on tile rows, (N, E, S, W, colour) with canonical
part and class ids, so the search coarsens the tile system of an
ancestor on its path itself; uniting two parts of different colours
raises.

A partition is constructible, i.e. some deterministic tile system
assembles exactly it, iff no two parts of its MGTA share both their
south and west classes.  (Two parts with equal full quadruples are a
special case.)  ``constructibility`` is that test on a
``GlueAssignment``, and ``check_constructible`` on quads or tile rows
in canonical part order.  ``extract_tas`` turns a constructible
assignment over a colour-respecting partition into the concrete tile
system; ``named_tiles`` makes the plain rows the search works on
``Tile``s.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from operator import itemgetter

from .partition import Partition, canonical_signature, cell_index, merge_parts
from .pattern import ColorGrid
from .tiles import Tile, TileSystem

# side slot offsets within a cell
N, E, S, W = 0, 1, 2, 3
_south_west = itemgetter(S, W)


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
    canonical part ids.  ``coarsen_rows`` does the work on the canonical
    quads, whatever the part ids of ``f``; an assignment has no colours,
    so its rows all get colour 0."""
    p = f.partition
    k = p.num_parts
    if not (0 <= p1 < k and 0 <= p2 < k):
        raise ValueError(f"unknown part id in merge: {p1}, {p2}")
    if p1 == p2:
        raise ValueError("cannot merge a part with itself")
    canonical_id = dict(zip(p.labels, canonical_signature(p)))
    _, _, rows, num_classes = coarsen_rows(
        [(*quad, 0) for quad in f.canonical_quads],
        f.num_classes,
        ((canonical_id[p1], canonical_id[p2]),),
    )
    quads = tuple([row[:4] for row in rows])
    return GlueAssignment(merge_parts(p, p1, p2), quads, num_classes)


def coarsen_rows(rows, num_classes: int, pairs):
    """The tile rows of the MGTA that an MGTA coarsens to when each (a, b)
    of ``pairs`` unites the parts with ids a and b, in one pass and
    without a rebuild.  ``rows`` holds one (N, E, S, W, colour) row per
    part id, canonical ids in both (part id i is the i-th part in
    canonical order, its classes numbered by first occurrence), and
    ``num_classes`` is its class count.  Pairs may repeat, chain, or name
    parts that earlier pairs united; their ids are not checked
    (``merge_tiles`` checks its pair).  Raises ValueError when a pair
    unites two parts of different colours: a tile has one colour.

    Returns the united-away part ids in descending order, the rank of
    each old class id among the new ones, the new rows and the new class
    count.  Row i of the result is the part of the i-th smallest id that
    stayed, so deleting the united-away ids, in the order given, from any
    list indexed by the old part ids lines it up with the new rows.

    Uniting two parts identifies their N, E, S, W classes pairwise and
    nothing else, so a union-find over the part ids and one over the
    class ids, each linking to the smaller id, gives the new partition
    and its classes.  The new ids are the ranks of the surviving (root)
    ids in their old order.  That is the canonical numbering: a united
    part's first cell is its smallest id's first cell, and a class
    first occurs in no part that was united away, because that part's
    sides are identified with those of the part of smaller id it joined.
    The rows that stay are renumbered by one list comprehension that
    unpacks each row against the class ranks.
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
        row_a, row_b = rows[a], rows[b]
        if row_a[4] != row_b[4]:
            raise ValueError(f"parts {a} and {b} have different colours")
        up[b] = a
        for g, h in zip(row_a[:4], row_b[:4]):
            while g in glue_up:
                g = glue_up[g]
            while h in glue_up:
                h = glue_up[h]
            if g != h:
                if h < g:
                    g, h = h, g
                glue_up[h] = g

    gone = sorted(up, reverse=True)
    kept = list(rows)
    for q in gone:
        del kept[q]
    r = _ranks(glue_up, num_classes)
    new_rows = tuple([(r[a], r[b], r[c], r[d], col) for a, b, c, d, col in kept])
    return gone, r, new_rows, num_classes - len(glue_up)


def _ranks(up: dict[int, int], size: int) -> list[int]:
    """For each id below ``size``, the rank of its root among the roots,
    where ``up`` links every non-root id to a smaller id, whose entry is
    therefore final by the time a non-root's is made."""
    out: list[int] = []
    start = 0
    for i, q in enumerate(sorted(up)):
        out += range(start - i, q - i)  # ids start..q-1 follow i non-roots
        out.append(out[up[q]])
        start = q + 1
    out += range(start - len(up), size - len(up))
    return out


def constructibility(f: GlueAssignment) -> Constructibility:
    """Determinism check: scan parts in canonical order for two parts with
    equal (S, W) class pairs."""
    order = _canonical_part_order(f.partition.labels)
    return Constructibility(conflict=_sw_conflict(order, f.glues))


def check_constructible(rows) -> None:
    """Raise ValueError when two of ``rows`` (quads, or tile rows that start
    with their quad, in canonical part order) share their (S, W) classes,
    naming the first such pair.  The test is one set of the pairs; the
    canonical scan runs only to name the pair."""
    if len(set(map(_south_west, rows))) < len(rows):
        pair = _sw_conflict(range(len(rows)), rows)
        raise ValueError(f"partition is not constructible: parts {pair} share S and W")


def _sw_conflict(order, quads) -> tuple[int, int] | None:
    """The first two part ids of ``order`` whose quads share their (S, W)
    classes, or None."""
    seen: dict[tuple[int, int], int] = {}
    for lab in order:
        key = (quads[lab][S], quads[lab][W])
        other = seen.get(key)
        if other is not None:
            return (other, lab)
        seen[key] = lab
    return None


def extract_tas(f: GlueAssignment, grid: ColorGrid) -> TileSystem:
    """Concrete tile system for a constructible assignment: one ``Tile``
    per part, coloured by the part's cells, seed glues read off the south
    and west border classes.

    Raises ValueError when the dimensions differ, when two parts share an
    (S, W) pair (naming the pair ``constructibility`` finds), or when the
    partition does not respect the grid's colouring (refine the colour
    partition), since then no single colour per tile exists; one pass
    over the cells gives each part its colour and makes that check.
    """
    p = f.partition
    if (p.m, p.n) != (grid.m, grid.n):
        raise ValueError("partition and grid dimensions differ")
    conflict = constructibility(f).conflict
    if conflict is not None:
        raise ValueError(f"partition is not constructible: parts {conflict} share S and W")
    labels, quads = p.labels, f.glues
    part_color: list[int | None] = [None] * len(quads)
    for lab, col in zip(labels, grid.cells):
        have = part_color[lab]
        if have is None:
            part_color[lab] = col
        elif have != col:
            raise ValueError("partition does not respect the grid colouring")
    m = grid.m
    return TileSystem(
        m,
        grid.n,
        tuple([Tile(*quad, col) for quad, col in zip(quads, part_color)]),
        tuple([quads[lab][S] for lab in labels[:m]]),
        tuple([quads[lab][W] for lab in labels[::m]]),
    )


def named_tiles(system: TileSystem) -> TileSystem:
    """``system`` with each tile row made a ``Tile``."""
    return replace(system, tiles=tuple(map(Tile._make, system.tiles)))
