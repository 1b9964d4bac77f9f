"""Partitions of the cells of an m x n grid.

Cells are addressed by coordinates (x, y) with x running eastward from 1
to m and y northward from 1 to n.  Internally a cell is a flat index in
canonical order: y ascending, then x ascending, so the south-west cell
comes first.  A partition assigns every cell a part id; ids are kept
compact (0..num_parts-1, every id used).

Partitions are ordered by coarsening: ``refines(coarse, fine)`` holds
when every part of ``fine`` lies inside a single part of ``coarse``.
Two partitions are equal when they group cells identically, regardless
of how the parts happen to be numbered; ``canonical_signature`` is the
label-independent normal form used for equality and hashing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property


def cell_index(x: int, y: int, m: int) -> int:
    """Flat index of cell (x, y) in canonical (y, x) ascending order."""
    return (y - 1) * m + (x - 1)


def cell_coords(i: int, m: int) -> tuple[int, int]:
    """Inverse of cell_index."""
    return i % m + 1, i // m + 1


@dataclass(frozen=True, eq=False)
class Partition:
    """A partition of the m x n cell set.

    ``labels[i]`` is the part id of the cell with flat index i.  Ids must
    be compact: exactly the integers 0..num_parts-1 each occur.
    """

    m: int
    n: int
    labels: tuple[int, ...]
    num_parts: int = field(init=False, repr=False)  # from the validation's id set

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("grid dimensions must be positive")
        if len(self.labels) != self.m * self.n:
            raise ValueError(
                f"expected {self.m * self.n} labels, got {len(self.labels)}"
            )
        seen = set(self.labels)
        if seen != set(range(len(seen))):
            raise ValueError("part ids must be compact: 0..num_parts-1, all used")
        object.__setattr__(self, "num_parts", len(seen))

    def part_of(self, x: int, y: int) -> int:
        return self.labels[cell_index(x, y, self.m)]

    @cached_property
    def parts(self) -> tuple[frozenset[tuple[int, int]], ...]:
        """Cell sets by part id, as (x, y) coordinate sets."""
        groups: list[set[tuple[int, int]]] = [set() for _ in range(self.num_parts)]
        for i, p in enumerate(self.labels):
            groups[p].add(cell_coords(i, self.m))
        return tuple(frozenset(g) for g in groups)

    @cached_property
    def _signature(self) -> tuple[int, ...]:
        return _first_occurrence_renumber(self.labels)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return (
            self.m == other.m
            and self.n == other.n
            and self._signature == other._signature
        )

    def __hash__(self) -> int:
        return hash((self.m, self.n, self._signature))


def _first_occurrence_renumber(labels) -> tuple[int, ...]:
    remap: dict = {}
    out = []
    for lab in labels:
        got = remap.get(lab)
        if got is None:
            got = remap[lab] = len(remap)
        out.append(got)
    return tuple(out)


def partition_from_labels(m: int, n: int, labels) -> Partition:
    """Build a Partition from arbitrary hashable per-cell labels.

    Labels are renumbered by first occurrence in canonical cell order, so
    the result always satisfies the compact-id invariant.
    """
    return Partition(m, n, _first_occurrence_renumber(labels))


def initial_partition(m: int, n: int) -> Partition:
    """The discrete partition: every cell alone.  num_parts == m*n."""
    return Partition(m, n, tuple(range(m * n)))


def merge_parts(p: Partition, p1: int, p2: int) -> Partition:
    """The partition obtained by uniting parts p1 and p2, all else unchanged.

    Part ids of the result are renumbered canonically.  Merging is
    commutative: merge_parts(p, a, b) == merge_parts(p, b, a).
    """
    k = p.num_parts
    if not (0 <= p1 < k and 0 <= p2 < k):
        raise ValueError(f"unknown part id in merge: {p1}, {p2}")
    if p1 == p2:
        raise ValueError("cannot merge a part with itself")
    merged = [p1 if lab == p2 else lab for lab in p.labels]
    return partition_from_labels(p.m, p.n, merged)


def refines(coarse: Partition, fine: Partition) -> bool:
    """True iff every part of ``fine`` is contained in some part of ``coarse``."""
    if (coarse.m, coarse.n) != (fine.m, fine.n):
        raise ValueError("partitions refine only over the same grid")
    image: dict[int, int] = {}
    for cl, fl in zip(coarse.labels, fine.labels):
        prev = image.setdefault(fl, cl)
        if prev != cl:
            return False
    return True


def canonical_signature(p: Partition) -> tuple[int, ...]:
    """Label-independent normal form: per-cell part index, parts numbered by
    first occurrence scanning cells in canonical (y, x) ascending order.

    Two partitions group cells identically iff their signatures are equal.
    """
    return p._signature
