"""Branch and bound search for a minimum tile set.

The search walks partitions of the grid, starting from the discrete
partition (one part per cell, always constructible) and coarsening one
merge at a time.  At a constructible node the children are merges of two
same-coloured parts; at a conflicted node the search is forced, because
any constructible coarsening must unite the conflicting pair, so there
is a single child (or none: a conflict across colours, or across a pair
already excluded, kills the branch).

To keep branches disjoint, each node carries one forbidden-pair graph
per colour over its parts.  Children are ordered so that every graph
stays a clique plus isolated vertices: an isolated vertex v is paired
against each clique member in turn and then joins the clique.  Merging
an isolated vertex with a clique member leaves the merged vertex in the
clique, so the shape survives descent as well, and the chromatic numbers
that bound any constructible partition below a node are simply the
clique sizes: the bound is the sum over colours of max(1, |clique|).
Children whose bound reaches the incumbent size are pruned.

One engine runs the tree, on mutable state with exact rollback: a
single union-find over the glue slots and the parts, linked by size
without path compression so that undo is popping one trail of linked
roots; a doubly linked list of live parts in canonical order; and
per-colour clique sets.  The path from the root is an explicit stack
holding a child generator for each constructible node on it; a
conflicted node's one merge is applied by the loop itself, and a dead
forced chain is rewound by undoing merges back to the generator below
it.  So no recursion limit applies and ``solve`` changes no process
state.  Equal seeds give equal runs.

A node's first conflict is the first pair of live parts, in canonical
order, with equal (S-root, W-root) keys.  While a constructible node has
at least ``_KEYED_PARTS`` live parts, a ``KeyIndex`` of those keys is
synced to it in place (built at the root), and the node restores the
index when it ends, after undoing its clique joins: like those joins,
what a node does on entry it undoes at its exit.  Each child of the
synced node is probed before it is made: the index finds the child's
first conflict from the few parts whose keys the merge would move,
without scanning every part and without applying the merge.  Most
children die at once, and a child whose probed conflict is fatal
(across colours, or a pair in the child's clique) is counted as a merge
but never applied or undone; only with an observer attached is every
child made, so that the observer sees it.  Nodes after a forced merge
scan, so a forced chain syncs the index once, at its constructible end.
The isolated vertices are walked off the live list lazily, since most
children die at once, and listed only when a deviation draw needs the
rest of the walk; the random draws are the same either way.

Adopting an incumbent rebuilds nothing.  Most incumbents lie below the
last one on the same path, a merge or a few deeper, so their MGTA is
that of the last incumbent coarsened by the merges since: the engine
keeps the last incumbent's path length, last merge record and glue
assignment, and when that record is still on the path (an identity
test, so undo keeps no extra books) ``coarsen`` unites the old part ids
of the new merges' anchors.  Otherwise (the root, and incumbents found
after backtracking) ``_snapshot`` reads the assignment off the engine
in one pass over the cells: the slot nodes of the union-find already
are the MGTA of the current partition, so the pass labels each cell by
first occurrence of its part root (canonical part order) and, at each
part's first cell, numbers the roots of its N, E, S, W slots by first
occurrence.  Both give the ``Partition`` and exactly the class ids
``build_mgta`` would give.  The assignment still goes through
``extract_tas``, with its constructibility and colour checks, and the
resulting tile system through the full simulation of
``verify_solution``, before ``progress`` or ``on_incumbent`` hear of it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .atam import verify_solution
from .keyindex import KeyIndex
from .mgta import E, N, S, W, GlueAssignment, coarsen, extract_tas
from .partition import Partition
from .pattern import ColorGrid
from .rng import SplitMix64
from .tiles import TileSystem

# Not called here: perfbench traces the layer calls made from this module
# by wrapping these names, so they stay importable from it.
from .mgta import build_mgta  # noqa: F401
from .partition import partition_from_labels  # noqa: F401

# One isolated-vertex pick in this many departs from canonical scan order
# and takes a uniformly random remaining vertex instead.  Scan order makes
# first descents track the grid's own growth; the rare departures are what
# makes runs with different seeds explore genuinely different branches.
_DEVIATION = 32

# Constructible nodes with at least this many live parts keep the key index
# synced, so their children are probed on it instead of made and scanned.
# Grids of fewer cells never build the index: with it synced at every size,
# exact solves of random 4x4 and 5x5 grids ran about 1.3x slower.
_KEYED_PARTS = 64

# ---------------------------------------------------------------------------
# configuration and results


@dataclass(frozen=True)
class SolveConfig:
    """How to run the search.

    ``exact`` mode runs to exhaustion and proves optimality.  ``anytime``
    mode stops after ``cutoff_merges`` merge operations and reports the
    best solution seen (which is still proven optimal if the tree was
    exhausted before the cutoff hit).  ``report_every`` triggers a
    progress event every so many merges on top of the events emitted at
    each improvement.
    """

    mode: str = "exact"
    cutoff_merges: int | None = None
    rng_seed: int = 0
    report_every: int | None = None

    def __post_init__(self):
        if self.mode not in ("exact", "anytime"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "anytime":
            if self.cutoff_merges is None or self.cutoff_merges < 0:
                raise ValueError("anytime mode needs a nonnegative cutoff_merges")
        elif self.cutoff_merges is not None:
            raise ValueError("exact mode does not take a cutoff")
        if self.report_every is not None and self.report_every < 1:
            raise ValueError("report_every must be positive")

    @classmethod
    def exact(cls, seed: int = 0) -> "SolveConfig":
        return cls(mode="exact", rng_seed=seed)

    @classmethod
    def anytime(
        cls, cutoff_merges: int, seed: int = 0, report_every: int | None = None
    ) -> "SolveConfig":
        return cls(
            mode="anytime",
            cutoff_merges=cutoff_merges,
            rng_seed=seed,
            report_every=report_every,
        )


@dataclass(frozen=True)
class SolveResult:
    best_size: int
    best_system: TileSystem
    best_partition: Partition
    proven_optimal: bool
    merges_performed: int
    trace: tuple[tuple[int, int], ...]  # (merges, best_size) at each improvement


@dataclass(frozen=True)
class NodeInfo:
    """Snapshot handed to a solve observer at every visited node."""

    signature: tuple[int, ...]
    part_anchors: tuple[int, ...]
    cliques: tuple[frozenset[int], ...]
    num_parts: int
    bound: int
    constructible: bool
    merges: int


# ---------------------------------------------------------------------------
# the engine


class _Engine:
    """Mutable search state with exact rollback.

    Parts are identified by their anchor, the smallest cell they contain;
    the live anchors sit in a doubly linked list in canonical order, so
    scans see parts in first-occurrence order without sorting.  One
    union-find holds two kinds of node: the 4*m*n per-cell glue slots
    (``4*cell + side``) and one part node per cell (``4*m*n + cell``).
    The adjacency identifications of the slots are installed once at
    startup; a part merge links the two part nodes and unites the parts'
    four slot pairs.  Roots are linked by size and finds never compress,
    so a find walks at most O(log n) links and only a link writes.  Every
    link a merge makes pushes the linked root on one trail, and undoing
    the merge pops the trail back to its mark, unlinking each root from
    its parent.
    """

    def __init__(self, grid, cfg, progress, on_incumbent, observer, use_bound):
        # Keep to at most 29 instance attributes.  CPython 3.11 keeps that
        # many in its specialized per-class layout; one more turns every
        # ``self.`` load of the search loop into a dict lookup (with a
        # 30th, exact_random ran about 9% slower).
        self.grid = grid
        m = grid.m
        mn = self.mn = m * grid.n
        self.colors = list(grid.cells)
        self.cutoff = (1 << 62) if cfg.cutoff_merges is None else cfg.cutoff_merges
        self.report_every = cfg.report_every
        self.progress = progress
        self.on_incumbent = on_incumbent
        self.observer = observer
        self.use_bound = use_bound
        self.rng = SplitMix64(cfg.rng_seed)

        # glue slots 0 .. 4*mn-1, then part nodes 4*mn .. 5*mn-1
        self.pbase = 4 * mn
        self.parent = list(range(5 * mn))
        self.size = [1] * (5 * mn)
        self.trail: list[int] = []

        # live anchors in ascending order, sentinel at index mn
        self.nxt = list(range(1, mn + 1)) + [0]
        self.prv = [mn] + list(range(mn))
        self.num_parts = mn

        self.clique: list[set[int]] = [set() for _ in range(grid.k)]
        self.bound = grid.k

        self.merges = 0
        self.best = mn + 1
        self.best_system: TileSystem | None = None
        self.trace: list[tuple[int, int]] = []
        # the last, so the best, incumbent: (path length, last merge record
        # or None, MGTA).  Holding the record keeps its identity unique, and
        # a record taken off the path is never pushed again.
        self.last: tuple | None = None

        # adjacency identifications are permanent, so they stay off the
        # trail.  Each joins two singleton slots (no slot is in two pairs),
        # linked as a merge would link them.
        p, sz = self.parent, self.size
        for c in range(mn):
            if c % m + 1 < m:
                p[4 * (c + 1) + W] = 4 * c + E
                sz[4 * c + E] = 2
            if c + m < mn:
                p[4 * (c + m) + S] = 4 * c + N
                sz[4 * c + N] = 2

        self.path: list[tuple] = []  # merge records of the current path
        self.keys = None
        if mn >= _KEYED_PARTS:
            self.keys = KeyIndex(self.parent, self.trail, self.nxt, mn)

    # -- merge and undo -----------------------------------------------------

    def _apply_merge(self, lo: int, hi: int, col: int):
        """Unite the parts anchored at lo < hi (same colour col): their part
        nodes and their four slot pairs, each linked by size onto the
        trail.  Returns an opaque record for _undo_merge."""
        p, sz, trail = self.parent, self.size, self.trail
        mark = len(trail)
        pb, a0, b0 = self.pbase, 4 * lo, 4 * hi
        for a, b in (
            (pb + lo, pb + hi), (a0, b0), (a0 + 1, b0 + 1), (a0 + 2, b0 + 2), (a0 + 3, b0 + 3)
        ):
            while p[a] != a:
                a = p[a]
            while p[b] != b:
                b = p[b]
            if a != b:
                if sz[a] < sz[b]:
                    a, b = b, a
                p[b] = a
                sz[a] += sz[b]
                trail.append(b)

        nxt, prv = self.nxt, self.prv
        nxt[prv[hi]] = nxt[hi]
        prv[nxt[hi]] = prv[hi]
        self.num_parts -= 1

        cl = self.clique[col]
        removed_hi = hi in cl
        if removed_hi:
            cl.remove(hi)
        added_lo = removed_hi and lo not in cl
        if added_lo:
            cl.add(lo)
        return (mark, lo, hi, col, removed_hi, added_lo)

    def _undo_merge(self, rec) -> None:
        mark, lo, hi, col, removed_hi, added_lo = rec
        cl = self.clique[col]
        if added_lo:
            cl.remove(lo)
        if removed_hi:
            cl.add(hi)
        self.num_parts += 1
        nxt, prv = self.nxt, self.prv
        nxt[prv[hi]] = hi
        prv[nxt[hi]] = hi
        trail, p, sz = self.trail, self.parent, self.size
        while len(trail) > mark:
            b = trail.pop()
            sz[p[b]] -= sz[b]
            p[b] = b

    # -- determinism scan ---------------------------------------------------

    def _find_conflict(self):
        """First pair of live parts (canonical order) sharing both S and W
        glue classes, or None.  Inlined slot finds keep this hot path flat."""
        nxt = self.nxt
        p = self.parent
        mn = self.mn
        stride = 4 * mn
        seen: dict[int, int] = {}
        a = nxt[mn]
        while a != mn:
            south = 4 * a + S
            while p[south] != south:
                south = p[south]
            west = 4 * a + W
            while p[west] != west:
                west = p[west]
            key = south * stride + west
            other = seen.get(key)
            if other is not None:
                return (other, a)
            seen[key] = a
            a = nxt[a]
        return None

    # -- bookkeeping --------------------------------------------------------

    def _tick(self) -> None:
        self.merges += 1
        re = self.report_every
        if re is not None and self.merges % re == 0 and self.progress is not None:
            self.progress(self.merges, self.best)

    def _snapshot(self) -> GlueAssignment:
        """The current partition and its MGTA, in one pass over the cells
        (see the module docstring).  Labels are part roots numbered by
        first occurrence, so they are the canonical signature; the first
        cell of a part is its anchor and supplies its slot roots, numbered
        by first occurrence in N, E, S, W order as ``build_mgta`` does."""
        p, pbase = self.parent, self.pbase
        part_ids: dict[int, int] = {}
        glue_ids: dict[int, int] = {}
        glue_id = glue_ids.setdefault
        labels = []
        quads = []
        for c in range(self.mn):
            r = pbase + c
            while p[r] != r:
                r = p[r]
            lab = part_ids.get(r)
            if lab is None:
                lab = part_ids[r] = len(part_ids)
                north = 4 * c + N
                while p[north] != north:
                    north = p[north]
                east = 4 * c + E
                while p[east] != east:
                    east = p[east]
                south = 4 * c + S
                while p[south] != south:
                    south = p[south]
                west = 4 * c + W
                while p[west] != west:
                    west = p[west]
                quads.append((
                    glue_id(north, len(glue_ids)),
                    glue_id(east, len(glue_ids)),
                    glue_id(south, len(glue_ids)),
                    glue_id(west, len(glue_ids)),
                ))
            labels.append(lab)
        part = Partition(self.grid.m, self.grid.n, tuple(labels))
        return GlueAssignment(part, tuple(quads), len(glue_ids))

    def _observe(self, constructible: bool) -> None:
        labels = self._snapshot().partition.labels
        anchors: list[int] = []
        for c, lab in enumerate(labels):
            if lab == len(anchors):
                anchors.append(c)
        self.observer(
            NodeInfo(
                signature=labels,
                part_anchors=tuple(anchors[lab] for lab in labels),
                cliques=tuple(frozenset(s) for s in self.clique),
                num_parts=self.num_parts,
                bound=self.bound,
                constructible=constructible,
                merges=self.merges,
            )
        )

    def _adopt_incumbent(self) -> None:
        path, last = self.path, self.last
        if last is not None and (not last[0] or path[last[0] - 1] is last[1]):
            # below the last incumbent, whose path is still a prefix of
            # ours (longer: every merge on a path takes one part away)
            depth, _, glues = last
            labels = glues.partition.labels
            glues = coarsen(glues, [(labels[r[1]], labels[r[2]]) for r in path[depth:]])
        else:
            glues = self._snapshot()
        part = glues.partition
        assert part.num_parts == self.num_parts
        system = extract_tas(glues, self.grid)
        report = verify_solution(system, self.grid)
        if not report.ok:
            raise RuntimeError(
                f"internal error: incumbent of size {part.num_parts} failed "
                f"verification: {report.failure}"
            )
        self.best = part.num_parts
        self.best_system = system
        self.last = (len(path), path[-1] if path else None, glues)
        self.trace.append((self.merges, self.best))
        if self.on_incumbent is not None:
            self.on_incumbent(self.merges, self.best, system, part)
        if self.progress is not None:
            self.progress(self.merges, self.best)

    # -- the tree -----------------------------------------------------------

    def _run(self) -> bool:
        """Walk the tree below the current state depth first.  Returns True
        when the tree is exhausted, False when the cutoff stopped it.

        A conflicted node is handled here: its one child, the merge of its
        conflicting pair, is applied at once, and when the pair crosses
        colours or was already excluded the node dies.  ``stack`` holds,
        per constructible node on the current path, its child generator
        and the length ``path`` had there; ``path`` holds the merge records
        of the path's edges.  Before a node is asked for its next child,
        the merges below it are undone, which also rewinds a dead forced
        chain; undo leaves the key index alone, since each synced node
        restores it as it ends.  A child of the node the index is synced
        at is probed first (``keys.mark`` equals the trail's length only
        there, since every merge links its part nodes), and made only if
        its conflict is not fatal or an observer is attached.  A cutoff
        abandons the state mid-tree: the engine is not used after it."""
        keys, path, colors, clique = self.keys, self.path, self.colors, self.clique
        trail, observer = self.trail, self.observer
        stack: list[tuple] = []
        conflict = self._find_conflict()
        while True:
            # follow the forced merges from the node just entered
            while True:
                if observer is not None:
                    self._observe(conflict is None)
                if conflict is None:
                    stack.append((self._node(), len(path)))
                    break
                p1, p2 = conflict
                col = colors[p1]
                if colors[p2] != col:
                    break  # merging across colours can never respect the pattern
                cl = clique[col]
                if p1 in cl and p2 in cl:
                    break  # pair already excluded on another branch
                if self.merges >= self.cutoff:
                    return False
                path.append(self._apply_merge(p1, p2, col))
                self._tick()
                conflict = self._find_conflict()
            # the next child of the deepest constructible node that has one,
            # skipping the children the probe finds dead
            while True:
                while stack:
                    children, depth = stack[-1]
                    while len(path) > depth:
                        self._undo_merge(path.pop())
                    move = next(children, None)
                    if move is not None:
                        break
                    stack.pop()
                else:
                    return True
                if self.merges >= self.cutoff:
                    return False
                lo, hi, col = move
                probed = keys is not None and keys.mark == len(trail)
                if not probed:
                    break
                conflict = keys.probe(lo, hi)
                if conflict is None or observer is not None:
                    break
                p1, p2 = conflict
                c = colors[p1]
                if colors[p2] == c:
                    # excluded in the child: both in its clique, where lo
                    # stands for hi (hi is in no other colour's clique)
                    cl = clique[c]
                    lo_in = hi in cl
                    if not (
                        (p1 in cl or lo_in and p1 == lo) and (p2 in cl or lo_in and p2 == lo)
                    ):
                        break
                self._tick()
            path.append(self._apply_merge(lo, hi, col))
            self._tick()
            if not probed:
                conflict = self._find_conflict()

    def _pruned(self) -> bool:
        return self.use_bound and self.bound >= self.best

    def _isolated(self):
        """The live anchors outside their colour's clique from here on, in
        canonical order (the order of the live list), tested as reached."""
        nxt, mn, colors, clique = self.nxt, self.mn, self.colors, self.clique
        a = nxt[mn]
        while a != mn:
            if a not in clique[colors[a]]:
                yield a
            a = nxt[a]

    def _node(self):
        """Yield the children of the constructible node the state sits on,
        as merges (lo, hi, colour); the state is back at this node whenever
        a child is asked for.  The node may become the incumbent first; it
        yields its children in clique order, and after the last one undoes
        its clique joins and restores the key index if it synced it.  A
        cutoff abandons the generator, so that undo is not in a
        ``finally``: it would run at garbage collection."""
        colors, clique, keys, path = self.colors, self.clique, self.keys, self.path
        if self.num_parts < self.best:
            self._adopt_incumbent()
        if self._pruned():
            return
        synced = None
        if keys is not None and path and self.num_parts >= _KEYED_PARTS:
            synced = keys.sync(path)

        # Isolated vertices, taken lazily in canonical anchor order; ``left``
        # counts those not yet taken.  Each vertex is paired against the
        # clique of its colour, then joins it.  Taking vertices in assembly
        # order makes the first descent sweep the grid the way the seed grows
        # it, which on structured patterns keeps the forced-merge cascades
        # productive.  One pick in _DEVIATION departs from that order (the
        # rest of the walk is listed for it); together with the member
        # shuffle below this is the randomization between same-config runs.
        left = self.num_parts - sum(map(len, clique))
        rest = self._isolated()
        joins: list[tuple[int, int]] = []
        stop = False
        while left and not stop:
            if left > 1 and self.rng.randrange(_DEVIATION) == 0:
                todo = list(rest)
                j = self.rng.randrange(left)
                todo[0], todo[j] = todo[j], todo[0]
                rest = iter(todo)
            v = next(rest)
            left -= 1
            col = colors[v]
            cl = clique[col]
            members = sorted(cl)
            if len(members) > 1:
                self.rng.shuffle(members)
            for u in members:
                if self._pruned():
                    stop = True
                    break
                yield (v, u, col) if v < u else (u, v, col)
            if not stop:
                cl.add(v)
                joins.append((col, v))
                if len(cl) >= 2:
                    self.bound += 1
        for col, v in reversed(joins):
            cl = clique[col]
            cl.remove(v)
            if len(cl) >= 1:
                self.bound -= 1
        if synced is not None:
            keys.restore(synced)


def solve(
    grid: ColorGrid,
    cfg: SolveConfig,
    *,
    progress=None,
    on_incumbent=None,
    observer=None,
    use_bound: bool = True,
) -> SolveResult:
    """Find a minimum (or best-within-cutoff) tile set for a grid.

    The first incumbent is always the discrete partition, size m*n, so a
    result exists even at cutoff 0.  Every incumbent is verified against
    the grid by simulation before it is adopted.  ``progress`` is called
    as (merges, best) on every improvement and every
    ``cfg.report_every`` merges; ``on_incumbent`` as (merges, size,
    system, partition) on improvements; ``observer`` with a NodeInfo at
    every visited node (slow, meant for audits; perfbench counts nodes
    with it).  ``use_bound=False`` switches off the bound prune and keeps
    the excluded-pair exclusions; it exists for testing, so that observed
    searches reach deep nodes with large cliques and so that pruning
    soundness can be checked (``tests/test_search.py``: ``TestNodeApi``,
    ``visited_nodes`` and ``TestPruningIsSound``).  The search keeps its
    path on an explicit stack, so the depth of the tree is bounded by
    memory alone and no process-wide state, the recursion limit
    included, is read or changed.
    """
    engine = _Engine(grid, cfg, progress, on_incumbent, observer, use_bound)
    proven = engine._run()
    assert engine.best_system is not None and engine.last is not None
    return SolveResult(
        best_size=engine.best,
        best_system=engine.best_system,
        best_partition=engine.last[2].partition,
        proven_optimal=proven,
        merges_performed=engine.merges,
        trace=tuple(engine.trace),
    )
