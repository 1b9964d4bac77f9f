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
single union-find with one node per grid edge (the glue position its
two facing cell sides share), linked by size without path compression
so that undo is popping one trail of linked roots, whose classes are
the glue classes of the current partition's MGTA; a doubly linked list
of live parts in canonical order; and per-colour clique sets.  The path
from the root is an explicit stack holding a child generator for each
constructible node on it; a conflicted node's one merge is applied by
the loop itself, and a dead forced chain is rewound by undoing merges
back to the generator below it.  So no recursion limit applies and
``solve`` changes no process state.  Equal seeds give equal runs.

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

Adopting an incumbent rebuilds nothing and builds no public object.
Most incumbents lie below the last one on the same path, a merge or a
few deeper, so their MGTA is that of the last incumbent coarsened by the
merges since: the engine keeps the last incumbent's last merge record
and its MGTA as raw tables (labels, quads, class count), and when that
record is still on the path at the incumbent's depth (an identity test,
so undo keeps no extra books) ``coarsen_tables`` unites the old part ids
of the new merges' anchors.  Otherwise (the root, and incumbents found
after backtracking) ``_snapshot`` reads the tables off the engine in one
pass over the cells: the union-find's classes already are the MGTA of
the current partition, so the pass labels each cell by first occurrence
of its part (canonical part order), taken from the merge records on the
path, and, at each part's first cell, numbers the roots of its N, E, S,
W edge nodes by first occurrence.  Both give exactly the labels and
class ids ``build_mgta`` would give.  ``tile_table`` turns the tables
into the incumbent's tile system, checking constructibility and the
colouring, and ``verify_solution`` simulates that system in full before
``best``, the trace, ``progress`` or ``on_incumbent`` hear of the
incumbent.  It is then stored in one assignment, so a solve stopped at
any point finds its last incumbent whole.

The system handed out is the one simulated, its rows made ``Tile``s by
``named_tiles``, together with a validated ``Partition`` of the stored
labels.  Both are built only when a solution is handed out: at each
``on_incumbent`` call and once when ``solve`` returns.  A
``KeyboardInterrupt`` stops the walk like a cutoff, and ``solve`` hands
out the last incumbent with ``interrupted`` set.
"""

from __future__ import annotations

from dataclasses import dataclass

from .atam import verify_solution
from .keyindex import KeyIndex
from .mgta import coarsen_tables, named_tiles, tile_table
from .partition import Partition
from .pattern import ColorGrid
from .rng import SplitMix64
from .tiles import TileSystem

# Not called here: perfbench traces the layer calls made from this module
# by wrapping these names, so they stay importable from it.
from .mgta import build_mgta, extract_tas  # noqa: F401
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
    each improvement.  Counts and the seed must be ``int`` (a ``bool`` is
    not a count); anything else raises ``TypeError``.
    """

    mode: str = "exact"
    cutoff_merges: int | None = None
    rng_seed: int = 0
    report_every: int | None = None

    def __post_init__(self):
        if self.mode not in ("exact", "anytime"):
            raise ValueError(f"unknown mode {self.mode!r}")
        for name in ("cutoff_merges", "report_every"):
            value = getattr(self, name)
            if value is not None and (isinstance(value, bool) or not isinstance(value, int)):
                raise TypeError(f"{name} must be an int, not {value!r}")
        if not isinstance(self.rng_seed, int):
            raise TypeError(f"rng_seed must be an int, not {self.rng_seed!r}")
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
    interrupted: bool = False  # a KeyboardInterrupt stopped the search


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
    scans see parts in first-occurrence order without sorting.  The
    union-find has one node per grid edge, 2*m*n + m + n in all, none
    linked at start: S of cell c is node c and N of c is c + m (the top
    border is m*n .. m*n + m - 1); W of c is ``wbase + c`` and E of c is
    ``east[c]``, the W of c + 1 or its row's border node.  The key index
    reads this layout from the engine.  A merge unites the parts' four
    node pairs, linking roots by size; finds never compress, so a find
    walks at most O(log n) links and only a link writes.  Every link
    goes on one trail, and undoing a merge pops the trail back to its
    mark, unlinking each root from its parent.

    The path of merge records is the one record of the descent: each
    merge takes one part away, so a node d merges deep has m*n - d parts.
    """

    def __init__(self, grid, cfg, progress, on_incumbent, observer, use_bound):
        # Keep to at most 29 instance attributes.  CPython 3.11 keeps that
        # many in its specialized per-class layout; one more turns every
        # ``self.`` load of the search loop into a dict lookup (with a
        # 30th, exact_random ran about 9% slower).
        self.grid = grid
        m = grid.m
        mn = self.mn = m * grid.n
        self.cutoff = (1 << 62) if cfg.cutoff_merges is None else cfg.cutoff_merges
        self.report_every = cfg.report_every
        self.progress = progress
        self.on_incumbent = on_incumbent
        self.observer = observer
        self.use_bound = use_bound
        self.rng = SplitMix64(cfg.rng_seed)

        # the edge nodes (see the class docstring), each its own root:
        # horizontal edges, then each row's vertical ones and its E border
        wb = self.wbase = mn + m
        self.east = [wb + c + 1 if c % m + 1 < m else wb + mn + c // m for c in range(mn)]
        self.parent = list(range(wb + mn + grid.n))
        self.size = [1] * (wb + mn + grid.n)
        self.trail: list[int] = []

        # live anchors in ascending order, sentinel at index mn
        self.nxt = list(range(1, mn + 1)) + [0]
        self.prv = [mn] + list(range(mn))

        self.clique: list[set[int]] = [set() for _ in range(grid.k)]
        self.bound = grid.k

        self.merges = 0
        self.best = mn + 1
        # the last, so the best, incumbent: (last merge record or None,
        # labels, quads, class count, verified tile table, trace).  Holding
        # the record keeps its identity unique, and a record taken off the
        # path is never pushed again.
        self.last: tuple | None = None

        self.path: list[tuple] = []  # merge records of the current path
        self.keys = None
        if mn >= _KEYED_PARTS:
            self.keys = KeyIndex(self)

    # -- merge and undo -----------------------------------------------------

    def _apply_merge(self, lo: int, hi: int, col: int):
        """Unite the parts anchored at lo < hi (same colour col): their
        four edge-node pairs, each linked by size onto the trail.  Returns
        an opaque record for _undo_merge."""
        p, sz, trail = self.parent, self.size, self.trail
        mark = len(trail)
        m, wb, east = self.grid.m, self.wbase, self.east
        for a, b in ((lo + m, hi + m), (east[lo], east[hi]), (lo, hi), (wb + lo, wb + hi)):
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

        # lo and hi are never both in the clique: the search merges no
        # excluded pair, and a child pairs an isolated vertex with a member
        cl = self.clique[col]
        swapped = hi in cl
        if swapped:
            cl.remove(hi)
            cl.add(lo)
        return (mark, lo, hi, col, swapped)

    def _undo_merge(self, rec) -> None:
        mark, lo, hi, col, swapped = rec
        if swapped:
            cl = self.clique[col]
            cl.remove(lo)
            cl.add(hi)
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
        glue classes, or None.  Inlined node finds keep this hot path flat."""
        nxt = self.nxt
        p = self.parent
        mn = self.mn
        wb = self.wbase
        stride = len(p)
        seen: dict[int, int] = {}
        a = nxt[mn]
        while a != mn:
            south = a
            while p[south] != south:
                south = p[south]
            west = wb + a
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

    def _snapshot(self):
        """The current partition's MGTA as (labels, quads, class count), in
        one pass over the cells (see the module docstring).  Each merge
        record on the path links its ``hi`` to a smaller cell of its part,
        ``lo``, whose label it takes; each anchor takes the next label (the
        canonical signature) and supplies its part's edge roots, numbered by
        first occurrence in N, E, S, W order as ``build_mgta`` does."""
        p, m, wb, east = self.parent, self.grid.m, self.wbase, self.east
        up = list(range(self.mn))
        for rec in self.path:
            up[rec[2]] = rec[1]
        glue_ids: dict[int, int] = {}
        glue_id = glue_ids.setdefault
        labels = []
        quads = []
        for c, u in enumerate(up):
            if u != c:
                labels.append(labels[u])
                continue
            labels.append(len(quads))
            north = c + m
            while p[north] != north:
                north = p[north]
            e = east[c]
            while p[e] != e:
                e = p[e]
            south = c
            while p[south] != south:
                south = p[south]
            west = wb + c
            while p[west] != west:
                west = p[west]
            quads.append((
                glue_id(north, len(glue_ids)),
                glue_id(e, len(glue_ids)),
                glue_id(south, len(glue_ids)),
                glue_id(west, len(glue_ids)),
            ))
        return tuple(labels), tuple(quads), len(glue_ids)

    def _observe(self, constructible: bool) -> None:
        labels = self._snapshot()[0]
        anchors: list[int] = []
        for c, lab in enumerate(labels):
            if lab == len(anchors):
                anchors.append(c)
        self.observer(
            NodeInfo(
                signature=labels,
                part_anchors=tuple(anchors[lab] for lab in labels),
                cliques=tuple(frozenset(s) for s in self.clique),
                num_parts=len(anchors),
                bound=self.bound,
                constructible=constructible,
                merges=self.merges,
            )
        )

    def _adopt_incumbent(self) -> None:
        """Adopt the current node, of fewer parts than ``best``, as the
        incumbent, on raw tables (see the module docstring).  The last one,
        of ``best`` parts, sat m*n - best merges deep."""
        path, last, grid = self.path, self.last, self.grid
        depth = self.mn - self.best
        if last is not None and (not depth or path[depth - 1] is last[0]):
            # below the last incumbent, whose path is still a prefix of ours
            labels = last[1]
            pairs = [(labels[r[1]], labels[r[2]]) for r in path[depth:]]
            labels, quads, num_classes = coarsen_tables(labels, last[2], last[3], pairs)
        else:
            labels, quads, num_classes = self._snapshot()
        size = len(quads)
        assert size == self.mn - len(path)
        table = tile_table(labels, quads, grid)
        report = verify_solution(table, grid)
        if not report.ok:
            raise RuntimeError(
                f"internal error: incumbent of size {size} failed "
                f"verification: {report.failure}"
            )
        trace = (*last[5], (self.merges, size)) if last is not None else ((self.merges, size),)
        self.last = (path[-1] if path else None, labels, quads, num_classes, table, trace)
        self.best = size
        if self.on_incumbent is not None:
            self.on_incumbent(self.merges, size, *self._hand_out())
        if self.progress is not None:
            self.progress(self.merges, size)

    def _hand_out(self) -> tuple[TileSystem, Partition]:
        """The last incumbent as public objects: the tile system that was
        simulated, with ``Tile``s for its rows, and the validated
        ``Partition`` of its labels."""
        _, labels, _, _, table, _ = self.last
        return named_tiles(table), Partition(self.grid.m, self.grid.n, labels)

    # -- the tree -----------------------------------------------------------

    def _run(self) -> bool:
        """Walk the tree below the current state depth first.  Returns True
        when the tree is exhausted, False when the cutoff stopped it.

        A conflicted node is handled here: its one child, the merge of its
        conflicting pair, is applied at once, and when the pair crosses
        colours or was already excluded the node dies.  ``stack`` holds,
        per constructible node on the current path, its child generator
        and its depth; ``path`` holds the merge records of the path's
        edges, one per merge, so its length is the depth.  Before a node
        is asked for its next child, the merges below it are undone, which
        also rewinds a dead forced chain; undo leaves the key index alone,
        since each synced node restores it as it ends.  A child of the node
        the index is synced at is probed first (``keys.depth`` equals the
        depth only there), and made only if its conflict is not fatal or
        an observer is attached.  A cutoff abandons the state mid-tree: the
        engine is not used after it."""
        keys, path, colors, clique = self.keys, self.path, self.grid.cells, self.clique
        observer = self.observer
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
                probed = keys is not None and keys.depth == len(path)
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
        nxt, mn, colors, clique = self.nxt, self.mn, self.grid.cells, self.clique
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
        colors, clique, keys, path = self.grid.cells, self.clique, self.keys, self.path
        num_parts = self.mn - len(path)
        if num_parts < self.best:
            self._adopt_incumbent()
        if self._pruned():
            return
        synced = None
        if keys is not None and path and num_parts >= _KEYED_PARTS:
            synced = keys.sync()

        # Isolated vertices, taken lazily in canonical anchor order; ``left``
        # counts those not yet taken.  Each vertex is paired against the
        # clique of its colour, then joins it.  Taking vertices in assembly
        # order makes the first descent sweep the grid the way the seed grows
        # it, which on structured patterns keeps the forced-merge cascades
        # productive.  One pick in _DEVIATION departs from that order (the
        # rest of the walk is listed for it); together with the member
        # shuffle below this is the randomization between same-config runs.
        left = num_parts - sum(map(len, clique))
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
    the grid by simulation before it is adopted.  A ``KeyboardInterrupt``
    during the search (a SIGINT, or raised by a callback) stops it and
    returns the last incumbent with ``interrupted=True`` and
    ``proven_optimal=False``; one that comes before the first incumbent
    is verified propagates.  ``progress`` is called
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
    interrupted = False
    try:
        proven = engine._run()
    except KeyboardInterrupt:
        if engine.last is None:
            raise  # stopped before the first incumbent was verified
        proven, interrupted = False, True
    system, part = engine._hand_out()
    trace = engine.last[5]
    return SolveResult(
        best_size=trace[-1][1],
        best_system=system,
        best_partition=part,
        proven_optimal=proven,
        merges_performed=engine.merges,
        trace=trace,
        interrupted=interrupted,
    )
