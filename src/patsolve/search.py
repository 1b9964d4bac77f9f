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
what a node does on entry it undoes at its exit.  The synced node
probes each of its children itself before it yields it: the index maps
each root the merge would link straight to the root it would end under,
at most two pairs per node kind held in locals, and finds the child's
first conflict from the parts in those roots' buckets (one per edge
node), the few whose keys the merge would move, without scanning every
part and without applying the merge.  Most children die at once: one
whose probed conflict is fatal (across colours, or a pair in the child's
clique) is counted as a merge by the node and never yielded, applied or
undone, and a live one reaches ``_run`` with its probed conflict.  An
observed solve builds no index, so every child it sees is made and
scanned.  Nodes after a forced merge scan, so a forced chain syncs the
index once, at its constructible end.  The isolated vertices are walked
off the live list lazily, since most children die at once, and a
deviation draw lists the walk only as far as the vertex it takes.

Adopting an incumbent rebuilds nothing and carries no per-cell labels:
its partition coarsens every partition above it on the path, so its
tile system is an ancestor's coarsened by the merges since.  Each
ancestor is an entry of the same shape: a merge record, ascending part
anchors, a tile system of plain rows (``row[:4]`` is a part's MGTA quad,
``row[4]`` its colour, in canonical part order) and its class count.
The engine keeps two.  One is the root's, the discrete partition: its
anchors are all the cells and its classes the edge nodes themselves,
numbered by first occurrence in N, E, S, W order.  The other is the
last incumbent's, with the record of its last merge and the system
``verify_solution`` simulated for it.  An incumbent derives from the
last one when that record is still on the path at the last one's depth
(an identity test, so undo keeps no extra books); such incumbents lie
some merges deeper, about 6 on average on sierpinski16.  Every other
one, the root itself and those found after backtracking, derives from
the root through every merge on the path.  Each merge record's ``lo`` and
``hi`` are found among the ancestor's anchors by bisection, since a
merge keeps its smaller anchor and every later anchor was one already,
and ``coarsen_rows`` unites those part ids and their classes, raising
when a united pair's colours differ, and renumbers the rows; the seed
glues take the same class ranks.  The ancestor's parts each have one
colour, so that is the same check as a per-cell one, and the class ids
are exactly the ones ``build_mgta`` would give.  ``check_constructible``
then tests the rows for a shared (S, W) pair, and ``verify_solution``
simulates the system in full before ``best``, the trace, ``progress``
or ``on_incumbent`` hear of the incumbent.  It is then stored in one
assignment, so a solve stopped at any point finds its last incumbent
whole.

The system handed out is the one simulated, its rows made ``Tile``s by
``named_tiles``, together with a validated ``Partition`` whose part ids
are the tile ids of that system's assembly.  Both are built only when a
solution is handed out: at each ``on_incumbent`` call and once when
``solve`` returns.  An ``on_incumbent`` call comes while the engine
still sits at the incumbent, so the partition takes the engine's
canonical signature, which numbers parts in the rows' order; at the end
the engine has left the incumbent, and the labels are read off a
simulation of the system.  A ``KeyboardInterrupt`` stops the walk like a
cutoff, and ``solve`` hands out the last incumbent with ``interrupted``
set.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .atam import simulate, verify_solution
from .keyindex import KeyIndex
from .mgta import check_constructible, coarsen_rows, named_tiles
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

# A child yielded with this in place of its conflict was not probed: it is
# scanned once it is made.
_SCAN = object()

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

    def __init__(self, grid, cfg, progress, on_incumbent, observer):
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
        # the root's entry, shaped like ``last``: the discrete partition,
        # each edge node its own class, numbered by first occurrence in N,
        # E, S, W order, and the seed glues the border nodes' classes
        ids: dict[int, int] = {}
        glue = ids.setdefault
        rows = tuple([
            (glue(c + m, len(ids)), glue(self.east[c], len(ids)), glue(c, len(ids)),
             glue(wb + c, len(ids)), grid.cells[c])
            for c in range(mn)
        ])
        seeds = tuple([ids[c] for c in range(m)]), tuple([ids[wb + c] for c in range(0, mn, m)])
        self.root = (None, list(range(mn)), TileSystem(m, grid.n, rows, *seeds), len(ids), ())
        # the last, so the best, incumbent, the ancestor of the next one
        # while its last merge record (None at the root) is on the path:
        # (that record, ascending part anchors, verified tile system, class
        # count, trace).  Holding the record keeps its identity unique, and
        # a record taken off the path is never pushed again.  The root's
        # entry, with its empty trace, is the first.
        self.last: tuple = self.root

        self.path: list[tuple] = []  # merge records of the current path
        # an observed solve makes and scans every child, so it needs none
        self.keys = None
        if mn >= _KEYED_PARTS and observer is None:
            self.keys = KeyIndex(self)

    # -- merge and undo -----------------------------------------------------

    def _apply_merge(self, lo: int, hi: int, col: int):
        """Unite the parts anchored at lo < hi (same colour col): their
        four edge-node pairs (N, E, S, W), each linked by size onto the
        trail.  The four find-and-link blocks are written out, as a loop
        over a tuple of pairs cost a fifth of the call.  Returns an
        opaque record for _undo_merge."""
        p, sz, trail = self.parent, self.size, self.trail
        mark = len(trail)
        m, east = self.grid.m, self.east
        a = lo + m
        while p[a] != a:
            a = p[a]
        b = hi + m
        while p[b] != b:
            b = p[b]
        if a != b:
            if sz[a] < sz[b]:
                a, b = b, a
            p[b] = a
            sz[a] += sz[b]
            trail.append(b)
        a = east[lo]
        while p[a] != a:
            a = p[a]
        b = east[hi]
        while p[b] != b:
            b = p[b]
        if a != b:
            if sz[a] < sz[b]:
                a, b = b, a
            p[b] = a
            sz[a] += sz[b]
            trail.append(b)
        a = lo
        while p[a] != a:
            a = p[a]
        b = hi
        while p[b] != b:
            b = p[b]
        if a != b:
            if sz[a] < sz[b]:
                a, b = b, a
            p[b] = a
            sz[a] += sz[b]
            trail.append(b)
        wb = self.wbase
        a = wb + lo
        while p[a] != a:
            a = p[a]
        b = wb + hi
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
        glue classes, or None.  Inlined node finds and one ``setdefault``
        per part keep this hot path flat."""
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
            other = seen.setdefault(south * stride + west, a)
            if other != a:
                return (other, a)
            a = nxt[a]
        return None

    # -- bookkeeping --------------------------------------------------------

    def _tick(self) -> None:
        self.merges += 1
        re = self.report_every
        if re is not None and self.merges % re == 0 and self.progress is not None:
            self.progress(self.merges, self.best)

    def _labels(self) -> tuple[int, ...]:
        """The current partition's canonical signature.  Each merge record
        on the path links its ``hi`` to a smaller cell of its part, ``lo``,
        whose label it takes; each anchor takes the next label."""
        up = list(range(self.mn))
        for rec in self.path:
            up[rec[2]] = rec[1]
        labels: list[int] = []
        parts = 0
        for c, u in enumerate(up):
            if u != c:
                labels.append(labels[u])
            else:
                labels.append(parts)
                parts += 1
        return tuple(labels)

    def _observe(self, constructible: bool) -> None:
        labels = self._labels()
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
        incumbent: coarsen the rows of the last one, whose anchors give its
        depth, when it is an ancestor, else the root's (see the module
        docstring).  The root's entry is the first ``last``, so the root
        derives from itself."""
        path, last, grid = self.path, self.last, self.grid
        depth = self.mn - len(last[1])
        ancestor = last  # while its path is still a prefix of ours
        if depth and path[depth - 1] is not last[0]:
            ancestor, depth = self.root, 0
        _, anchors, table, num_classes, _ = ancestor
        pairs = [(bisect_left(anchors, r[1]), bisect_left(anchors, r[2])) for r in path[depth:]]
        gone, ranks, rows, num_classes = coarsen_rows(table.tiles, num_classes, pairs)
        anchors = list(anchors)
        for q in gone:
            del anchors[q]
        table = TileSystem(
            grid.m,
            grid.n,
            rows,
            tuple([ranks[g] for g in table.seed_north]),
            tuple([ranks[g] for g in table.seed_east]),
        )
        check_constructible(table.tiles)
        size = len(anchors)
        assert size == self.mn - len(path)
        report = verify_solution(table, grid)
        if not report.ok:
            raise RuntimeError(
                f"internal error: incumbent of size {size} failed "
                f"verification: {report.failure}"
            )
        trace = (*last[4], (self.merges, size))
        self.last = (path[-1] if path else None, anchors, table, num_classes, trace)
        self.best = size
        if self.on_incumbent is not None:
            self.on_incumbent(self.merges, size, *self._hand_out(self._labels()))
        if self.progress is not None:
            self.progress(self.merges, size)

    def _hand_out(self, labels=None) -> tuple[TileSystem, Partition]:
        """The last incumbent as public objects: the tile system that was
        simulated, with ``Tile``s for its rows, and the validated
        ``Partition`` whose part ids are the tile ids of that system's
        assembly (its rows are in canonical part order).  ``labels``, the
        incumbent's canonical signature while the engine sits at it, are
        those ids; without them the system is simulated for them."""
        table = self.last[2]
        if labels is None:
            labels = simulate(table).assembly.tiles
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
        since each synced node restores it as it ends.  Each child comes
        with its first conflict, probed by the node that yields it, or
        ``_SCAN``: then the child is scanned once it is made.  A cutoff
        abandons the state mid-tree: the engine is not used after it."""
        path, colors, clique = self.path, self.grid.cells, self.clique
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
            # the next child of the deepest constructible node that has one
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
            lo, hi, col, conflict = move
            path.append(self._apply_merge(lo, hi, col))
            self._tick()
            if conflict is _SCAN:
                conflict = self._find_conflict()

    def _pruned(self) -> bool:
        return self.bound >= self.best

    def _node(self):
        """Yield the children of the constructible node the state sits on,
        as merges (lo, hi, colour, conflict); the state is back at this
        node whenever a child is asked for.  The node may become the
        incumbent first; it yields its children in clique order, and after
        the last one undoes its clique joins and restores the key index if
        it synced it.  A cutoff abandons the generator, so that undo is not
        in a ``finally``: it would run at garbage collection.

        Where the index sits at this node on entry (it synced here, or this
        is the root), the node probes each child first and only counts one
        whose conflict is fatal; a live one comes with its probed conflict,
        any other child with ``_SCAN``.  Only a join or a child out moves
        the bound or ``best``, so the prune is asked at a vertex's first
        member and after a yield.  At the cutoff a child is yielded
        unprobed, so a run of dead children ends at exactly the cutoff."""
        colors, clique, keys, path = self.grid.cells, self.clique, self.keys, self.path
        num_parts = self.mn - len(path)
        if num_parts < self.best:
            self._adopt_incumbent()
        if self._pruned():
            return
        synced = None
        if keys is not None and path and num_parts >= _KEYED_PARTS:
            synced = keys.sync()
        probe = keys.probe if keys is not None and keys.depth == len(path) else None
        cutoff, nxt, rng = self.cutoff, self.nxt, self.rng

        # Isolated vertices, taken lazily in canonical anchor order; ``left``
        # counts those not yet taken.  Each vertex is paired against the
        # clique of its colour, then joins it.  Taking vertices in assembly
        # order makes the first descent sweep the grid the way the seed grows
        # it, which on structured patterns keeps the forced-merge cascades
        # productive.  One pick in _DEVIATION departs from that order: it
        # swaps the next vertex with the j-th after it, so the walk is listed
        # into ``ahead`` only that far.  Together with the member shuffle
        # below this is the randomization between same-config runs.
        a = self.mn  # the walk's last anchor; the list's sentinel at first
        ahead: list[int] = []  # isolated vertices listed; from pos on, not yet taken
        pos = 0
        left = num_parts - sum(map(len, clique))
        joins: list[tuple[int, int]] = []
        stop = False
        while left and not stop:
            if left > 1 and rng.randrange(_DEVIATION) == 0:
                j = pos + rng.randrange(left)
                while len(ahead) <= j:
                    a = nxt[a]
                    if a not in clique[colors[a]]:
                        ahead.append(a)
                ahead[pos], ahead[j] = ahead[j], ahead[pos]
            if pos < len(ahead):
                v = ahead[pos]
                pos += 1
            else:
                v = a = nxt[a]
                while v in clique[colors[v]]:
                    v = a = nxt[a]
            left -= 1
            col = colors[v]
            cl = clique[col]
            members = sorted(cl)
            if len(members) > 1:
                rng.shuffle(members)
            check = True
            for u in members:
                if check:
                    if self._pruned():
                        stop = True
                        break
                    check = False
                lo, hi = (v, u) if v < u else (u, v)
                conflict = _SCAN
                if probe is not None and self.merges < cutoff:
                    conflict = probe(lo, hi)
                    if conflict is not None:
                        p1, p2 = conflict
                        c = colors[p1]
                        k = clique[c]
                        if colors[p2] != c or (p1 in k or p1 == lo) and (p2 in k or p2 == lo):
                            self._tick()
                            continue
                yield lo, hi, col, conflict
                check = True
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
    with it).  An observed solve builds no key index, so every child is
    made and seen, and it walks the tree as a plain solve does, to the
    same trace.  The search keeps its path on an explicit stack, so the
    depth of the tree is bounded by memory alone and no process-wide
    state, the recursion limit included, is read or changed.
    """
    engine = _Engine(grid, cfg, progress, on_incumbent, observer)
    interrupted = False
    try:
        proven = engine._run()
    except KeyboardInterrupt:
        if not engine.last[4]:
            raise  # stopped before the first incumbent was verified
        proven, interrupted = False, True
    system, part = engine._hand_out()
    trace = engine.last[4]
    return SolveResult(
        best_size=trace[-1][1],
        best_system=system,
        best_partition=part,
        proven_optimal=proven,
        merges_performed=engine.merges,
        trace=trace,
        interrupted=interrupted,
    )
