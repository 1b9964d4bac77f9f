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
per-colour clique sets.  The path from the root is an explicit stack of
per-node child generators, so no recursion limit applies and ``solve``
changes no process state.  Equal seeds give equal runs.

Adopting an incumbent is one pass over the cells and rebuilds nothing.
The slot nodes of the union-find already are the MGTA of the current
partition, so the pass labels each cell by first occurrence of its part
root (canonical part order) and, at each part's first cell, numbers the
roots of its N, E, S, W slots by first occurrence; that gives the
``Partition`` and exactly the class ids ``build_mgta`` would give.  The
assignment still goes through ``extract_tas``, with its constructibility
and colour checks, and the resulting tile system through
``verify_solution`` before it is adopted.
"""

from __future__ import annotations

from dataclasses import dataclass

from .atam import verify_solution
from .mgta import E, N, S, W, GlueAssignment, extract_tas
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
    link pushes the linked root on one trail, and undoing a merge pops the
    trail back to its mark, unlinking each root from its parent.
    """

    def __init__(self, grid, cfg, progress, on_incumbent, observer, use_bound):
        self.grid = grid
        self.m, self.n, self.k = grid.m, grid.n, grid.k
        mn = self.mn = self.m * self.n
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

        self.clique: list[set[int]] = [set() for _ in range(self.k)]
        self.bound = self.k

        self.merges = 0
        self.best = mn + 1
        self.best_system: TileSystem | None = None
        self.best_partition: Partition | None = None
        self.trace: list[tuple[int, int]] = []

        # adjacency identifications are permanent: installed before any
        # rollback mark is taken, so no undo ever reaches them
        m = self.m
        for c in range(mn):
            x = c % m + 1
            y = c // m + 1
            if x < m:
                self._union(4 * c + E, 4 * (c + 1) + W)
            if y < self.n:
                self._union(4 * c + N, 4 * (c + m) + S)

    # -- rollback union-find ------------------------------------------------

    def _union(self, a: int, b: int) -> None:
        p = self.parent
        while p[a] != a:
            a = p[a]
        while p[b] != b:
            b = p[b]
        if a == b:
            return
        sz = self.size
        if sz[a] < sz[b]:
            a, b = b, a
        p[b] = a
        sz[a] += sz[b]
        self.trail.append(b)

    # -- merge and undo -----------------------------------------------------

    def _apply_merge(self, lo: int, hi: int, col: int):
        """Unite the parts anchored at lo < hi (same colour col).  Returns an
        opaque record for _undo_merge."""
        mark = len(self.trail)
        self._union(self.pbase + lo, self.pbase + hi)
        for d in range(4):
            self._union(4 * lo + d, 4 * hi + d)

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
        cell of a part is its anchor and supplies its slot roots."""
        p, pbase = self.parent, self.pbase
        part_ids: dict[int, int] = {}
        glue_ids: dict[int, int] = {}
        labels = []
        quads = []
        for c in range(self.mn):
            r = pbase + c
            while p[r] != r:
                r = p[r]
            lab = part_ids.get(r)
            if lab is None:
                lab = part_ids[r] = len(part_ids)
                quad = []
                for s in range(4 * c, 4 * c + 4):
                    while p[s] != s:
                        s = p[s]
                    quad.append(glue_ids.setdefault(s, len(glue_ids)))
                quads.append(tuple(quad))
            labels.append(lab)
        part = Partition(self.m, self.n, tuple(labels))
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
        self.best_partition = part
        self.trace.append((self.merges, self.best))
        if self.on_incumbent is not None:
            self.on_incumbent(self.merges, self.best, system, part)
        if self.progress is not None:
            self.progress(self.merges, self.best)

    # -- the tree -----------------------------------------------------------

    def _run(self) -> bool:
        """Walk the tree below the current state depth first.  Returns True
        when the tree is exhausted, False when the cutoff stopped it.

        ``stack`` holds one child generator per node on the current path
        and ``merged`` the merge records of the path's edges.  A cutoff
        abandons both with the state mid-tree: the engine is not used
        after it."""
        stack = [self._node()]
        merged = []
        while stack:
            move = next(stack[-1], None)
            if move is None:
                stack.pop()
                if merged:
                    self._undo_merge(merged.pop())
                continue
            if self.merges >= self.cutoff:
                return False
            merged.append(self._apply_merge(*move))
            self._tick()
            stack.append(self._node())
        return True

    def _pruned(self) -> bool:
        return self.use_bound and self.bound >= self.best

    def _node(self):
        """Yield the children of the node the state sits on, as merges
        (lo, hi, colour); the state is back at this node whenever a child
        is asked for.

        A conflicted node has one child, the merge of its conflicting
        pair, or none when the pair crosses colours or was already
        excluded.  A constructible node may become the incumbent and then
        yields its children in clique order, undoing its clique joins
        after the last one."""
        conflict = self._find_conflict()
        if self.observer is not None:
            self._observe(conflict is None)
        colors, clique = self.colors, self.clique
        if conflict is not None:
            p1, p2 = conflict
            col = colors[p1]
            if colors[p2] != col:
                return  # merging across colours can never respect the pattern
            if p1 in clique[col] and p2 in clique[col]:
                return  # pair already excluded on another branch
            yield p1, p2, col
            return

        if self.num_parts < self.best:
            self._adopt_incumbent()
        if self._pruned():
            return

        # isolated vertices in canonical anchor order; the scan order of the
        # live list is exactly that order
        nxt = self.nxt
        todo: list[int] = []
        a = nxt[self.mn]
        while a != self.mn:
            if a not in clique[colors[a]]:
                todo.append(a)
            a = nxt[a]

        # Each vertex is paired against the clique of its colour, then joins
        # it.  Taking vertices in assembly order makes the first descent
        # sweep the grid the way the seed grows it, which on structured
        # patterns keeps the forced-merge cascades productive.  One pick in
        # _DEVIATION departs from that order; together with the member
        # shuffle below this is the randomization between same-config runs.
        joins: list[tuple[int, int]] = []
        stop = False
        i = 0
        while i < len(todo) and not stop:
            if len(todo) - i > 1 and self.rng.randrange(_DEVIATION) == 0:
                j = i + self.rng.randrange(len(todo) - i)
                todo[i], todo[j] = todo[j], todo[i]
            v = todo[i]
            i += 1
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
    assert engine.best_system is not None and engine.best_partition is not None
    return SolveResult(
        best_size=engine.best,
        best_system=engine.best_system,
        best_partition=engine.best_partition,
        proven_optimal=proven,
        merges_performed=engine.merges,
        trace=tuple(engine.trace),
    )
