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
clique sizes: lower_bound = sum over colours of max(1, |clique|).
Children whose bound reaches the incumbent size are pruned.

Two implementations live here.  The value-level operations
(``make_root``, ``enumerate_children``, ``forced_child``,
``child_node``) build fresh immutable nodes and exist for inspection
and testing.  ``solve`` runs the same tree on mutable state: rollback
union-find for parts and glue slots (every parent write is logged and
undone on backtrack), a doubly linked list of live parts in canonical
order, and per-colour clique sets.  Equal seeds give equal runs.

Incumbents cost about one pass over the grid, not a rebuild.  The slot
union-find already is the MGTA of the current partition, so the glue
assignment is read off it: live anchors in list order are the parts in
canonical order, and the roots of their N, E, S, W slots, numbered by
first occurrence, are exactly the class ids ``build_mgta`` would give.
The assignment still goes through ``extract_tas``, with its
constructibility and colour checks, and the resulting tile system
through ``verify_solution`` before it is adopted.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass

from .atam import verify_solution
from .mgta import E, N, S, W, build_mgta, constructibility, extract_tas, merge_tiles
from .mgta import GlueAssignment
from .partition import Partition, canonical_signature, initial_partition, partition_from_labels
from .pattern import ColorGrid
from .rng import SplitMix64
from .tiles import TileSystem

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


class SharedIncumbent:
    """A monotone-decreasing size bound shared between portfolio runs.

    Runs offer every incumbent size they find and read the cell when
    pruning; reads may be stale, which only weakens pruning, never
    correctness.
    """

    def __init__(self):
        self._value = 1 << 62
        self._lock = threading.Lock()

    @property
    def value(self) -> int:
        return self._value

    def offer(self, size: int) -> None:
        with self._lock:
            if size < self._value:
                self._value = size


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
# value-level search nodes


@dataclass(frozen=True)
class ConstraintGraphs:
    """Per-colour forbidden-pair graphs in clique-plus-isolated form: the
    edge set is exactly all pairs within ``clique[colour]``."""

    clique: tuple[frozenset[int], ...]
    isolated: tuple[frozenset[int], ...]


@dataclass(frozen=True)
class SearchNode:
    grid: ColorGrid
    partition: Partition
    glues: GlueAssignment
    graphs: ConstraintGraphs
    bound: int


@dataclass(frozen=True)
class ChildMove:
    """One edge of the search tree: merge parts p1 and p2 (ids in the parent
    partition).  ``cliques_before`` is the clique state of every colour at
    the moment this child was enumerated; the child's own graphs are the
    image of that state under the merge."""

    p1: int
    p2: int
    color: int
    cliques_before: tuple[frozenset[int], ...]


def lower_bound(graphs: ConstraintGraphs) -> int:
    """Sum over colours of the chromatic number of the forbidden graph,
    which in clique-plus-isolated form is max(1, clique size)."""
    return sum(max(1, len(c)) for c in graphs.clique)


def _part_colors(grid: ColorGrid, p: Partition) -> list[int]:
    out = [-1] * p.num_parts
    for i, lab in enumerate(p.labels):
        if out[lab] < 0:
            out[lab] = grid.cells[i]
    return out


def make_root(grid: ColorGrid) -> SearchNode:
    p = initial_partition(grid.m, grid.n)
    cliques = tuple(frozenset() for _ in range(grid.k))
    iso = [set() for _ in range(grid.k)]
    for cell, colour in enumerate(grid.cells):
        iso[colour].add(cell)
    graphs = ConstraintGraphs(cliques, tuple(frozenset(s) for s in iso))
    return SearchNode(grid, p, build_mgta(p), graphs, lower_bound(graphs))


def check_special_form(node: SearchNode) -> bool:
    """The structural invariant of node graphs: per colour, clique and
    isolated sets are disjoint and together cover exactly that colour's
    parts."""
    colors = _part_colors(node.grid, node.partition)
    for col in range(node.grid.k):
        want = {p for p, c in enumerate(colors) if c == col}
        cl, iso = node.graphs.clique[col], node.graphs.isolated[col]
        if cl & iso or (cl | iso) != want:
            return False
    return True


def enumerate_children(node: SearchNode, rng: SplitMix64) -> list[ChildMove]:
    """Ordered child list of a constructible node.

    Takes isolated vertices in canonical order (one pick in _DEVIATION is
    random instead), emits each one's pairs against the current clique of
    its colour in shuffled order, then moves it into the clique, until
    every graph is a complete clique.  A node with t_k not-yet-excluded
    vertices of colour k yields exactly sum_k C(t_k, 2) children minus
    the already forbidden pairs.
    """
    if not constructibility(node.glues).is_constructible:
        raise ValueError("only constructible nodes have enumerated children")
    colors = _part_colors(node.grid, node.partition)
    cliques = [set(c) for c in node.graphs.clique]
    todo = sorted(v for s in node.graphs.isolated for v in s)
    moves: list[ChildMove] = []
    i = 0
    while i < len(todo):
        if len(todo) - i > 1 and rng.randrange(_DEVIATION) == 0:
            j = i + rng.randrange(len(todo) - i)
            todo[i], todo[j] = todo[j], todo[i]
        v = todo[i]
        i += 1
        col = colors[v]
        members = sorted(cliques[col])
        if len(members) > 1:
            rng.shuffle(members)
        snapshot = tuple(frozenset(c) for c in cliques)
        for u in members:
            moves.append(ChildMove(p1=v, p2=u, color=col, cliques_before=snapshot))
        cliques[col].add(v)
    return moves


def forced_child(node: SearchNode) -> ChildMove | None:
    """The single child of a conflicted node, or None when the branch dies:
    the conflicting pair crosses colours, or was already excluded (both
    ends in the clique)."""
    verdict = constructibility(node.glues)
    if verdict.is_constructible:
        raise ValueError("only conflicted nodes have a forced child")
    p1, p2 = verdict.conflict
    colors = _part_colors(node.grid, node.partition)
    if colors[p1] != colors[p2]:
        return None
    col = colors[p1]
    if p1 in node.graphs.clique[col] and p2 in node.graphs.clique[col]:
        return None
    return ChildMove(p1=p1, p2=p2, color=col, cliques_before=node.graphs.clique)


def child_node(node: SearchNode, move: ChildMove) -> SearchNode:
    """Apply a move: merge the parts, merge their glue classes, and map the
    recorded clique state through the merge.  The merged vertex inherits
    clique membership from either endpoint, so the special form survives."""
    glues = merge_tiles(node.glues, move.p1, move.p2)
    newp = glues.partition
    idmap: dict[int, int] = {}
    for old, new in zip(node.partition.labels, newp.labels):
        idmap[old] = new
    k = node.grid.k
    cliques = tuple(
        frozenset(idmap[x] for x in move.cliques_before[col]) for col in range(k)
    )
    colors = _part_colors(node.grid, newp)
    iso = tuple(
        frozenset(p for p in range(newp.num_parts) if colors[p] == col)
        - cliques[col]
        for col in range(k)
    )
    graphs = ConstraintGraphs(cliques, iso)
    return SearchNode(node.grid, newp, glues, graphs, lower_bound(graphs))


# ---------------------------------------------------------------------------
# the engine


class _Cutoff(Exception):
    pass


class _Engine:
    """Mutable search state with exact rollback.

    Parts are identified by their anchor, the smallest cell they contain;
    anchors are stable across merges (the smaller survives) and the live
    anchors sit in a doubly linked list in canonical order, so scans see
    parts in first-occurrence order without sorting.  Glue classes live
    in a union-find over the 4*m*n per-cell side slots; the adjacency
    identifications are installed once at startup and part merges add
    four slot unions each.  Every parent-pointer and size write, path
    compression included, is pushed on a trail, and undoing a merge pops
    the trails back to their recorded marks.
    """

    def __init__(self, grid, cfg, progress, on_incumbent, observer, shared,
                 use_bound, use_graph_pruning):
        self.grid = grid
        self.m, self.n, self.k = grid.m, grid.n, grid.k
        mn = self.mn = self.m * self.n
        self.colors = list(grid.cells)
        self.cutoff = (1 << 62) if cfg.cutoff_merges is None else cfg.cutoff_merges
        self.report_every = cfg.report_every
        self.progress = progress
        self.on_incumbent = on_incumbent
        self.observer = observer
        self.shared = shared
        self.use_bound = use_bound
        self.use_graph_pruning = use_graph_pruning
        self.rng = SplitMix64(cfg.rng_seed)

        # glue slot union-find (slot = 4*cell + side) with write trails
        self.sparent = list(range(4 * mn))
        self.ssize = [1] * (4 * mn)
        self.sti: list[int] = []
        self.stv: list[int] = []
        self.ssi: list[int] = []
        self.ssv: list[int] = []
        # part union-find over cells, same scheme
        self.pparent = list(range(mn))
        self.psize = [1] * mn
        self.pti: list[int] = []
        self.ptv: list[int] = []
        self.psi: list[int] = []
        self.psv: list[int] = []
        self.anchor_of = list(range(mn))  # per part root; only roots are valid

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
                self._sunion(4 * c + E, 4 * (c + 1) + W)
            if y < self.n:
                self._sunion(4 * c + N, 4 * (c + m) + S)

    # -- rollback union-find ------------------------------------------------

    def _sfind(self, s: int) -> int:
        p = self.sparent
        r = s
        while p[r] != r:
            r = p[r]
        ti, tv = self.sti, self.stv
        while p[s] != r:
            nx = p[s]
            ti.append(s)
            tv.append(nx)
            p[s] = r
            s = nx
        return r

    def _sunion(self, a: int, b: int) -> None:
        ra, rb = self._sfind(a), self._sfind(b)
        if ra == rb:
            return
        sz = self.ssize
        if sz[ra] < sz[rb]:
            ra, rb = rb, ra
        self.sti.append(rb)
        self.stv.append(rb)
        self.sparent[rb] = ra
        self.ssi.append(ra)
        self.ssv.append(sz[ra])
        sz[ra] += sz[rb]

    def _pfind(self, c: int) -> int:
        p = self.pparent
        r = c
        while p[r] != r:
            r = p[r]
        ti, tv = self.pti, self.ptv
        while p[c] != r:
            nx = p[c]
            ti.append(c)
            tv.append(nx)
            p[c] = r
            c = nx
        return r

    # -- merge and undo -----------------------------------------------------

    def _apply_merge(self, lo: int, hi: int, col: int):
        """Unite the parts anchored at lo < hi (same colour col).  Returns an
        opaque record for _undo_merge."""
        marks = (len(self.sti), len(self.ssi), len(self.pti), len(self.psi))
        ra, rb = self._pfind(lo), self._pfind(hi)
        sz = self.psize
        if sz[ra] < sz[rb]:
            ra, rb = rb, ra
        self.pti.append(rb)
        self.ptv.append(rb)
        self.pparent[rb] = ra
        self.psi.append(ra)
        self.psv.append(sz[ra])
        sz[ra] += sz[rb]
        old_anchor = self.anchor_of[ra]
        self.anchor_of[ra] = lo

        for d in (N, E, S, W):
            self._sunion(4 * lo + d, 4 * hi + d)

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
        return (marks, ra, old_anchor, lo, hi, col, removed_hi, added_lo)

    def _undo_merge(self, rec) -> None:
        marks, ra, old_anchor, lo, hi, col, removed_hi, added_lo = rec
        cl = self.clique[col]
        if added_lo:
            cl.remove(lo)
        if removed_hi:
            cl.add(hi)
        self.num_parts += 1
        nxt, prv = self.nxt, self.prv
        nxt[prv[hi]] = hi
        prv[nxt[hi]] = hi
        self.anchor_of[ra] = old_anchor
        smark_t, smark_s, pmark_t, pmark_s = marks
        sti, stv, sp = self.sti, self.stv, self.sparent
        while len(sti) > smark_t:
            sp[sti.pop()] = stv.pop()
        ssi, ssv, ss = self.ssi, self.ssv, self.ssize
        while len(ssi) > smark_s:
            ss[ssi.pop()] = ssv.pop()
        pti, ptv, pp = self.pti, self.ptv, self.pparent
        while len(pti) > pmark_t:
            pp[pti.pop()] = ptv.pop()
        psi, psv, ps = self.psi, self.psv, self.psize
        while len(psi) > pmark_s:
            ps[psi.pop()] = psv.pop()

    # -- determinism scan ---------------------------------------------------

    def _find_conflict(self):
        """First pair of live parts (canonical order) sharing both S and W
        glue classes, or None.  Inlined slot finds keep this hot path flat."""
        nxt = self.nxt
        sp = self.sparent
        sti, stv = self.sti, self.stv
        mn = self.mn
        stride = 4 * mn
        seen: dict[int, int] = {}
        a = nxt[mn]
        while a != mn:
            s = 4 * a + 2  # south slot
            r = s
            while sp[r] != r:
                r = sp[r]
            while sp[s] != r:
                nx = sp[s]
                sti.append(s)
                stv.append(nx)
                sp[s] = r
                s = nx
            south = r
            w = 4 * a + 3  # west slot
            r = w
            while sp[r] != r:
                r = sp[r]
            while sp[w] != r:
                nx = sp[w]
                sti.append(w)
                stv.append(nx)
                sp[w] = r
                w = nx
            key = south * stride + r
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

    def _snapshot_partition(self) -> Partition:
        anchor_of, pfind = self.anchor_of, self._pfind
        return partition_from_labels(
            self.m, self.n, [anchor_of[pfind(c)] for c in range(self.mn)]
        )

    def _observe(self, constructible: bool) -> None:
        part = self._snapshot_partition()
        self.observer(
            NodeInfo(
                signature=canonical_signature(part),
                part_anchors=tuple(
                    self.anchor_of[self._pfind(c)] for c in range(self.mn)
                ),
                cliques=tuple(frozenset(s) for s in self.clique),
                num_parts=self.num_parts,
                bound=self.bound,
                constructible=constructible,
                merges=self.merges,
            )
        )

    def _glue_assignment(self, part: Partition) -> GlueAssignment:
        """The MGTA of the current partition, read off the slot union-find.

        The union-find already holds the MGTA's classes: adjacency links
        are installed at startup and every merge unites its parts' four
        slots.  Part ids of ``part`` follow canonical order, which is the
        order of the live anchor list, so numbering the slot roots of each
        live anchor's N, E, S, W sides by first occurrence gives exactly
        the ids ``build_mgta(part)`` gives.  Finds here walk to the root
        without compressing, so they leave the trail alone."""
        sp = self.sparent
        ids: dict[int, int] = {}
        quads = []
        nxt, mn = self.nxt, self.mn
        a = nxt[mn]
        while a != mn:
            quad = []
            for r in range(4 * a, 4 * a + 4):
                while sp[r] != r:
                    r = sp[r]
                quad.append(ids.setdefault(r, len(ids)))
            quads.append(tuple(quad))
            a = nxt[a]
        return GlueAssignment(part, tuple(quads), len(ids))

    def _adopt_incumbent(self) -> None:
        part = self._snapshot_partition()
        assert part.num_parts == self.num_parts
        system = extract_tas(self._glue_assignment(part), self.grid)
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
        if self.shared is not None:
            self.shared.offer(self.best)
        if self.on_incumbent is not None:
            self.on_incumbent(self.merges, self.best, system, part)
        if self.progress is not None:
            self.progress(self.merges, self.best)

    # -- the tree -----------------------------------------------------------

    def _visit(self) -> None:
        """Process the node the state currently sits on: resolve forced
        merges, then either abandon the branch or expand children.  Undo
        runs in a finally so that a cutoff unwinds through consistent
        state at every level."""
        chain = []
        try:
            dead = False
            while True:
                conflict = self._find_conflict()
                if self.observer is not None:
                    self._observe(conflict is None)
                if conflict is None:
                    break
                p1, p2 = conflict
                col = self.colors[p1]
                if self.colors[p2] != col:
                    dead = True  # merging across colours can never respect the pattern
                    break
                if (
                    self.use_graph_pruning
                    and p1 in self.clique[col]
                    and p2 in self.clique[col]
                ):
                    dead = True  # pair already excluded on another branch
                    break
                if self.merges >= self.cutoff:
                    raise _Cutoff
                chain.append(self._apply_merge(p1, p2, col))
                self._tick()
            if not dead:
                self._expand()
        finally:
            for rec in reversed(chain):
                self._undo_merge(rec)

    def _expand(self) -> None:
        if self.num_parts < self.best:
            self._adopt_incumbent()
        if not self.use_graph_pruning:
            self._expand_unpruned()
            return
        limit = self.best if self.shared is None else min(self.best, self.shared.value)
        if self.use_bound and self.bound >= limit:
            return

        nxt, colors, clique = self.nxt, self.colors, self.clique
        # isolated vertices in canonical anchor order; the scan order of the
        # live list is exactly that order
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
        try:
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
                    limit = (
                        self.best
                        if self.shared is None
                        else min(self.best, self.shared.value)
                    )
                    if self.use_bound and self.bound >= limit:
                        stop = True
                        break
                    if self.merges >= self.cutoff:
                        raise _Cutoff
                    lo, hi = (v, u) if v < u else (u, v)
                    rec = self._apply_merge(lo, hi, col)
                    self._tick()
                    try:
                        self._visit()
                    finally:
                        self._undo_merge(rec)
                if not stop:
                    cl.add(v)
                    joins.append((col, v))
                    if len(cl) >= 2:
                        self.bound += 1
        finally:
            for col, v in reversed(joins):
                cl = self.clique[col]
                cl.remove(v)
                if len(cl) >= 1:
                    self.bound -= 1

    def _expand_unpruned(self) -> None:
        """Child enumeration with the graphs disabled: every same-colour
        pair, no exclusions, no bound.  Exists to test that pruning never
        changes the optimum; exponentially slower, tiny grids only."""
        alive: list[int] = []
        a = self.nxt[self.mn]
        while a != self.mn:
            alive.append(a)
            a = self.nxt[a]
        pairs = [
            (alive[i], alive[j], self.colors[alive[i]])
            for i in range(len(alive))
            for j in range(i + 1, len(alive))
            if self.colors[alive[i]] == self.colors[alive[j]]
        ]
        self.rng.shuffle(pairs)
        for lo, hi, col in pairs:
            if self.merges >= self.cutoff:
                raise _Cutoff
            rec = self._apply_merge(lo, hi, col)
            self._tick()
            try:
                self._visit()
            finally:
                self._undo_merge(rec)


def solve(
    grid: ColorGrid,
    cfg: SolveConfig,
    *,
    progress=None,
    on_incumbent=None,
    observer=None,
    shared_incumbent: SharedIncumbent | None = None,
    use_bound: bool = True,
    use_graph_pruning: bool = True,
) -> SolveResult:
    """Find a minimum (or best-within-cutoff) tile set for a grid.

    The first incumbent is always the discrete partition, size m*n, so a
    result exists even at cutoff 0.  Every incumbent is verified against
    the grid by simulation before it is adopted.  ``progress`` is called
    as (merges, best) on every improvement and every
    ``cfg.report_every`` merges; ``on_incumbent`` as (merges, size,
    system, partition) on improvements; ``observer`` with a NodeInfo at
    every visited node (slow, meant for audits).  ``use_bound`` and
    ``use_graph_pruning`` exist for testing; disabling the graphs also
    disables the bound, which is defined on them.
    """
    engine = _Engine(
        grid,
        cfg,
        progress,
        on_incumbent,
        observer,
        shared_incumbent,
        use_bound,
        use_graph_pruning,
    )
    needed = 3 * engine.mn + 200
    saved_limit = sys.getrecursionlimit()
    if saved_limit < needed:
        sys.setrecursionlimit(needed)
    proven = True
    try:
        engine._visit()
    except _Cutoff:
        proven = False
    finally:
        sys.setrecursionlimit(saved_limit)
    assert engine.best_system is not None and engine.best_partition is not None
    return SolveResult(
        best_size=engine.best,
        best_system=engine.best_system,
        best_partition=engine.best_partition,
        proven_optimal=proven,
        merges_performed=engine.merges,
        trace=tuple(engine.trace),
    )
