"""Undoable index of the live parts' (S-root, W-root) keys.

A node is constructible when no two live parts share both their S and
their W glue class, that is, when every part's key (the union-find roots
of its anchor's S and W edge nodes) is distinct.  The index holds, for
the node it was last synced at:

* ``owner``: key -> the anchor holding it;
* ``south`` and ``west``: each anchor's S and W edge root, flat per cell;
* ``by_root``: a list with one bucket per edge node, the set of anchors
  whose S or W root that node is (empty for a node that is no root).

Edge nodes are of two kinds that never unite: N and S nodes (horizontal
edges) and E and W nodes (vertical ones).  Roots change only by linking.
So after merges below the indexed node, the parts whose key may have
moved are exactly the anchors in the bucket of a root that was linked;
every other live part keeps its key, and those keys are still distinct.
``probe`` uses that to find the first conflict of a child of the
indexed node from the few parts the child's merge would touch, without
applying the merge: it maps each root the merge would link straight to
the root its class would end at.  A merge links at most two roots of
each node kind, so the map is at most two (moved root, final root) pairs
per kind, held in locals and read by integer comparisons.  The probes
of one vertex against its clique mostly move the same roots, so ``memo``
keeps the sorted anchors of each set of moved roots' buckets until
``sync`` or ``restore`` next moves the index.  ``sync`` moves it down to
a constructible descendant in place, reading the merges since the
indexed node off the engine's path past the index's depth: their
records name the gone parts, and the first one's trail mark starts the
roots linked since.  It rekeys each anchor in the buckets of those roots
and returns their old roots.  ``restore`` moves the index back up from
those saved roots, so it needs no ``find`` and can run while the engine
still sits at the descendant, as the node that synced ends.

The indexed node is named by its depth alone, as a merge can link
nothing but always adds a path record.
"""

from __future__ import annotations


class KeyIndex:
    def __init__(self, engine):
        """Index the live parts of ``engine``'s state, which must be
        constructible.  The index shares the engine's union-find parents,
        trail of linked roots, path of merge records and live-anchor list
        (sentinel ``mn``), and reads its edge-node layout from it."""
        p, wb, nxt, mn = engine.parent, engine.wbase, engine.nxt, engine.mn
        self.parent, self.trail, self.path = p, engine.trail, engine.path
        self.m, self.east = engine.grid.m, engine.east
        stride = self.stride = len(p)
        owner: dict[int, int] = {}
        south, west = [0] * mn, [0] * mn
        by_root: list[set[int]] = [set() for _ in range(stride)]
        self.owner, self.south, self.west, self.by_root = owner, south, west, by_root
        self.depth = len(self.path)
        self.memo: dict[tuple[int, int, int, int], list[int]] = {}
        a = nxt[mn]
        while a != mn:
            s = a
            while p[s] != s:
                s = p[s]
            w = wb + a
            while p[w] != w:
                w = p[w]
            south[a] = s
            west[a] = w
            owner[s * stride + w] = a
            by_root[s].add(a)
            by_root[w].add(a)
            a = nxt[a]

    def probe(self, lo: int, hi: int):
        """The first conflict (canonical order) of the state that merging
        the parts anchored at ``lo < hi`` would make from the indexed node,
        or None when that state is constructible.  Nothing is applied.

        The merge makes two links among N/S nodes (the parts' N classes,
        then their S classes) and two among E/W nodes.  Each link is one
        (moved root, final root) pair in locals, the moved root -1 where
        the link moves nothing; when the second link moves where the first
        one ended (hi's S root, after the first, is lo's N root), the first
        one's final root is re-pointed.  Only the anchors in a moved
        root's bucket change key, and ``hi`` is gone; each is rekeyed by
        comparing its S root with the N/S pairs' moved roots and its W
        root with the E/W pairs'.  The sorted touched anchors depend only
        on the four moved roots, so ``memo`` keeps them by those until
        ``sync`` or ``restore`` changes a bucket: at most one entry per
        probe of the indexed node's children, each no longer than the
        buckets it copies.
        The full scan returns, among the key groups of two or more live
        parts, the group whose second-smallest anchor is least, paired
        with that group's smallest anchor.  Only groups holding a touched
        part can have two members: the touched parts of one new key plus
        the untouched part that holds it in ``owner`` (a new key is made of
        unmapped roots, so its owner is never touched).  The touched anchors
        are walked once each in ascending order, so a group's first walked
        member is its smallest touched one, and the walk stops once an
        anchor reaches the second member of the best group found so far."""
        p, south, west, m, east = self.parent, self.south, self.west, self.m, self.east
        n0 = lo + m
        while p[n0] != n0:
            n0 = p[n0]
        n1 = hi + m
        while p[n1] != n1:
            n1 = p[n1]
        e0 = east[lo]
        while p[e0] != e0:
            e0 = p[e0]
        e1 = east[hi]
        while p[e1] != e1:
            e1 = p[e1]
        # Each kind takes at most two links: n1 -> n0, then hi's S root sy
        # -> lo's S root sx (both as the first link leaves them); likewise
        # e1 -> e0 and wy -> wx.  A link that moves nothing has moved root
        # -1, no anchor's root, so its bucket is not collected.
        if n1 == n0:
            n1 = -1
        sx = south[lo]
        if sx == n1:
            sx = n0
        sy = south[hi]
        if sy == n1:
            sy = n0
        if sy == sx:
            sy = -1
        elif sy == n0:
            n0 = sx  # n1's class ends where n0's moved
        if e1 == e0:
            e1 = -1
        wx = west[lo]
        if wx == e1:
            wx = e0
        wy = west[hi]
        if wy == e1:
            wy = e0
        if wy == wx:
            wy = -1
        elif wy == e0:
            e0 = wx
        moved = (n1, sy, e1, wy)
        touched = self.memo.get(moved)
        if touched is None:
            by_root = self.by_root
            touched = []  # an anchor in two buckets comes twice, side by side
            if n1 >= 0:
                touched += by_root[n1]
            if sy >= 0:
                touched += by_root[sy]
            if e1 >= 0:
                touched += by_root[e1]
            if wy >= 0:
                touched += by_root[wy]
            touched.sort()
            self.memo[moved] = touched
        owner, stride = self.owner, self.stride
        seen: dict[int, int] = {}
        best = None
        bound = stride  # past every anchor
        prev = -1
        for a in touched:
            if a >= bound:
                break
            if a == prev or a == hi:
                continue
            prev = a
            s = south[a]
            if s == n1:
                s = n0
            elif s == sy:
                s = sx
            w = west[a]
            if w == e1:
                w = e0
            elif w == wy:
                w = wx
            key = s * stride + w
            t = seen.get(key)
            if t is not None:
                return (t, a)  # the group's owner, if any, is above a
            b = owner.get(key)
            if b is not None and b != hi:
                if b < a:
                    return (b, a)
                if b < bound:
                    best, bound = (a, b), b
            seen[key] = a
        return best

    def sync(self) -> tuple[int, list[tuple[int, int, int]], list[int]]:
        """Move the index down to the current state, which must be
        constructible and strictly below the indexed node, and return the
        token ``restore`` takes to move it back.  The merge records on the
        engine's path past the index's depth name the parts that are gone
        (merged-away anchor third), and the roots on the trail from the
        first one's mark (its first field) on are the ones linked since.
        Each anchor in their buckets is rekeyed in place: its new roots
        are found from its old ones, and it moves only between the
        buckets of a root that changed.  A moved key holds a linked root
        and a new one none, so no key is ever taken before it is freed."""
        depth = self.depth
        self.memo.clear()
        since = self.path[depth:]
        gone = [rec[2] for rec in since]
        by_root = self.by_root
        touched: set[int] = set()
        for r in self.trail[since[0][0]:]:
            touched |= by_root[r]
        p, owner, stride = self.parent, self.owner, self.stride
        south, west = self.south, self.west
        for a in gone:
            s, w = south[a], west[a]
            del owner[s * stride + w]
            by_root[s].discard(a)
            by_root[w].discard(a)
        touched.difference_update(gone)
        saved = []
        for a in touched:
            s0 = s = south[a]
            while p[s] != s:
                s = p[s]
            w0 = w = west[a]
            while p[w] != w:
                w = p[w]
            saved.append((a, s0, w0))
            del owner[s0 * stride + w0]
            owner[s * stride + w] = a
            if s != s0:
                by_root[s0].discard(a)
                by_root[s].add(a)
                south[a] = s
            if w != w0:
                by_root[w0].discard(a)
                by_root[w].add(a)
                west[a] = w
        self.depth = len(self.path)
        return depth, saved, gone

    def restore(self, token) -> None:
        """Undo the sync that returned ``token``, with the engine's trail
        back at the node that sync moved the index to.  Each saved anchor
        gets its old roots back, moving only between the buckets of a
        root that changed, so nothing is found again; then the gone parts
        come back, whose ``south`` and ``west`` were never rekeyed."""
        depth, saved, gone = token
        self.memo.clear()
        owner, by_root, stride = self.owner, self.by_root, self.stride
        south, west = self.south, self.west
        for a, s, w in saved:
            s1, w1 = south[a], west[a]
            del owner[s1 * stride + w1]
            owner[s * stride + w] = a
            if s != s1:
                by_root[s1].discard(a)
                by_root[s].add(a)
                south[a] = s
            if w != w1:
                by_root[w1].discard(a)
                by_root[w].add(a)
                west[a] = w
        for a in gone:
            s, w = south[a], west[a]
            owner[s * stride + w] = a
            by_root[s].add(a)
            by_root[w].add(a)
        self.depth = depth
