"""Undoable index of the live parts' (S-root, W-root) keys.

A node is constructible when no two live parts share both their S and
their W glue class, that is, when every part's key (the union-find roots
of its anchor's S and W edge nodes) is distinct.  The index holds, for
the node it was last synced at:

* ``owner``: key -> the anchor holding it;
* ``south`` and ``west``: each anchor's S and W edge root, flat per cell;
* ``by_root``: edge root -> the anchors whose S or W root it is.

Roots change only by linking.  So after merges below the indexed node,
the parts whose key may have moved are exactly the anchors indexed under
a root that was linked; every other live part keeps its key, and those
keys are still distinct.  ``probe`` uses that to find the first conflict
of a child of the indexed node from the few parts the child's merge
would touch, without applying the merge: it works out which roots the
merge would link in a small dict of its own.  ``sync`` moves the index
down to a constructible descendant in place, reading the merges since
the indexed node off the engine's path past the index's depth: their
records name the gone parts, and the first one's trail mark starts the
roots linked since.  It returns the old roots of the anchors it
rekeyed.  ``restore`` moves the index back up from those saved roots,
so it needs no ``find`` and can run while the engine still sits at the
descendant, as the node that synced ends.

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
        self.parent, self.trail, self.path = engine.parent, engine.trail, engine.path
        self.m, self.wbase, self.east = engine.grid.m, engine.wbase, engine.east
        self.stride = len(engine.parent)
        nxt, mn = engine.nxt, engine.mn
        self.owner: dict[int, int] = {}
        self.south = [0] * mn
        self.west = [0] * mn
        self.by_root: dict[int, set[int]] = {}
        self.depth = len(self.path)
        live = []
        a = nxt[mn]
        while a != mn:
            live.append(a)
            a = nxt[a]
        self._index(live)

    def _index(self, anchors) -> None:
        """Find the S and W edge roots of each of ``anchors`` and index the
        anchor under them."""
        p, south, west, wb = self.parent, self.south, self.west, self.wbase
        owner, by_root, stride = self.owner, self.by_root, self.stride
        for a in anchors:
            s = a
            while p[s] != s:
                s = p[s]
            w = wb + a
            while p[w] != w:
                w = p[w]
            south[a] = s
            west[a] = w
            owner[s * stride + w] = a
            by_root.setdefault(s, set()).add(a)
            by_root.setdefault(w, set()).add(a)

    def probe(self, lo: int, hi: int):
        """The first conflict (canonical order) of the state that merging
        the parts anchored at ``lo < hi`` would make from the indexed node,
        or None when that state is constructible.  Nothing is applied.

        The merge unites the two parts' N, E, S and W slot classes.  The
        roots those unions would link are redirected to the roots they
        would join, in a small dict; only the anchors indexed under a
        redirected root change key, and ``hi`` is gone.  The full scan
        returns, among the key groups of two or more live parts, the group
        whose second-smallest anchor is least, paired with that group's
        smallest anchor.  Only groups holding a touched part can have two
        members: the touched parts of one new key plus the untouched part
        that holds it in ``owner`` (a new key is made of unredirected
        roots, so its owner is never touched).  The touched anchors are
        walked in ascending order, so a group's first walked member is its
        smallest touched one, and the walk stops once an anchor reaches
        the second member of the best group found so far."""
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
        red: dict[int, int] = {}
        for x, y in ((n0, n1), (e0, e1), (south[lo], south[hi]), (west[lo], west[hi])):
            while x in red:
                x = red[x]
            while y in red:
                y = red[y]
            if x != y:
                red[y] = x
        by_root = self.by_root
        touched: set[int] = set()
        for r in red:
            t = by_root.get(r)
            if t:
                touched |= t
        touched.discard(hi)
        owner, stride = self.owner, self.stride
        seen: dict[int, int] = {}
        best = None
        bound = stride  # past every anchor
        for a in sorted(touched):
            if a >= bound:
                break
            s = south[a]
            while s in red:
                s = red[s]
            w = west[a]
            while w in red:
                w = red[w]
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
        first one's mark (its first field) on are the ones linked since."""
        depth = self.depth
        since = self.path[depth:]
        gone = [rec[2] for rec in since]
        # the anchors indexed under a root linked since the indexed node
        by_root = self.by_root
        touched: set[int] = set()
        for r in self.trail[since[0][0]:]:
            t = by_root.get(r)
            if t:
                touched |= t
        owner, stride = self.owner, self.stride
        south, west = self.south, self.west
        for a in gone:
            s, w = south[a], west[a]
            del owner[s * stride + w]
            by_root[s].discard(a)
            by_root[w].discard(a)
            touched.discard(a)
        saved = [(a, south[a], west[a]) for a in touched]
        for a, s, w in saved:
            del owner[s * stride + w]
            by_root[s].discard(a)
            by_root[w].discard(a)
        self._index(touched)
        self.depth = len(self.path)
        return depth, saved, gone

    def restore(self, token) -> None:
        """Undo the sync that returned ``token``, with the engine's trail
        back at the node that sync moved the index to.  The saved roots
        are put back as they were, so nothing is found again; a gone part
        was never rekeyed, so its ``south`` and ``west`` still hold its
        roots."""
        depth, saved, gone = token
        owner, by_root, stride = self.owner, self.by_root, self.stride
        south, west = self.south, self.west
        for a, _, _ in saved:
            s, w = south[a], west[a]
            del owner[s * stride + w]
            by_root[s].discard(a)
            by_root[w].discard(a)
        for a, s, w in saved:
            south[a] = s
            west[a] = w
            owner[s * stride + w] = a
            by_root[s].add(a)
            by_root[w].add(a)
        for a in gone:
            s, w = south[a], west[a]
            owner[s * stride + w] = a
            by_root[s].add(a)
            by_root[w].add(a)
        self.depth = depth
