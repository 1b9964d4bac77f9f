"""Undoable index of the live parts' (S-root, W-root) keys.

A node is constructible when no two live parts share both their S and
their W glue class, that is, when every part's key (the union-find roots
of its anchor's S and W slots) is distinct.  The index holds, for the
node it was last synced at:

* ``owner``: key -> the anchor holding it;
* ``south`` and ``west``: each anchor's S and W slot root, flat per cell;
* ``by_root``: slot root -> the anchors whose S or W root it is.

Roots change only by linking.  So after merges below the indexed node,
the parts whose key may have moved are exactly the anchors indexed under
a root that was linked; every other live part keeps its key, and those
keys are still distinct.  ``probe`` uses that to find the first conflict
of a child of the indexed node from the few parts the child's merge
would touch, without applying the merge: it works out which roots the
merge would link in a small dict of its own.  ``sync`` moves the index
down to a constructible descendant in place, finding the linked roots on
the engine's trail since the index's mark, and ``revert`` moves it back
up once the engine's trail is back at the old mark, recomputing the old
roots by ``find`` rather than logging every write.
"""

from __future__ import annotations

from .mgta import E, N, S, W


class KeyIndex:
    def __init__(self, parent: list[int], trail: list[int], nxt: list[int], mn: int):
        """Index the live parts of the engine state these lists describe
        (union-find parents, trail of linked roots, live-anchor list with
        sentinel ``mn``), which must be constructible."""
        self.parent, self.trail = parent, trail
        self.stride = 4 * mn
        self.owner: dict[int, int] = {}
        self.south = [0] * mn
        self.west = [0] * mn
        self.by_root: dict[int, set[int]] = {}
        self.mark = len(trail)
        self.undo: list[tuple[int, set[int], list[int]]] = []
        a = nxt[mn]
        while a != mn:
            self._add(a)
            a = nxt[a]

    def _add(self, a: int) -> None:
        p = self.parent
        s = 4 * a + S
        while p[s] != s:
            s = p[s]
        w = 4 * a + W
        while p[w] != w:
            w = p[w]
        self.south[a] = s
        self.west[a] = w
        self.owner[s * self.stride + w] = a
        by_root = self.by_root
        by_root.setdefault(s, set()).add(a)
        by_root.setdefault(w, set()).add(a)

    def _drop(self, a: int) -> None:
        s, w = self.south[a], self.west[a]
        del self.owner[s * self.stride + w]
        self.by_root[s].discard(a)
        self.by_root[w].discard(a)

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
        p, south, west = self.parent, self.south, self.west
        n0 = 4 * lo + N
        while p[n0] != n0:
            n0 = p[n0]
        n1 = 4 * hi + N
        while p[n1] != n1:
            n1 = p[n1]
        e0 = 4 * lo + E
        while p[e0] != e0:
            e0 = p[e0]
        e1 = 4 * hi + E
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

    def sync(self, path) -> None:
        """Move the index down to the current state, which must be
        constructible.  ``path`` is the engine's list of merge records
        (trail mark first, merged-away anchor third) from the root; the
        records taken since the index's mark name the parts that are gone."""
        mark = self.mark
        gone = []
        for rec in reversed(path):
            if rec[0] < mark:
                break
            gone.append(rec[2])
        # the anchors indexed under a root linked since the mark (part
        # nodes on the trail are never index roots)
        by_root = self.by_root
        touched: set[int] = set()
        for r in self.trail[mark:]:
            t = by_root.get(r)
            if t:
                touched |= t
        for a in gone:
            self._drop(a)
            touched.discard(a)
        for a in touched:
            self._drop(a)
        for a in touched:
            self._add(a)
        self.undo.append((mark, touched, gone))
        self.mark = len(self.trail)

    def rewound(self, mark: int) -> None:
        """The engine's trail was just cut back to ``mark``: revert the last
        sync if it started there."""
        if self.undo and self.undo[-1][0] == mark:
            self.revert()

    def revert(self) -> None:
        """Undo the last sync; the engine's trail must be back at the mark
        that sync started from."""
        mark, touched, gone = self.undo.pop()
        for a in touched:
            self._drop(a)
        for a in touched:
            self._add(a)
        for a in gone:
            self._add(a)
        self.mark = mark
