"""Undoable index of the live parts' (S-root, W-root) keys.

A node is constructible when no two live parts share both their S and
their W glue class, that is, when every part's key (the union-find roots
of its anchor's S and W slots) is distinct.  The index holds, for the
node it was last synced at:

* ``owner``: key -> the anchor holding it;
* ``south`` and ``west``: each anchor's S and W slot root, flat per cell;
* ``by_root``: slot root -> the anchors whose S or W root it is.

Roots change only by linking, and every link is on the engine's trail.
So after merges below the indexed node, the parts whose key may have
moved are exactly the anchors indexed under a root linked on the trail
since the index's mark; every other live part keeps its key, and those
keys are still distinct.  ``conflict`` uses that to find a child's first
conflict from the few touched parts; ``sync`` moves the index down to a
constructible descendant in place and ``revert`` moves it back up once
the engine's trail is back at the old mark, recomputing the old roots by
``find`` rather than logging every write.
"""

from __future__ import annotations

from .mgta import S, W


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

    def _touched(self) -> set[int]:
        """Anchors indexed under a root linked since the mark (part nodes
        on the trail are never index roots)."""
        by_root = self.by_root
        touched: set[int] = set()
        for r in self.trail[self.mark:]:
            t = by_root.get(r)
            if t:
                touched |= t
        return touched

    def conflict(self, hi: int):
        """The first conflict (canonical order) of the state one merge
        below the indexed node, whose merge removed the part anchored at
        ``hi``; None when that state is constructible.

        The full scan returns, among the key groups of two or more live
        parts, the group whose second-smallest anchor is least, paired
        with that group's smallest anchor.  Only groups holding a touched
        part can have two members: such a group is the touched parts of
        one new key plus the untouched part that already held it."""
        touched = self._touched()
        touched.discard(hi)
        if not touched:
            return None
        p, stride = self.parent, self.stride
        groups: dict[int, list[int]] = {}
        for a in touched:
            s = 4 * a + S
            while p[s] != s:
                s = p[s]
            w = 4 * a + W
            while p[w] != w:
                w = p[w]
            key = s * stride + w
            g = groups.get(key)
            if g is None:
                groups[key] = [a]
            else:
                g.append(a)
        owner = self.owner
        best = None
        for key, g in groups.items():
            b = owner.get(key)
            if b is not None and b != hi and b not in touched:
                g.append(b)
            if len(g) > 1:
                g.sort()
                if best is None or g[1] < best[1]:
                    best = (g[0], g[1])
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
        touched = self._touched()
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
