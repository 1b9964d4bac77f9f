"""In-memory spans recorded around calls into patsolve's layers.

The benchmark wraps the functions ``patsolve.search`` calls into other
modules, so every span sits at a layer boundary and the program itself
is not edited.  Spans live in typed arrays (one entry per call, a few
hundred thousand per traced run) and are written out once, after the
timed passes, as a JSON header line followed by the raw arrays.
"""

from __future__ import annotations

import json
from array import array
from pathlib import Path
from time import perf_counter


class Tracer:
    """Spans as parallel arrays: name id, parent span index, start, end.

    A call that a layer makes into itself (``shuffle`` drawing through
    ``randrange``) is part of the outer span and records none of its own,
    so the direct children of a span never overlap.
    """

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("B")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._open: list[tuple[int, int]] = []  # (name id, span index)

    def _nid(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def __len__(self) -> int:
        return len(self.start)

    def open(self, name: str) -> int:
        return self._push(self._nid(name))

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._open.pop()

    def _push(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._open[-1][1] if self._open else -1)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self._open.append((nid, idx))
        return idx

    def wrap(self, name: str, fn):
        """``fn`` with a span named ``name`` around each call."""
        nid = self._nid(name)
        stack = self._open
        push, end = self._push, self.end

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == nid:
                return fn(*args, **kwargs)
            idx = push(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()

        return traced

    def children(self) -> dict[int, list[int]]:
        """Direct child span indices by parent index."""
        out: dict[int, list[int]] = {}
        for i, p in enumerate(self.parent):
            if p >= 0:
                out.setdefault(p, []).append(i)
        return out

    def duration(self, idx: int) -> float:
        return self.end[idx] - self.start[idx]

    def self_time(self, idx: int, kids: list[int]) -> float:
        """The span's duration minus the part of it its children cover."""
        covered = 0.0
        reach = self.start[idx]
        for k in sorted(kids, key=self.start.__getitem__):
            lo = max(self.start[k], reach)
            hi = min(self.end[k], self.end[idx])
            if hi > lo:
                covered += hi - lo
                reach = hi
        return self.duration(idx) - covered

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "spans": len(self),
            "arrays": ["name_id:B", "parent:l", "start:d", "end:d"],
        }
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(f)


def read_spans(path: Path) -> Tracer:
    """Load spans written by ``Tracer.write``."""
    t = Tracer()
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        t.names = list(header["names"])
        for arr in (t.name_id, t.parent, t.start, t.end):
            arr.fromfile(f, header["spans"])
    return t
