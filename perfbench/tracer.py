"""Spans around calls into qcrack, recorded from the benchmark's own files.

A wrapper is installed on every name a caller looks up: `autodiff` binds
`apply_gate`, `build_from_angles` and `evaluate_angles` at import,
`circuit` binds the statevector functions, and `model` binds
`value_and_jacobian`, `evaluate_angles` and `adam_step`. A wrapper on
`qcrack.statevector.apply_gate` alone would see only the calls made from
inside `statevector`. Spans stay in memory until `save` writes them out.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def install(self, name: str, sites) -> None:
        """Wrap `owner.attr` for each (owner, attr) site under one span name.

        A site the program no longer has raises AttributeError, so a renamed
        function fails the traced run instead of reading as zero calls.
        """
        nid = len(self.names)
        self.names.append(name)
        wrappers = {}
        for owner, attr in sites:
            fn = getattr(owner, attr)
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(nid, fn)
            setattr(owner, attr, wrappers[id(fn)])

    def _wrap(self, nid: int, fn):
        name_id, parent = self.name_id, self.parent
        start, end, stack = self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.array(self.name_id, dtype=np.uint16),
            "parent": np.array(self.parent, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def summarize(tracer: Tracer) -> dict[str, dict]:
    """Per span name: call count, total and self seconds, and the inclusive
    durations of every call; plus the spans with no parent."""
    a = tracer.arrays()
    dur = a["end"] - a["start"]
    has_parent = a["parent"] >= 0
    child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                        minlength=dur.size)
    own = dur - child
    out = {}
    for nid, name in enumerate(tracer.names):
        mask = a["name_id"] == nid
        out[name] = {"calls": int(mask.sum()), "self_s": float(own[mask].sum()),
                     "durations": dur[mask]}
    out["<top>"] = {"total_s": float(dur[~has_parent].sum())}
    return out


def count_under(tracer: Tracer, ancestor: str, name: str) -> int:
    """Number of `name` spans with an `ancestor` span above them."""
    a = tracer.arrays()
    if ancestor not in tracer.names or name not in tracer.names:
        return 0
    ids = a["name_id"]
    parent = a["parent"]
    # parents are recorded before their children, so marks flow downward
    # one level per pass
    under = ids == tracer.names.index(ancestor)
    has_parent = parent >= 0
    while True:
        marked = under.copy()
        marked[has_parent] |= under[parent[has_parent]]
        if np.array_equal(marked, under):
            break
        under = marked
    return int(np.sum(under & (ids == tracer.names.index(name))))
