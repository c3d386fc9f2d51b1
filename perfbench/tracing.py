"""In-memory spans and counters, attached from outside the program.

:class:`Tracer` replaces public entry points of the program's modules
with thin wrappers while it is installed and puts the originals back
when it is removed; nothing under ``src/`` knows it exists.  Each call
through a wrapper records one span (name, start, end, parent) and may
feed counters from its arguments and result.  Spans stay in memory
until :meth:`Tracer.dump` writes them out at the end of a run.

A span's self time is its duration minus the durations of its direct
children.  The program is single-threaded, so children nest strictly
inside their parent and never overlap each other.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

#: (owner, attribute, span name, counter hook) — the hook is called as
#: ``hook(tracer, args, kwargs, result)`` after the span closes.
Hook = Optional[Callable[["Tracer", tuple, dict, Any], None]]


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.counts: Dict[str, float] = defaultdict(float)
        #: Free-form tag the benchmark sets around a phase of its work
        #: (hooks may key counters by it).
        self.phase = ""
        self._stack: List[int] = []
        self._patched: List[tuple] = []
        self.enabled = False
        self.last_seconds = 0.0

    # -- spans -----------------------------------------------------------
    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()
        #: Duration of the span closed last (read by counter hooks).
        self.last_seconds = self.ends[index] - self.starts[index]

    def parent_name(self) -> str:
        """Name of the span enclosing the current call ("" at top level)."""
        return self.names[self._stack[-2]] if len(self._stack) > 1 else ""

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counts[key] += amount

    # -- attaching -------------------------------------------------------
    def wrap(self, owner: Any, attr: str, name: str, hook: Hook = None) -> None:
        """Route calls of ``owner.attr`` through a span named ``name``.

        ``owner`` is a class or a module.  The wrapper is installed on
        ``owner`` itself, so callers that look the name up at call
        time (methods, and module functions imported inside a function
        body) go through it.
        """
        had_own = attr in vars(owner)
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            index = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            if hook is not None:
                tracer._stack.append(index)
                try:
                    hook(tracer, args, kwargs, result)
                finally:
                    tracer._stack.pop()
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original, had_own))

    def remove(self) -> None:
        """Put every wrapped attribute back as it was."""
        for owner, attr, original, had_own in reversed(self._patched):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patched.clear()

    # -- results ---------------------------------------------------------
    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, inclusive seconds, self seconds."""
        child_time = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += self.ends[i] - self.starts[i]
        out: Dict[str, Dict[str, float]] = {}
        for i, name in enumerate(self.names):
            duration = self.ends[i] - self.starts[i]
            row = out.setdefault(name, {"calls": 0.0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += duration
            row["self_s"] += duration - child_time[i]
        return out

    def outer_seconds(self, names) -> float:
        """Seconds in spans named in ``names`` that no such span encloses."""
        names = set(names)
        total = 0.0
        for i, name in enumerate(self.names):
            if name not in names:
                continue
            parent = self.parents[i]
            if parent >= 0 and self.names[parent] in names:
                continue
            total += self.ends[i] - self.starts[i]
        return total

    def child_seconds(self, parents, child: str) -> float:
        """Seconds in ``child`` spans whose direct parent is in ``parents``."""
        parents = set(parents)
        total = 0.0
        for i, p in enumerate(self.parents):
            if p >= 0 and self.names[i] == child and self.names[p] in parents:
                total += self.ends[i] - self.starts[i]
        return total

    def dump(self, path: str) -> None:
        """Write every span (name, start, end, parent) and the counters."""
        spans = [
            [self.names[i], self.starts[i], self.ends[i], self.parents[i]]
            for i in range(len(self.names))
        ]
        with open(path, "w") as handle:
            json.dump({"spans": spans, "counts": dict(self.counts)}, handle)
