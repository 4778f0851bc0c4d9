"""In-memory spans recorded around calls into the program's public API.

The traced run wraps methods on live objects (or, for calls the program
makes through a class or module global, on that class or module) with a
recorder that appends one span per call: name, start, end, parent span
and, for serving, the request ids the call worked on.  Nothing is added
inside the program.  Spans stay in memory until the run ends; then
:meth:`Recorder.save` writes them once as Chrome ``trace_event`` JSON and
:func:`self_times` turns them into per-layer self times.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict

# span record layout:
# [name, start, end, parent index (-1 at a root), request ids, thread id]
NAME, START, END, PARENT, REQS, TID = range(6)


class Recorder:
    """Collects spans from any thread; each thread keeps its own stack."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> list:
        stack = self._stack()
        span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, None,
                threading.get_ident()]
        with self._lock:  # index and append together: serving spans two threads
            stack.append(len(self.spans))
            self.spans.append(span)
        return span

    def end(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack().pop()

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` by a spanning wrapper.

        ``after(span, args, result)`` runs once the call returned, e.g. to
        attach request ids or count bytes.  Wraps last for the life of the
        process, which is one traced run.
        """
        original = getattr(owner, attr)
        begin, end = self.begin, self.end

        def wrapper(*args, **kwargs):
            span = begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                end(span)
            if after is not None:
                after(span, args, result)
            return result

        setattr(owner, attr, wrapper)

    def save(self, path: str, pid: int) -> None:
        """Write every span as a Chrome trace (open in Perfetto)."""
        origin = self.spans[0][START] if self.spans else 0.0
        events = []
        for i, (name, start, end, parent, reqs, tid) in enumerate(self.spans):
            args = {"id": i, "parent": parent}
            if reqs is not None:
                args["requests"] = reqs
            events.append(
                {
                    "name": name,
                    "ph": "X",
                    "pid": pid,
                    "tid": tid,
                    "ts": (start - origin) * 1e6,
                    "dur": (end - start) * 1e6,
                    "args": args,
                }
            )
        with open(path, "w") as fh:
            json.dump({"traceEvents": events}, fh)


def root_of(spans: list[list]) -> list[int]:
    """The index of each span's outermost ancestor (its own at a root)."""
    roots: list[int] = []
    for i, span in enumerate(spans):
        parent = span[PARENT]
        roots.append(i if parent < 0 else roots[parent])
    return roots


def self_times(spans: list[list], keep) -> dict[str, float]:
    """Seconds of self time per span name over the spans ``keep(i)`` accepts.

    A span's self time is its duration minus the time its direct children
    cover; children run inside their parent on the same thread, so the
    subtraction never double counts.
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    totals: dict[str, float] = defaultdict(float)
    for i, span in enumerate(spans):
        if keep(i):
            totals[span[NAME]] += span[END] - span[START] - child[i]
    return totals
