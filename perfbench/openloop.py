"""Open-loop Poisson traffic for the serve workload.

Independent users send requests on their own schedule, whether or not
earlier ones were answered, so the generator is open loop: the whole
arrival schedule and every payload pick are drawn from the seed before
the first request, one generator thread submits on that schedule beside
the server's worker thread, and latency runs from each request's *due*
time.  A stall therefore also charges the requests it delayed, and the
generator reports how late it ran (it shares the interpreter lock with
the server, so it cannot always submit on time).
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass

import numpy as np

# A request that is not answered within this many seconds counts as failed.
REQUEST_TIMEOUT_S = 30.0


@dataclass
class Shot:
    """One request of a phase: when it was due, sent and answered."""

    due: float
    sent: float
    pick: int
    request: object  # repro.serve.batcher.Request

    @property
    def ok(self) -> bool:
        result = self.request.result
        return (
            self.request.done
            and not self.request.shed
            and isinstance(result, dict)
            and "error" not in result
        )

    @property
    def latency_ms(self) -> float:
        """Due-to-answer milliseconds; a failed request lies beyond any limit."""
        if not self.ok:
            return math.inf
        return (self.request.completed_at - self.due) * 1e3


def schedule(rng: np.random.Generator, rate: float, n: int, pool_size: int):
    """Pre-drawn arrival offsets (s) and payload picks for one phase."""
    offsets = np.cumsum(rng.exponential(1.0 / rate, n))
    picks = rng.integers(0, pool_size, n)
    return offsets, picks


def run_phase(server, pool, offsets, picks, on_submit=None) -> list[Shot]:
    """Submit on the schedule from one generator thread; wait for answers.

    ``pool`` holds source arrays; each request gets its own copy, so a
    traced run can tell requests apart by payload identity.
    ``on_submit(payload, shot_index)`` runs just before each submit.
    """
    shots: list[Shot] = []
    start = time.perf_counter() + 0.01

    def generate() -> None:
        for i, (offset, pick) in enumerate(zip(offsets, picks)):
            due = start + float(offset)
            # one sleep per request: each wake-up takes the interpreter lock
            # from the server thread
            remaining = due - time.perf_counter()
            if remaining > 0:
                time.sleep(remaining)
            payload = np.array(pool[int(pick)])
            if on_submit is not None:
                on_submit(payload, i)
            sent = time.perf_counter()
            request = server.submit(payload, len(payload))
            shots.append(Shot(due, sent, int(pick), request))

    thread = threading.Thread(target=generate, name="perfbench-loadgen")
    thread.start()
    thread.join()
    deadline = time.perf_counter() + REQUEST_TIMEOUT_S
    for shot in shots:
        shot.request.wait(max(0.0, deadline - time.perf_counter()))
    return shots


def percentile(values, p: float) -> float:
    """Nearest-rank percentile; works with ``inf`` entries."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return float(ordered[rank - 1])
