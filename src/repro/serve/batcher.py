"""Dynamic request batching: the serving-side analogue of large batches.

The paper's thesis is that batch scale is the hardware-efficiency lever —
per-step overhead (Python dispatch, graph bookkeeping, kernel launch) is
amortised across the batch axis.  At inference time the batch axis does
not exist naturally: requests arrive one at a time.  :class:`DynamicBatcher`
manufactures it by coalescing concurrent requests under a
``max_batch_size`` / ``max_wait_ms`` policy:

* a request that arrives while the engine is busy waits in a **bounded**
  FIFO queue (admission control is the caller's job — :meth:`offer`
  refuses instead of growing without bound);
* the engine thread pulls with :meth:`next_batch`, which waits at most
  ``max_wait_ms`` past the *oldest queued* request before dispatching
  whatever has accumulated — latency is bounded even at low arrival
  rates, and a full batch dispatches immediately;
* sequence inputs are **length-bucketed**: a batch only mixes requests
  whose lengths fall in the same ``bucket_width``-sized band, so padding
  waste stays bounded.  Bucketing never starves anyone: each batch is
  built around the *head* request's bucket, so the oldest request always
  ships in the next batch.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = ["Request", "DynamicBatcher", "SHED"]


class _Shed:
    """Sentinel result for requests refused by admission control."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "SHED"


#: The result assigned to a request the server refused to queue.
SHED = _Shed()

_ids = itertools.count()


@dataclass
class Request:
    """One inference request travelling through the serving stack.

    The submitting thread keeps the object and calls :meth:`wait`; the
    engine thread fills :attr:`result` and fires the event.  ``seq_len``
    is ``None`` for fixed-geometry payloads (MNIST images) and the true
    sequence length for variable-length ones (GNMT sources) — the
    batcher buckets on it and the engine pads up to the batch maximum.

    ``on_done`` is an optional completion hook invoked (on the finishing
    thread, after the event fires) with the request itself — the serving
    replica uses it to ship results back over its response queue the
    moment they exist, without polling futures.
    """

    payload: Any
    seq_len: int | None = None
    id: int = field(default_factory=lambda: next(_ids))
    submitted_at: float = field(default_factory=time.perf_counter)
    completed_at: float | None = None
    result: Any = None
    on_done: Callable[["Request"], None] | None = field(default=None, repr=False)
    _event: threading.Event = field(default_factory=threading.Event, repr=False)

    def finish(self, result: Any) -> None:
        """Deliver ``result`` and wake the submitter (engine side)."""
        self.result = result
        self.completed_at = time.perf_counter()
        self._event.set()
        if self.on_done is not None:
            self.on_done(self)

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the result is delivered; ``True`` when it was."""
        return self._event.wait(timeout)

    @property
    def done(self) -> bool:
        return self._event.is_set()

    @property
    def shed(self) -> bool:
        """Was this request refused by admission control?"""
        return self.done and self.result is SHED

    @property
    def latency(self) -> float | None:
        """Submit-to-completion seconds (``None`` while in flight)."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.submitted_at


class DynamicBatcher:
    """Bounded FIFO of :class:`Request` s coalesced into batches.

    Parameters
    ----------
    max_batch_size:
        Hard cap on requests per dispatched batch.
    max_wait_ms:
        How long :meth:`next_batch` may hold the oldest queued request
        hoping for company.  ``0`` dispatches immediately (batches still
        form whenever requests are already waiting).
    max_queue_depth:
        Admission-control bound; :meth:`offer` returns ``False`` once
        this many requests are queued.
    bucket_width:
        Length-bucket granularity for ``seq_len``-carrying requests;
        requests only share a batch when ``ceil(len / bucket_width)``
        matches.  Fixed-geometry requests (``seq_len=None``) all share
        one bucket.
    """

    def __init__(
        self,
        max_batch_size: int = 32,
        max_wait_ms: float = 2.0,
        max_queue_depth: int = 256,
        bucket_width: int = 8,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        if max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if bucket_width < 1:
            raise ValueError("bucket_width must be >= 1")
        self.max_batch_size = max_batch_size
        self.max_wait_ms = max_wait_ms
        self.max_queue_depth = max_queue_depth
        self.bucket_width = bucket_width
        self._queue: list[Request] = []
        self._lock = threading.Lock()
        self._nonempty = threading.Condition(self._lock)

    # -- producer side -----------------------------------------------------

    def offer(self, request: Request) -> bool:
        """Enqueue ``request``; ``False`` when the queue is at capacity."""
        with self._nonempty:
            if len(self._queue) >= self.max_queue_depth:
                return False
            self._queue.append(request)
            self._nonempty.notify()
            return True

    def depth(self) -> int:
        """Current queue depth: the ``serve/queue_depth`` gauge, and the
        signal a fleet's least-loaded routing reads."""
        with self._lock:
            return len(self._queue)

    # -- consumer side -----------------------------------------------------

    def _bucket_of(self, request: Request) -> int:
        if request.seq_len is None:
            return -1
        return math.ceil(request.seq_len / self.bucket_width)

    def _head_bucket_count_locked(self, head_bucket: int) -> int:
        """How many queued requests share ``head_bucket`` (capped at batch size).

        Only the head request's bucket can ship in the next batch, so the
        grace wait in :meth:`next_batch` must watch *this* count — total
        queue depth overstates readiness under mixed-bucket traffic.
        """
        count = 0
        for req in self._queue:
            if self._bucket_of(req) == head_bucket:
                count += 1
                if count >= self.max_batch_size:
                    break
        return count

    def _take_batch_locked(self) -> list[Request]:
        """Pop up to ``max_batch_size`` head-bucket requests (FIFO order)."""
        head_bucket = self._bucket_of(self._queue[0])
        batch: list[Request] = []
        rest: list[Request] = []
        for req in self._queue:
            if (
                len(batch) < self.max_batch_size
                and self._bucket_of(req) == head_bucket
            ):
                batch.append(req)
            else:
                rest.append(req)
        self._queue = rest
        return batch

    def next_batch(self, timeout: float | None = None) -> list[Request] | None:
        """Coalesce and pop one batch; ``None`` when ``timeout`` expires idle.

        Blocks until at least one request is queued (bounded by
        ``timeout`` seconds), then keeps collecting for up to
        ``max_wait_ms`` measured from the moment the batch head was
        available — unless the head's bucket already fills a batch.
        """
        deadline = None if timeout is None else time.perf_counter() + timeout
        with self._nonempty:
            while not self._queue:
                remaining = (
                    None if deadline is None else deadline - time.perf_counter()
                )
                if remaining is not None and remaining <= 0:
                    return None
                self._nonempty.wait(remaining)

            grace_end = time.perf_counter() + self.max_wait_ms / 1e3
            # The head request never changes during the grace wait (only
            # this consumer pops, and it holds the lock), so its bucket is
            # stable: watch how many queued requests can actually join it.
            head_bucket = self._bucket_of(self._queue[0])
            while (
                self._head_bucket_count_locked(head_bucket)
                < self.max_batch_size
            ):
                remaining = grace_end - time.perf_counter()
                if remaining <= 0:
                    break
                self._nonempty.wait(remaining)
            return self._take_batch_locked()
