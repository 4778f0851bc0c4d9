"""The serving loop: worker thread, admission control, checkpoint hot-swap.

:class:`Server` glues an :class:`~repro.serve.engine.InferenceEngine` to a
:class:`~repro.serve.batcher.DynamicBatcher` and runs the execution loop
on a dedicated thread:

* **admission control** — ``submit`` refuses deterministically once the
  queue holds ``max_queue_depth`` requests: the refused request completes
  immediately with the :data:`~repro.serve.batcher.SHED` sentinel (and
  bumps the ``serve/shed`` counter) instead of raising, so an overloaded
  server degrades into bounded latency plus an explicit rejection rate —
  never an exception storm or an unbounded queue;
* **hot-swap** — ``request_swap`` stages a checkpoint path (or, with a
  :class:`~repro.utils.checkpoint.CheckpointManager` attached, the newest
  checkpoint whose step beats the engine's ``version``); the worker
  applies it *between* batches, so the in-flight batch drains on the old
  weights and every queued request is answered by the new ones — nothing
  is dropped, mirroring the drain-then-broadcast discipline of the
  parameter-version delta broadcast in :mod:`repro.parallel.mp`.
  Staleness detection resolves :meth:`CheckpointManager.latest` once
  (one directory scan) and derives its step with
  :meth:`CheckpointManager.step_of` — no file is opened unless a newer
  step exists, and the path staged is always the path whose step was
  compared;
* **observability** — when a :class:`repro.obs.MetricsRegistry` is active
  the loop maintains ``serve/requests``, ``serve/shed``, ``serve/swaps``,
  ``serve/batches`` counters, a ``serve/queue_depth`` gauge and
  ``serve/batch_size`` / ``serve/latency_ms`` histograms; with a tracer
  attached each dispatched batch runs inside a ``serve/batch`` span.
"""

from __future__ import annotations

import pathlib
import threading
from typing import Any

import numpy as np

from repro.obs.metrics import get_active
from repro.obs.telemetry import HealthMonitor, default_serving_rules
from repro.serve.batcher import SHED, DynamicBatcher, Request
from repro.serve.engine import InferenceEngine
from repro.utils.checkpoint import CheckpointManager

__all__ = ["Server", "BATCH_SIZE_BUCKETS", "LATENCY_MS_BUCKETS"]

#: Histogram ladders for the serving metrics (powers of two for batch
#: sizes, a log-ish ladder in milliseconds for latency).
BATCH_SIZE_BUCKETS: tuple[float, ...] = tuple(float(2**e) for e in range(9))
LATENCY_MS_BUCKETS: tuple[float, ...] = (
    0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 5000.0,
)


class Server:
    """Dynamic-batching inference server over one engine.

    Parameters
    ----------
    engine:
        The :class:`InferenceEngine` to execute batches on.
    batcher:
        Queue/coalescing policy (a default-configured
        :class:`DynamicBatcher` when omitted).
    manager:
        Optional :class:`CheckpointManager` watched for new checkpoints;
        :meth:`poll_for_update` (called automatically every
        ``swap_poll_batches`` dispatched batches) stages a hot-swap when
        the step of ``manager.latest()`` beats the engine's version.
    obs:
        Optional :class:`repro.obs.Obs`; its tracer wraps each batch in a
        ``serve/batch`` span.  Metrics always go to the *active* registry
        (:func:`repro.obs.get_active`), matching every other producer in
        the stack.
    metrics_every_batches / health:
        ``metrics_every_batches > 0`` makes the worker thread sample the
        active registry into its time-series ring every that many
        dispatched batches and route each sample through a
        :class:`~repro.obs.telemetry.HealthMonitor` (``health``,
        defaulting to :func:`~repro.obs.telemetry.default_serving_rules`
        sized to the batcher's queue capacity).  A **critical** event —
        the shed-rate alarm — bumps ``alarms_total`` and the
        ``serve/alarms`` counter; the full event log stays on
        ``server.health.events`` for the run report.
    """

    def __init__(
        self,
        engine: InferenceEngine,
        batcher: DynamicBatcher | None = None,
        *,
        manager: CheckpointManager | None = None,
        swap_poll_batches: int = 16,
        obs=None,
        metrics_every_batches: int = 0,
        health: HealthMonitor | None = None,
    ) -> None:
        self.engine = engine
        self.batcher = batcher if batcher is not None else DynamicBatcher()
        self.manager = manager
        self.swap_poll_batches = max(1, int(swap_poll_batches))
        self.obs = obs
        if metrics_every_batches < 0:
            raise ValueError("metrics_every_batches must be >= 0")
        self.metrics_every_batches = int(metrics_every_batches)
        if health is None and metrics_every_batches > 0:
            health = HealthMonitor(
                default_serving_rules(self.batcher.max_queue_depth)
            )
        self.health = health
        self.requests_total = 0
        self.shed_total = 0
        self.swaps_total = 0
        self.batches_total = 0
        self.errors_total = 0
        self.alarms_total = 0
        self._pending_swap: pathlib.Path | None = None
        self._swap_events: list[threading.Event] = []
        self._swap_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._accepting = False
        self._running = False
        self._thread: threading.Thread | None = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "Server":
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._accepting = True
        self._running = True
        self._thread = threading.Thread(
            target=self._loop, name="repro-serve", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, drain: bool = True) -> None:
        """Stop the worker; with ``drain`` every queued request is served."""
        self._accepting = False
        self._drain_on_stop = drain
        self._running = False
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        if not drain:
            for req in self.batcher.drain():
                self._shed(req)

    def __enter__(self) -> "Server":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop(drain=True)

    # -- submission (any thread) -------------------------------------------

    def submit(
        self,
        payload: np.ndarray,
        seq_len: int | None = None,
        *,
        on_done=None,
    ) -> Request:
        """Enqueue one request; sheds (never raises) when overloaded.

        The returned :class:`Request` completes either with the engine's
        result dict or with the :data:`SHED` sentinel (check
        ``request.shed``).  ``on_done`` is forwarded to the request and
        fires on whichever thread finishes it — including the shed path
        inside this very call, so a replica's result-shipping hook sees
        refusals too.
        """
        request = Request(payload=payload, seq_len=seq_len, on_done=on_done)
        with self._stats_lock:
            self.requests_total += 1
        reg = get_active()
        if reg is not None:
            reg.counter("serve/requests").inc()
        if not self._accepting or not self.batcher.offer(request):
            self._shed(request)
            return request
        if reg is not None:
            reg.gauge("serve/queue_depth").set(self.batcher.depth())
        return request

    def _shed(self, request: Request) -> None:
        with self._stats_lock:
            self.shed_total += 1
        reg = get_active()
        if reg is not None:
            reg.counter("serve/shed").inc()
            # a shed changes nothing in the queue, but the gauge may be
            # stale from a previous burst — refresh it so the routing
            # signal reflects reality at the moment of refusal
            reg.gauge("serve/queue_depth").set(self.batcher.depth())
        request.finish(SHED)

    # -- hot-swap (any thread stages; the worker applies) ------------------

    def request_swap(self, path: str | pathlib.Path) -> threading.Event:
        """Stage a checkpoint for hot-swap; returns its applied-event.

        The worker thread applies the newest staged path between batches:
        the in-flight batch finishes on the old weights, queued requests
        are answered by the new ones, and no request is dropped.
        """
        event = threading.Event()
        with self._swap_lock:
            self._pending_swap = pathlib.Path(path)
            self._swap_events.append(event)
        return event

    def poll_for_update(self) -> bool:
        """Stage a swap when the manager holds a newer checkpoint.

        Cheap by design: one directory scan (:meth:`CheckpointManager.latest`)
        whose step is derived from the filename via
        :meth:`CheckpointManager.step_of` — never a second scan, so a
        checkpoint landing mid-poll cannot desynchronise the staged path
        from the step that was compared (the classic TOCTOU: reading the
        newest step in one scan and its path in another could stage a
        *newer* file than the step it beat, or in pathological retention
        races an older one).
        """
        if self.manager is None:
            return False
        latest = self.manager.latest()
        if latest is None:
            return False
        step = CheckpointManager.step_of(latest)
        if step is None or step <= self.engine.version:
            return False
        with self._swap_lock:
            already_staged = self._pending_swap == latest
        if not already_staged:
            self.request_swap(latest)
        return True

    def _apply_pending_swap(self) -> None:
        with self._swap_lock:
            path, events = self._pending_swap, self._swap_events
            self._pending_swap = None
            self._swap_events = []
        if path is None:
            return
        self.engine.load_version(path)
        self.swaps_total += 1
        reg = get_active()
        if reg is not None:
            reg.counter("serve/swaps").inc()
            reg.gauge("serve/version").set(self.engine.version)
        # a staged swap superseded before applying still wakes its
        # waiters here: the applied checkpoint is at least as new
        for event in events:
            event.set()

    # -- the worker loop ---------------------------------------------------

    def _serve_batch(self, batch: list[Request]) -> None:
        reg = get_active()
        try:
            results = self.engine.predict(
                [req.payload for req in batch],
                [req.seq_len for req in batch],
            )
        except Exception as exc:  # noqa: BLE001 - fail the batch, not the loop
            for req in batch:
                req.finish({"error": repr(exc)})
            with self._stats_lock:
                self.errors_total += len(batch)
            if reg is not None:
                # visible failure: the error-alarm rule in
                # default_serving_rules trips on any nonzero delta
                reg.counter("serve/errors").inc(len(batch))
                reg.gauge("serve/queue_depth").set(self.batcher.depth())
            return
        for req, result in zip(batch, results):
            if isinstance(result, dict):
                result = dict(result)
                result["version"] = self.engine.version
            req.finish(result)
        self.batches_total += 1
        if reg is not None:
            reg.counter("serve/batches").inc()
            reg.histogram("serve/batch_size", BATCH_SIZE_BUCKETS).observe(
                len(batch)
            )
            lat = reg.histogram("serve/latency_ms", LATENCY_MS_BUCKETS)
            for req in batch:
                if req.latency is not None:
                    lat.observe(req.latency * 1e3)
            reg.gauge("serve/queue_depth").set(self.batcher.depth())

    def _sample_telemetry(self) -> None:
        """One time-series sample + health pass (worker thread only).

        A critical event — the shed-rate alarm in the default rule set —
        is counted rather than raised: the serving loop must keep
        answering requests while alarming.
        """
        reg = get_active()
        if reg is None:
            return
        sample = reg.sample()
        if self.health is None:
            return
        for event in self.health.observe(sample):
            if event.critical:
                with self._stats_lock:
                    self.alarms_total += 1
                reg.counter("serve/alarms").inc()

    def _loop(self) -> None:
        tracer = getattr(self.obs, "tracer", None) if self.obs else None
        since_poll = 0
        since_sample = 0
        sample_every = self.metrics_every_batches
        while True:
            self._apply_pending_swap()
            batch = self.batcher.next_batch(timeout=0.01)
            if batch is None:
                if not self._running:
                    break
                # idle tick: keep the queue-depth gauge live — frozen at
                # the last served depth it poisons least-loaded routing
                reg = get_active()
                if reg is not None:
                    reg.gauge("serve/queue_depth").set(self.batcher.depth())
                since_poll += 1
                if self.manager is not None and since_poll >= self.swap_poll_batches:
                    since_poll = 0
                    self.poll_for_update()
                continue
            if tracer is not None:
                tracer.begin("serve/batch")
            try:
                self._serve_batch(batch)
            finally:
                if tracer is not None:
                    tracer.end()
            if sample_every:
                since_sample += 1
                if since_sample >= sample_every:
                    since_sample = 0
                    self._sample_telemetry()
            since_poll += 1
            if self.manager is not None and since_poll >= self.swap_poll_batches:
                since_poll = 0
                self.poll_for_update()
        # drain: after stop(), answer whatever is still queued
        if getattr(self, "_drain_on_stop", True):
            while True:
                self._apply_pending_swap()
                batch = self.batcher.next_batch(timeout=0.0)
                if batch is None:
                    break
                self._serve_batch(batch)

    # -- convenience -------------------------------------------------------

    def counters(self) -> dict[str, int]:
        """The server-side totals (mirrors the ``serve/*`` counters)."""
        return {
            "requests": self.requests_total,
            "shed": self.shed_total,
            "swaps": self.swaps_total,
            "batches": self.batches_total,
            "errors": self.errors_total,
            "alarms": self.alarms_total,
        }

    def predict_sync(self, payload: np.ndarray, seq_len: int | None = None,
                     timeout: float = 30.0) -> Any:
        """Submit and wait — the one-liner for tests and warm-up."""
        request = self.submit(payload, seq_len)
        if not request.wait(timeout):
            raise TimeoutError("inference request timed out")
        return request.result
