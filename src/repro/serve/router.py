"""The scale-out fleet: N replica processes behind one routing front door.

The paper's training-side argument — throughput scales with batch
parallelism once the surrounding machinery is right — has a serving
analogue: aggregate throughput scales with *replica* parallelism once
routing, version coordination and capacity management are right.
:class:`Router` is that machinery:

* **routing policies** (:data:`POLICIES`) —

  - ``round-robin``: cycle over active replicas; stateless and fair
    under uniform service times;
  - ``least-loaded``: pick the replica whose *reported* queue depth is
    smallest (ties break by replica index).  The signal is the
    ``serve/queue_depth`` gauge each replica ships over its
    :class:`~repro.obs.telemetry.DeltaExporter` heartbeat — which is
    exactly why the stale-gauge bug mattered: a gauge frozen at its last
    burst value starves a healthy replica;
  - ``jsq`` (join-shortest-queue): pick the replica with the fewest
    requests *this router* has in flight to it.  Exact and lag-free
    (no heartbeat involved), the classic supermarket-model winner;

* **coordinated hot-swap** — :meth:`request_swap` broadcasts one
  checkpoint path to every active replica and resolves its event only
  when the whole fleet has reported a version at or past the
  checkpoint's step (:meth:`CheckpointManager.step_of` is the version
  clock, same as single-server hot-swap).  Replies travel FIFO behind
  the version reports, so once the event fires no response produced
  after convergence can carry a stale version — and nothing is dropped,
  because each replica applies its swap between batches;

* **autoscaling** — the control thread watches mean in-flight load per
  active replica and spawns (up to ``max_replicas``) or retires (down
  to ``min_replicas``) after ``scale_patience`` consecutive ticks past
  the thresholds.  Retirement picks the highest-index replica, stops
  routing to it immediately, and lets it drain — its in-flight results
  still come back, so scale-down sheds nothing;

* **telemetry merge** — each replica's metric deltas land in the active
  registry under ``serve/r<i>/...`` (sequence-numbered, so re-delivery
  cannot double-count) and its trace dump is absorbed as a per-pid lane
  named ``replica <i>`` in the merged Chrome trace, mirroring the
  ``parallel/w<i>/`` discipline of :class:`~repro.parallel.mp.MultiprocessCluster`.
"""

from __future__ import annotations

import itertools
import pathlib
import queue
import threading
import time
from collections import deque
from typing import Any

import numpy as np

from repro.obs.metrics import get_active
from repro.serve.batcher import SHED, Request
from repro.serve.replica import DEFAULT_TICK, SHED_MARKER, ReplicaHandle
from repro.utils.checkpoint import CheckpointManager

__all__ = ["Router", "POLICIES"]

#: The routing policies ``Router(policy=...)`` accepts.
POLICIES = ("round-robin", "least-loaded", "jsq")


class Router:
    """Route requests across a fleet of replica server processes.

    Parameters
    ----------
    engine_factory:
        Zero-arg callable building the engine *inside* each replica
        process (a closure is fine under the default ``fork`` start
        method).  Every replica gets its own copy — weights are never
        shared across the fleet except through checkpoints.
    replicas / min_replicas / max_replicas:
        Fleet size at start, and the autoscaler's bounds (both default
        to ``replicas``, which disables scaling).
    policy:
        One of :data:`POLICIES`.
    batcher:
        Keyword dict forwarded to each replica's
        :class:`~repro.serve.batcher.DynamicBatcher`.
    manager:
        Optional :class:`CheckpointManager`; the control thread polls it
        every ``poll_interval`` seconds (single directory scan, step via
        :meth:`CheckpointManager.step_of` — same TOCTOU-free pattern as
        :meth:`Server.poll_for_update`) and stages a coordinated swap
        whenever a checkpoint newer than the fleet minimum appears.
    telemetry / metrics_every_batches / sample_metrics / obs:
        ``telemetry`` ships per-replica metric deltas and trace dumps on
        the heartbeat; ``metrics_every_batches`` additionally makes each
        replica run its own serving health rules.  ``sample_metrics``
        makes the control thread sample the parent's active registry
        every tick, so merged ``serve/r<i>/...`` series land in the
        time-series ring (and any attached stream file).  ``obs``
        supplies the tracer that absorbs replica trace dumps.
    scale_up_depth / scale_down_depth / scale_patience:
        Autoscaler knobs: mean in-flight requests per active replica
        above/below which, after that many consecutive control ticks,
        the fleet grows/shrinks.
    """

    def __init__(
        self,
        engine_factory,
        *,
        replicas: int = 2,
        policy: str = "round-robin",
        batcher: dict | None = None,
        manager: CheckpointManager | None = None,
        poll_interval: float = 0.25,
        telemetry: bool = True,
        metrics_every_batches: int = 0,
        sample_metrics: bool = False,
        obs=None,
        tick: float = DEFAULT_TICK,
        min_replicas: int | None = None,
        max_replicas: int | None = None,
        scale_up_depth: float = 8.0,
        scale_down_depth: float = 1.0,
        scale_patience: int = 4,
        ctx=None,
    ) -> None:
        if policy not in POLICIES:
            raise ValueError(
                f"unknown policy {policy!r}; expected one of {POLICIES}"
            )
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.engine_factory = engine_factory
        self.policy = policy
        self.batcher_kwargs = dict(batcher or {})
        self.manager = manager
        self.poll_interval = float(poll_interval)
        self.telemetry = bool(telemetry)
        self.metrics_every_batches = int(metrics_every_batches)
        self.sample_metrics = bool(sample_metrics)
        self.obs = obs
        self.tick = float(tick)
        self.min_replicas = replicas if min_replicas is None else int(min_replicas)
        self.max_replicas = replicas if max_replicas is None else int(max_replicas)
        if not (1 <= self.min_replicas <= replicas <= self.max_replicas):
            raise ValueError(
                "need 1 <= min_replicas <= replicas <= max_replicas, got "
                f"{self.min_replicas} <= {replicas} <= {self.max_replicas}"
            )
        self.scale_up_depth = float(scale_up_depth)
        self.scale_down_depth = float(scale_down_depth)
        self.scale_patience = max(1, int(scale_patience))
        self._initial = int(replicas)
        self._ctx = ctx

        self._handles: list[ReplicaHandle] = []
        self._collectors: list[threading.Thread] = []
        self._lock = threading.Lock()
        self._rr = 0
        self._rid = itertools.count()
        self._next_index = 0
        #: recent (rid-ordered) replica indices chosen by the policy —
        #: a bounded audit trail the determinism tests read
        self.assignments: deque[int] = deque(maxlen=4096)
        self.requests_total = 0
        self.shed_total = 0
        self.swaps_total = 0
        self.scale_ups = 0
        self.scale_downs = 0
        self._staged: tuple[int, pathlib.Path] | None = None
        self._swap_waiters: list[tuple[int, threading.Event]] = []
        self._swapped_step = -1  # the newest step counted in swaps_total
        self._high_ticks = 0
        self._low_ticks = 0
        self._running = False
        self._accepting = False
        self._control: threading.Thread | None = None

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "Router":
        if self._control is not None:
            raise RuntimeError("router already started")
        self._running = True
        self._accepting = True
        with self._lock:
            for _ in range(self._initial):
                self._spawn_locked()
        self._control = threading.Thread(
            target=self._control_loop, name="repro-route-ctl", daemon=True
        )
        self._control.start()
        return self

    def stop(self) -> None:
        """Retire the whole fleet; every in-flight request is answered."""
        self._accepting = False
        self._running = False
        if self._control is not None:
            self._control.join()
            self._control = None
        with self._lock:
            handles = list(self._handles)
        for handle in handles:
            if not handle.retired and not handle.dead and handle.proc.alive:
                handle.retired = True
                handle.request_stop()
        for thread in self._collectors:
            thread.join(timeout=30.0)
        for handle in handles:
            handle.proc.shutdown()
            self._fail_pending(handle, "router stopped")

    def __enter__(self) -> "Router":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # -- fleet management ---------------------------------------------------

    def _spawn_locked(self) -> ReplicaHandle:
        """Start one replica (caller holds the lock); indices never reuse,
        so each replica keeps a distinct trace lane and metric prefix."""
        index = self._next_index
        self._next_index += 1
        handle = ReplicaHandle(
            index,
            self.engine_factory,
            batcher=self.batcher_kwargs,
            telemetry=self.telemetry,
            metrics_every_batches=self.metrics_every_batches,
            tick=self.tick,
            ctx=self._ctx,
        )
        if self._staged is not None:
            # a freshly spawned replica may have loaded older weights —
            # hand it the staged checkpoint before any traffic
            handle.send_swap(self._staged[1])
        self._handles.append(handle)
        collector = threading.Thread(
            target=self._collect,
            args=(handle,),
            name=f"repro-route-r{index}",
            daemon=True,
        )
        self._collectors.append(collector)
        collector.start()
        return handle

    def _retire_one_locked(self) -> ReplicaHandle | None:
        active = [h for h in self._handles if h.active]
        if len(active) <= self.min_replicas:
            return None
        handle = max(active, key=lambda h: h.index)
        handle.retired = True  # out of the routing set immediately
        return handle

    def _fail_pending(self, handle: ReplicaHandle, why: str) -> None:
        with self._lock:
            pending = list(handle.pending.values())
            handle.pending.clear()
        for req in pending:
            if not req.done:
                req.finish({"error": f"replica {handle.index}: {why}"})

    def _on_death(self, handle: ReplicaHandle) -> None:
        handle.dead = True
        self._fail_pending(handle, "process died")
        self._check_swap_convergence()

    # -- the collector (one thread per replica) -----------------------------

    def _collect(self, handle: ReplicaHandle) -> None:
        while True:
            try:
                msg = handle.proc.recv(timeout=0.2)
            except queue.Empty:
                if not handle.proc.alive:
                    self._on_death(handle)
                    return
                continue
            kind = msg[0]
            if kind == "result":
                _, rid, result, version, depth = msg
                with self._lock:
                    req = handle.pending.pop(rid, None)
                    handle.depth = depth
                    handle.version = version
                if req is not None:
                    if isinstance(result, str) and result == SHED_MARKER:
                        with self._lock:
                            self.shed_total += 1
                        req.finish(SHED)
                    else:
                        req.finish(result)
                self._check_swap_convergence()
            elif kind == "tele":
                self._fold_info(handle, msg[1])
                self._check_swap_convergence()
            elif kind == "bye":
                self._fold_info(handle, msg[1])
                handle.dead = True
                # drain answered everything it had; anything left means
                # a message raced the shutdown — fail it loudly
                self._fail_pending(handle, "retired")
                self._check_swap_convergence()
                return

    def _fold_info(self, handle: ReplicaHandle, info: dict) -> None:
        """Update the handle's load/version view + merge telemetry."""
        with self._lock:
            handle.depth = info["depth"]
            handle.version = info["version"]
            handle.counters = dict(info["counters"])
            handle.pid = info["pid"]
        reg = get_active()
        if reg is not None and "metrics" in info:
            delta = info["metrics"]
            snaps = []
            for snap in delta["metrics"]:
                snap = dict(snap)
                name = snap["name"]
                # replica-local names are serve/<x>; merged they become
                # serve/r<i>/<x>, not serve/r<i>/serve/<x>
                if name.startswith("serve/"):
                    name = name[len("serve/"):]
                snap["name"] = name
                snaps.append(snap)
            reg.merge(
                snaps,
                prefix=f"serve/r{handle.index}/",
                source=f"r{handle.index}:{info['pid']}",
                seq=delta["seq"],
            )
        tracer = getattr(self.obs, "tracer", None) if self.obs else None
        if tracer is not None and info.get("trace", {}).get("events"):
            tracer.absorb(
                info["trace"],
                prefix=f"r{handle.index}",
                process_name=f"replica {handle.index}",
            )

    # -- submission (any thread) --------------------------------------------

    def _pick_locked(self) -> ReplicaHandle | None:
        active = [h for h in self._handles if h.active]
        if not active:
            return None
        if self.policy == "round-robin":
            handle = active[self._rr % len(active)]
            self._rr += 1
        elif self.policy == "least-loaded":
            handle = min(active, key=lambda h: (h.depth, h.index))
        else:  # jsq
            handle = min(active, key=lambda h: (len(h.pending), h.index))
        return handle

    def submit(
        self, payload: np.ndarray, seq_len: int | None = None
    ) -> Request:
        """Route one request; sheds (never raises) with no replica to take it.

        Same contract as :meth:`Server.submit`, so the load generators
        drive a router and a single server interchangeably.
        """
        request = Request(payload=payload, seq_len=seq_len)
        with self._lock:
            self.requests_total += 1
            handle = None
            if self._accepting:
                handle = self._pick_locked()
            if handle is not None:
                rid = next(self._rid)
                handle.pending[rid] = request
                self.assignments.append(handle.index)
            else:
                self.shed_total += 1
        if handle is None:
            request.finish(SHED)
            return request
        handle.send_request(rid, payload, seq_len)
        return request

    def predict_sync(
        self,
        payload: np.ndarray,
        seq_len: int | None = None,
        timeout: float = 30.0,
    ) -> Any:
        request = self.submit(payload, seq_len)
        if not request.wait(timeout):
            raise TimeoutError("routed inference request timed out")
        return request.result

    # -- coordinated hot-swap -----------------------------------------------

    def request_swap(self, path: str | pathlib.Path) -> threading.Event:
        """Broadcast a checkpoint to the fleet; the event fires on convergence.

        Convergence means every *active* replica has reported a version
        at or past the checkpoint's step — the step parsed from the file
        name (:meth:`CheckpointManager.step_of`), which is the fleet's
        version clock.  A path without a parseable step has no place on
        that clock and is rejected.
        """
        path = pathlib.Path(path)
        step = CheckpointManager.step_of(path)
        if step is None:
            raise ValueError(
                f"cannot derive a version from {path.name!r}; coordinated "
                "swap needs CheckpointManager's ckpt_<step>.npz naming"
            )
        event = threading.Event()
        with self._lock:
            if self._staged is None or step >= self._staged[0]:
                self._staged = (step, path)
            self._swap_waiters.append((step, event))
            targets = [h for h in self._handles if h.active]
        for handle in targets:
            handle.send_swap(path)
        self._check_swap_convergence()
        return event

    def poll_for_update(self) -> bool:
        """Stage a fleet swap when the manager holds a newer checkpoint.

        One directory scan; the step comes from the scanned path itself
        (no second scan — the same TOCTOU fix as
        :meth:`Server.poll_for_update`).
        """
        if self.manager is None:
            return False
        latest = self.manager.latest()
        if latest is None:
            return False
        step = CheckpointManager.step_of(latest)
        if step is None:
            return False
        with self._lock:
            staged = self._staged[0] if self._staged is not None else -1
            active = [h for h in self._handles if h.active]
            fleet = min(
                (h.version if h.version is not None else -1 for h in active),
                default=-1,
            )
        if step <= staged or step <= fleet:
            return False
        self.request_swap(latest)
        return True

    def _check_swap_convergence(self) -> None:
        fired: list[threading.Event] = []
        with self._lock:
            if not self._swap_waiters:
                return
            active = [h for h in self._handles if h.active]
            if not active:
                return  # a respawn will pick the staged swap up
            fleet = min(
                h.version if h.version is not None else -1 for h in active
            )
            still: list[tuple[int, threading.Event]] = []
            for step, event in self._swap_waiters:
                if fleet >= step:
                    fired.append(event)
                    # one swap per step converged to, however many
                    # waiters (a manager poll and a caller) asked for it
                    if step > self._swapped_step:
                        self.swaps_total += 1
                        self._swapped_step = step
                else:
                    still.append((step, event))
            self._swap_waiters = still
        for event in fired:
            event.set()

    # -- the control loop (manager poll + autoscale + sampling) -------------

    def _control_loop(self) -> None:
        while self._running:
            time.sleep(self.poll_interval)
            if not self._running:
                break
            self.poll_for_update()
            retiree = None
            with self._lock:
                active = [h for h in self._handles if h.active]
                n = len(active)
                if n < self.min_replicas:
                    # a replica died: restore the floor before policy math
                    self._spawn_locked()
                else:
                    load = sum(h.depth + len(h.pending) for h in active) / n
                    if load > self.scale_up_depth and n < self.max_replicas:
                        self._high_ticks += 1
                        self._low_ticks = 0
                        if self._high_ticks >= self.scale_patience:
                            self._high_ticks = 0
                            self._spawn_locked()
                            self.scale_ups += 1
                    elif load < self.scale_down_depth and n > self.min_replicas:
                        self._low_ticks += 1
                        self._high_ticks = 0
                        if self._low_ticks >= self.scale_patience:
                            self._low_ticks = 0
                            retiree = self._retire_one_locked()
                            if retiree is not None:
                                self.scale_downs += 1
                    else:
                        self._high_ticks = 0
                        self._low_ticks = 0
            if retiree is not None:
                retiree.request_stop()  # drains, ships results, says bye
            if self.sample_metrics:
                reg = get_active()
                if reg is not None:
                    reg.sample()

    # -- convenience --------------------------------------------------------

    def replica_count(self) -> int:
        with self._lock:
            return sum(1 for h in self._handles if h.active)

    def versions(self) -> dict[int, int | None]:
        """Last reported checkpoint step per replica (all ever spawned)."""
        with self._lock:
            return {h.index: h.version for h in self._handles}

    def counters(self) -> dict[str, int]:
        """Fleet totals (parent-observed + last replica reports)."""
        with self._lock:
            per = [dict(h.counters) for h in self._handles]
            return {
                "requests": self.requests_total,
                "shed": self.shed_total,
                "swaps": self.swaps_total,
                "batches": sum(c.get("batches", 0) for c in per),
                "errors": sum(c.get("errors", 0) for c in per),
                "alarms": sum(c.get("alarms", 0) for c in per),
                "replicas": sum(1 for h in self._handles if h.active),
                "scale_ups": self.scale_ups,
                "scale_downs": self.scale_downs,
            }
