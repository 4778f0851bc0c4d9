"""A real multiprocess data-parallel backend, with worker fault tolerance.

:class:`~repro.parallel.cluster.SimCluster` simulates workers in-process;
this module runs them as actual OS processes (the mpi4py-style SPMD
pattern, but over ``multiprocessing`` since no MPI runtime is available
offline).  Workers are *persistent*: each process builds its model replica
once, keeps it alive across steps, and the parent sends only the
parameters that actually changed since that worker's last update (tracked
with a per-parameter version clock) — not a fresh pickle of the full
state per shard per step.  Each step:

1. the parent diffs the current parameters against its broadcast shadow,
   bumps the version clock for changed ones, and sends every worker a
   shard plus the delta it is missing;
2. each worker applies the delta to its cached replica and computes its
   shard's gradient with the real autograd engine;
3. the parent reduces the gradients through the same step
   :class:`~repro.parallel.cluster.SimCluster` runs
   (:class:`~repro.parallel.cluster.SyncCluster`): the same weighting,
   buckets, all-reduce schedules, gate, noise tap and overlap timeline,
   so the documented ``allreduce/<algo>/*`` counters fire on this path
   too and the same equivalence theorem applies and is tested.

Fault tolerance: every worker has its own request/response queue pair, so
a crashed or hung worker surfaces as a per-shard timeout instead of a
deadlock.  A *worker fault* — an error, a timeout, or a finite loss with
non-finite gradients (what :class:`~repro.parallel.faults.FaultSpec`'s
nan injection produces) — re-submits the shard to the least-loaded
*other* worker under a bounded retry budget with exponential backoff;
when the budget is exhausted the step fails loudly with
:class:`~repro.parallel.faults.WorkerFaultError`.  A non-finite *loss*
is not a worker fault: every worker computes the same one from the same
parameters and shard, so it goes into the reduction, whose gate hands it
to the trainer exactly as on ``SimCluster``.  A worker process that died
outright is respawned on next submit (its replica cache is gone, so it
receives the full parameter state again).

Every detected fault and retry increments ``parallel/faults_detected`` /
``parallel/retries`` on the active metrics registry (see ``repro.obs``),
as well as the cluster's own counters.

Telemetry (``telemetry=True``): each worker process additionally runs its
own :class:`~repro.obs.metrics.MetricsRegistry` and
:class:`~repro.obs.trace.Tracer`, recording per-step loss/steps/step-time
and ``step``/``forward``/``backward`` spans, and ships the *delta* since
its previous reply (a :class:`~repro.obs.telemetry.DeltaExporter` export
plus an incremental trace dump) piggybacked on the existing response
tuples — no extra channel.  The driver merges metric deltas into the
active registry under ``parallel/w<i>/...`` labels (idempotently, keyed
by worker slot + pid + sequence number, so a re-delivered delta is a
no-op and a respawned worker starts a fresh key) and absorbs trace dumps
into the driver's tracer, re-anchored to the driver clock with real
pid/tid metadata.  Stale responses from abandoned retry attempts still
merge their telemetry — the work happened, only the gradient was unused.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import os
import queue as queue_mod
import time
from typing import Callable, Sequence

import numpy as np

from repro.obs.metrics import MetricsRegistry, get_active
from repro.obs.telemetry import DeltaExporter
from repro.obs.trace import Tracer
from repro.parallel.buckets import DEFAULT_BUCKET_MB
from repro.parallel.cluster import SyncCluster, installing_loss_fn, shard_batch
from repro.parallel.cost import CommModel
from repro.parallel.faults import FaultSpec, WorkerFaultError
from repro.parallel.perfmodel import DeviceModel


#: ``le`` bounds (milliseconds) for the per-worker step-time histogram.
STEP_MS_BUCKETS = (1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 1000.0, 5000.0)


def default_context() -> mp.context.BaseContext:
    """The multiprocessing context every persistent process uses.

    ``fork`` when the platform offers it (cheap, and closures survive as
    process arguments), ``spawn`` otherwise — under ``spawn`` every
    factory handed to a persistent process must be picklable (a
    module-level function or :func:`functools.partial` of one).
    """
    return mp.get_context(
        "fork" if "fork" in mp.get_all_start_methods() else "spawn"
    )


class PersistentProcess:
    """One persistent child process plus its request/response queue pair.

    The reusable core of the persistent-worker pattern: a daemon process
    running ``target(*args, req_q, resp_q)`` as a long-lived loop, fed
    through :meth:`send` and drained through :meth:`recv`.  The loop
    contract is shared by every user (the data-parallel workers below,
    the serving replicas in :mod:`repro.serve.replica`):

    * the target loops on ``req_q.get()`` and replies on ``resp_q``;
    * a ``None`` request is the shutdown sentinel — the target drains
      whatever it owes, replies its goodbye (if its protocol has one)
      and returns;
    * the target never lets an exception kill the loop: errors are
      reported as responses so the parent sees a message, not a hang.

    :meth:`shutdown` sends the sentinel, joins with a timeout, and
    terminates a wedged process rather than hanging the parent.
    """

    __slots__ = ("ctx", "req_q", "resp_q", "proc")

    def __init__(
        self,
        target,
        args: tuple = (),
        *,
        ctx=None,
        name: str | None = None,
    ) -> None:
        self.ctx = ctx if ctx is not None else default_context()
        self.req_q = self.ctx.Queue()
        self.resp_q = self.ctx.Queue()
        self.proc = self.ctx.Process(
            target=target,
            args=(*args, self.req_q, self.resp_q),
            name=name,
            daemon=True,
        )
        self.proc.start()

    @property
    def alive(self) -> bool:
        return self.proc.is_alive()

    def send(self, msg) -> None:
        """Enqueue one request for the child (any thread)."""
        self.req_q.put(msg)

    def recv(self, timeout: float | None = None):
        """Next response; raises ``queue.Empty`` when ``timeout`` expires."""
        return self.resp_q.get(timeout=timeout)

    def shutdown(self, join_timeout: float = 5.0) -> None:
        """Sentinel + join; terminate rather than hang on a wedged child."""
        if self.proc.is_alive():
            self.req_q.put(None)
        self.proc.join(timeout=join_timeout)
        if self.proc.is_alive():  # wedged (e.g. mid-straggle): kill
            self.proc.terminate()
            self.proc.join(timeout=join_timeout)
        self.req_q.cancel_join_thread()
        self.resp_q.cancel_join_thread()


def _worker_main(factory, telemetry, req_q, resp_q) -> None:
    """Persistent worker loop: cache the replica, serve gradient requests.

    Each request is ``(tag, updates, shard, fault)`` with
    ``tag = (step, shard_idx, attempt)``; ``updates`` maps parameter names
    to the arrays this replica is missing (empty when already current).
    Replies are ``(tag, "ok", (loss, grads, tele))`` or
    ``(tag, "error", msg)`` — compute exceptions (including injected
    crashes) are reported, never allowed to kill the loop, so the replica
    cache survives faults.  With ``telemetry`` on, ``tele`` carries the
    worker's metric delta and incremental trace dump since its last ok
    reply (``None`` otherwise); a faulted attempt's spans ship with the
    next ok reply, tagged with the exception.
    """
    model = None
    params = None
    registry = tracer = exporter = None
    trace_sent = 0
    if telemetry:
        registry = MetricsRegistry()
        tracer = Tracer()
        exporter = DeltaExporter(registry)
    while True:
        msg = req_q.get()
        if msg is None:
            return
        tag, updates, shard, fault = msg
        try:
            if model is None:
                model = factory()
                params = dict(model.named_parameters())
            # apply parameter deltas BEFORE fault injection: delivery is
            # infrastructure, only the compute may fault — a crashed
            # attempt must not leave the replica stale for the next one
            for name, arr in updates.items():
                params[name].data[...] = arr
            kind = None
            if fault is not None:
                spec, step, shard_idx, attempt = fault
                kind = spec.pre_compute(step, shard_idx, attempt)
            model.zero_grad()
            t0 = time.perf_counter()
            if tracer is None:
                loss = model.loss(shard)
                loss.backward()
            else:
                with tracer.span("step"):
                    with tracer.span("forward"):
                        loss = model.loss(shard)
                    with tracer.span("backward"):
                        loss.backward()
            grads = {
                name: (p.grad if p.grad is not None else np.zeros_like(p.data))
                for name, p in params.items()
            }
            if kind == "nan":
                FaultSpec.poison(grads)
            tele = None
            if telemetry:
                registry.counter("steps").inc()
                registry.gauge("loss").set(float(loss.data))
                registry.histogram("step_ms", STEP_MS_BUCKETS).observe(
                    (time.perf_counter() - t0) * 1e3
                )
                tele = {
                    "pid": os.getpid(),
                    "metrics": exporter.export(),
                    "trace": tracer.dump(trace_sent),
                }
                trace_sent = len(tracer.events)
            resp_q.put((tag, "ok", (float(loss.data), grads, tele)))
        except Exception as exc:  # injected crash or genuine compute error
            resp_q.put((tag, "error", f"{type(exc).__name__}: {exc}"))


def _poisoned(loss: float, grads: dict[str, np.ndarray]) -> bool:
    """A finite loss with non-finite gradients: the worker, not the model.

    A non-finite loss is the model's (every replica computes the same
    one), so it is left for the reduction's gate.
    """
    return math.isfinite(loss) and not all(
        np.isfinite(g).all() for g in grads.values()
    )


class _Worker(PersistentProcess):
    """One persistent worker process plus its data-parallel bookkeeping."""

    __slots__ = ("sent_version", "outstanding")

    def __init__(self, ctx, factory, telemetry: bool = False):
        super().__init__(_worker_main, (factory, telemetry), ctx=ctx)
        self.sent_version = 0  # last param version shipped to this replica
        self.outstanding = 0  # requests submitted but not yet drained


class MultiprocessCluster(SyncCluster):
    """Synchronous data-parallel gradients over real OS processes.

    Parameters
    ----------
    model_factory:
        A picklable zero-argument callable building the model (must be a
        module-level function or ``functools.partial`` of one).  All
        replicas are made identical by loading the parent's parameters,
        so the factory's own initialisation seed is irrelevant.
    n_workers:
        Process count.
    algorithm, bucket_mb, wire_dtype, stochastic_rounding, comm, device:
        The reduction, as for :class:`~repro.parallel.cluster.SimCluster`
        (see :class:`~repro.parallel.cluster.SyncCluster`).  The buckets
        are planned at the first step, from the model it is given.
    timeout:
        Seconds to wait for any one shard before declaring its worker
        crashed or hung (``None`` waits forever — the seed behaviour).
    max_retries:
        How many times one shard may be re-submitted within a step before
        the step fails with :class:`WorkerFaultError`.
    backoff:
        Base of the exponential backoff slept before the ``k``-th retry
        (``backoff * 2**k`` seconds).
    fault_spec:
        Optional :class:`~repro.parallel.faults.FaultSpec` injected into
        every worker computation — used by the tests and the resilience
        demo; ``None`` in production.
    telemetry:
        Run a local metrics registry + tracer inside every worker and
        ship deltas back on the response channel; the driver merges them
        into the active registry (``parallel/w<i>/...``) and ``tracer``.
    tracer:
        The driver-side :class:`~repro.obs.trace.Tracer` that absorbs
        worker trace dumps (typically ``obs.tracer``); ``None`` discards
        worker spans but keeps the metric merge.
    """

    def __init__(
        self,
        model_factory: Callable[[], object],
        n_workers: int,
        *,
        algorithm: str = "ring",
        bucket_mb: float | None = DEFAULT_BUCKET_MB,
        timeout: float | None = None,
        max_retries: int = 2,
        backoff: float = 0.05,
        fault_spec: FaultSpec | None = None,
        comm: CommModel | None = None,
        device: DeviceModel | None = None,
        telemetry: bool = False,
        tracer: Tracer | None = None,
        wire_dtype: str | None = None,
        stochastic_rounding: bool = False,
    ):
        super().__init__(
            n_workers, algorithm, bucket_mb, comm, device, wire_dtype,
            stochastic_rounding,
        )
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if backoff < 0:
            raise ValueError("backoff must be >= 0")
        self.model_factory = model_factory
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff = backoff
        self.fault_spec = fault_spec
        self.telemetry = telemetry
        self.tracer = tracer
        self.retries = 0
        # delta-broadcast accounting (exposed for tests and curiosity)
        self.broadcast_params = 0
        self.broadcast_bytes = 0
        self._step = 0
        self._version = 0  # bumps whenever any parameter changes
        self._shadow: dict[str, np.ndarray] = {}  # last-broadcast values
        self._changed_at: dict[str, int] = {}  # name -> version of change
        self._ctx = default_context()
        self._workers = [
            _Worker(self._ctx, model_factory, telemetry)
            for _ in range(n_workers)
        ]

    # -- fault bookkeeping --------------------------------------------------

    def _record_retry(self) -> None:
        self.retries += 1
        reg = get_active()
        if reg is not None:
            reg.counter("parallel/retries").inc()

    # -- telemetry merge ----------------------------------------------------

    def _merge_tele(self, w: int, tele: dict | None) -> None:
        """Fold one worker reply's telemetry into the driver's view.

        Metric deltas land in the active registry under
        ``parallel/w<i>/...``; the ``(slot, pid, seq)`` key makes a
        re-delivered delta a no-op while letting a respawned worker (new
        pid, seq restarting at 1) through.  Trace dumps are absorbed into
        :attr:`tracer` re-rooted under ``w<i>/``.
        """
        if tele is None:
            return
        reg = get_active()
        if reg is not None:
            delta = tele["metrics"]
            reg.merge(
                delta["metrics"],
                prefix=f"parallel/w{w}/",
                source=f"w{w}:{tele['pid']}",
                seq=delta["seq"],
            )
        if self.tracer is not None and tele["trace"]["events"]:
            self.tracer.absorb(
                tele["trace"], prefix=f"w{w}", process_name=f"worker {w}"
            )

    # -- the delta broadcast ------------------------------------------------

    def _refresh_versions(self, named: dict[str, "object"]) -> None:
        """Bump the version clock for parameters that changed since the
        last broadcast (optimizer updates, checkpoint rollbacks, ...)."""
        dirty = [
            name
            for name, p in named.items()
            if name not in self._shadow
            or not np.array_equal(self._shadow[name], p.data)
        ]
        if not dirty:
            return
        self._version += 1
        for name in dirty:
            self._changed_at[name] = self._version
            self._shadow[name] = named[name].data.copy()

    def _updates_for(self, worker: _Worker) -> dict[str, np.ndarray]:
        return {
            name: self._shadow[name]
            for name, changed in self._changed_at.items()
            if changed > worker.sent_version
        }

    # -- submission / collection --------------------------------------------

    def _submit(self, w: int, tag, shard, fault) -> None:
        worker = self._workers[w]
        if not worker.proc.is_alive():
            # the process died outright: respawn with an empty replica
            # cache (sent_version 0 forces a full state resend)
            self._workers[w] = worker = _Worker(
                self._ctx, self.model_factory, self.telemetry
            )
        updates = self._updates_for(worker)
        worker.req_q.put((tag, updates, shard, fault))
        worker.sent_version = self._version
        worker.outstanding += 1
        self.broadcast_params += len(updates)
        self.broadcast_bytes += sum(a.nbytes for a in updates.values())
        reg = get_active()
        if reg is not None and updates:
            reg.counter("parallel/broadcast/params").inc(len(updates))
            reg.counter("parallel/broadcast/bytes").inc(
                sum(a.nbytes for a in updates.values())
            )

    def _await(self, w: int, tag):
        """Next response for ``tag`` from worker ``w``; drains stale ones.

        A stale response (an abandoned earlier attempt that eventually
        completed) is dropped; a missing response within ``timeout``
        raises ``TimeoutError``.
        """
        worker = self._workers[w]
        deadline = (
            None if self.timeout is None else time.monotonic() + self.timeout
        )
        while True:
            remaining = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        f"no response within {self.timeout}s (worker {w})"
                    )
            try:
                got_tag, status, payload = worker.resp_q.get(timeout=remaining)
            except queue_mod.Empty:
                raise TimeoutError(
                    f"no response within {self.timeout}s (worker {w})"
                ) from None
            worker.outstanding -= 1
            if got_tag == tag:
                return status, payload
            if status == "ok":
                # a stale response from an abandoned retry attempt: the
                # gradient is unused but the work happened — keep its
                # telemetry so worker counters stay truthful
                self._merge_tele(w, payload[2])

    def _retry_worker(self, exclude: int) -> int:
        """Least-loaded worker other than the one that just faulted."""
        candidates = [w for w in range(self.n_workers) if w != exclude]
        if not candidates:
            return exclude
        return min(candidates, key=lambda w: self._workers[w].outstanding)

    # -- the step -----------------------------------------------------------

    def gradient_step(self, model, batch_arrays: Sequence[np.ndarray]) -> float:
        """Compute the global-batch gradient into ``model``'s ``.grad`` s.

        Returns the shard-weighted mean loss (== the full-batch loss of a
        mean-reduction objective), or the fault the shared step reports
        for a non-finite reduction (see
        :class:`~repro.parallel.cluster.SyncCluster`).  Raises
        :class:`WorkerFaultError` when any shard exhausts its retry
        budget.
        """
        shards = shard_batch(list(batch_arrays), self.n_workers)
        sizes = np.array([len(s[0]) for s in shards], dtype=np.float64)
        named = dict(model.named_parameters())
        params = list(named.values())
        if self.buckets is None:
            self._plan(params, names=list(named))
        self._refresh_versions(named)
        results = self._gather(shards)
        loss, _ = self._reduce_step(
            params,
            sizes,
            (
                (shard_loss, [grads[name] for name in named])
                for shard_loss, grads in results
            ),
        )
        return loss

    def _gather(self, shards) -> list[tuple[float, dict[str, np.ndarray]]]:
        """Every shard's ``(loss, gradients)`` from the workers, in order.

        A worker fault re-submits its shard to another worker, up to
        ``max_retries`` times; the step then fails with
        :class:`WorkerFaultError`.
        """
        n_active = len(shards)  # < n_workers on a remainder batch
        step = self._step
        self._step += 1

        def fault_coords(i: int, attempt: int):
            if self.fault_spec is None:
                return None
            return (self.fault_spec, step, i, attempt)

        attempts = [0] * n_active
        results: list[tuple[float, dict[str, np.ndarray]] | None] = (
            [None] * n_active
        )
        assigned: dict[int, int] = {}
        for i in range(n_active):
            self._submit(i, (step, i, 0), shards[i], fault_coords(i, 0))
            assigned[i] = i
        while assigned:
            for i in list(assigned):
                w = assigned[i]
                try:
                    status, payload = self._await(w, (step, i, attempts[i]))
                    if status == "error":
                        raise WorkerFaultError(f"shard {i}: {payload}")
                    loss, grads, tele = payload
                    self._merge_tele(w, tele)
                    if _poisoned(loss, grads):
                        raise WorkerFaultError(
                            f"shard {i} returned non-finite gradients"
                        )
                except Exception as exc:  # crash, hang/timeout, poisoned grads
                    self._record_fault()
                    if attempts[i] >= self.max_retries:
                        raise WorkerFaultError(
                            f"shard {i} failed after {attempts[i] + 1} attempts "
                            f"(step {step}): {exc}"
                        ) from exc
                    if self.backoff:
                        time.sleep(self.backoff * 2 ** attempts[i])
                    attempts[i] += 1
                    self._record_retry()
                    nw = self._retry_worker(exclude=w)
                    self._submit(
                        nw, (step, i, attempts[i]), shards[i],
                        fault_coords(i, attempts[i]),
                    )
                    assigned[i] = nw
                else:
                    results[i] = (loss, grads)
                    del assigned[i]
        return results

    # -- Trainer integration -----------------------------------------------

    def as_loss_fn(self, model) -> Callable[[Sequence[np.ndarray]], object]:
        """Adapter so the trainers can train through this cluster.

        Mirrors :meth:`repro.parallel.cluster.SimCluster.as_loss_fn`: the
        returned callable runs :meth:`gradient_step` (installing the
        reduced gradients into ``model``) and hands the loop a loss-like
        object whose ``backward()`` is a no-op.
        """
        return installing_loss_fn(lambda batch: self.gradient_step(model, batch))

    def close(self) -> None:
        for worker in self._workers:
            if worker.alive:
                worker.req_q.put(None)
        for worker in self._workers:
            worker.shutdown()

    def __enter__(self) -> "MultiprocessCluster":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
