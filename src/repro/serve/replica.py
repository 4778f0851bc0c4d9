"""One serving replica: a full single-process server behind a queue pair.

The scale-out fleet (:mod:`repro.serve.router`) is N copies of the
*existing* serving stack — :class:`~repro.serve.engine.InferenceEngine`,
:class:`~repro.serve.batcher.DynamicBatcher`,
:class:`~repro.serve.server.Server` — each running in its own process on
the :class:`~repro.parallel.mp.PersistentProcess` harness the training
side already uses for gradient workers.  This module is the child half:

* ``_replica_main`` builds the stack inside the child (with a
  :class:`~repro.obs.telemetry.ChildTelemetry` when telemetry is on, the
  channel the data-parallel workers ship theirs through) and serves a
  tiny message protocol;
* :class:`ReplicaHandle` is the parent-side view: the process, its
  in-flight request table, and the last load/version report — the raw
  material every routing policy reads.

Protocol (parent → replica):

========================  =====================================================
``("req", rid, p, n)``    submit payload ``p`` (seq_len ``n``) as request
                          ``rid``; the reply ships the moment it exists via
                          the request's ``on_done`` hook — no polling.
``("swap", path)``        stage checkpoint ``path`` for between-batch hot-swap.
``None``                  drain everything queued, report once more, exit.
========================  =====================================================

Replica → parent:

=================================  ===========================================
``("result", rid, r, ver, d)``     request ``rid`` finished with ``r``
                                   (:data:`SHED_MARKER` when refused — the
                                   :data:`~repro.serve.batcher.SHED` sentinel
                                   is identity-compared and does not survive
                                   pickling); ``ver``/``d`` are the engine
                                   version and queue depth at completion.
``("tele", info)``                 heartbeat: version, depth, counters and
                                   the :class:`~repro.obs.telemetry.
                                   ChildTelemetry` payload (``None`` with
                                   telemetry off).  Sent every idle
                                   :data:`TICK` seconds, so the parent's
                                   load/version view is never older than
                                   one tick.
``("bye", info)``                  final report before a clean exit.
=================================  ===========================================

Because response queues are FIFO in put order, once the parent has seen a
replica report version ``v`` every *later* result from that replica was
served at version ``>= v`` — the property the router's coordinated swap
convergence leans on.
"""

from __future__ import annotations

import queue
from functools import partial

from repro.obs.metrics import set_active
from repro.obs.telemetry import ChildTelemetry
from repro.parallel.mp import PersistentProcess
from repro.serve.batcher import SHED, DynamicBatcher
from repro.serve.server import Server

__all__ = ["ReplicaHandle", "SHED_MARKER", "TICK"]

#: Wire stand-in for the :data:`~repro.serve.batcher.SHED` sentinel —
#: identity does not survive pickling, so the parent re-finishes the
#: original request with the real sentinel on receipt.
SHED_MARKER = "__shed__"

#: Idle heartbeat period (seconds): the staleness bound on the parent's
#: view of a quiet replica's queue depth and version.
TICK = 0.05


def _replica_main(
    engine_factory,
    batcher_kwargs,
    telemetry,
    metrics_every_batches,
    req_q,
    resp_q,
) -> None:
    """Child entry point: build the serving stack, speak the protocol.

    ``engine_factory`` is a zero-arg callable returning the engine to
    serve (under the default ``fork`` start method a closure works; with
    ``spawn`` it must be picklable, i.e. module-level — the same
    constraint the training workers' model factories carry).
    """
    tele = ChildTelemetry() if telemetry else None
    # under fork the child inherits the parent's active registry — point
    # the stack at our own (or at nothing) so replica metrics never leak
    # into a copied parent object
    set_active(tele.registry if tele is not None else None)
    engine = engine_factory()
    batcher = DynamicBatcher(**batcher_kwargs)
    server = Server(
        engine,
        batcher,
        obs=tele,  # the server reads only ``obs.tracer``
        metrics_every_batches=metrics_every_batches if telemetry else 0,
    )

    def info() -> dict:
        return {
            "version": engine.version,
            "depth": batcher.depth(),
            "counters": server.counters(),
            "tele": tele.ship() if tele is not None else None,
        }

    def ship(rid: int, request) -> None:
        # runs on whichever thread finishes the request (worker thread,
        # or this thread for a synchronous shed inside submit)
        result = SHED_MARKER if request.result is SHED else request.result
        resp_q.put(("result", rid, result, engine.version, batcher.depth()))

    server.start()
    try:
        while True:
            try:
                msg = req_q.get(timeout=TICK)
            except queue.Empty:
                resp_q.put(("tele", info()))
                continue
            if msg is None:
                break
            kind = msg[0]
            if kind == "req":
                _, rid, payload, seq_len = msg
                server.submit(payload, seq_len, on_done=partial(ship, rid))
            elif kind == "swap":
                server.request_swap(msg[1])
    finally:
        # drain: every queued request is answered (and shipped by its
        # on_done hook) before the final report — retirement drops nothing
        server.stop()
        resp_q.put(("bye", info()))


class ReplicaHandle:
    """Parent-side state for one replica process.

    Everything a routing policy can read lives here: ``depth`` (the
    replica's own queue, from its last report), ``pending`` (requests
    this parent has sent and not yet seen answered — the join-shortest-
    queue signal, exact and report-lag-free), and ``version`` (the
    replica's checkpoint step, ``None`` until its first report).
    Mutation happens under the router's lock; this class is dumb on
    purpose.
    """

    def __init__(
        self,
        index: int,
        engine_factory,
        *,
        batcher: dict | None = None,
        telemetry: bool = True,
        metrics_every_batches: int = 0,
    ) -> None:
        self.index = index
        self.proc = PersistentProcess(
            _replica_main,
            (
                engine_factory,
                dict(batcher or {}),
                bool(telemetry),
                int(metrics_every_batches),
            ),
            name=f"repro-serve-r{index}",
        )
        self.pending: dict[int, object] = {}
        self.depth = 0
        self.version: int | None = None
        self.counters: dict[str, int] = {}
        self.dead = False

    @property
    def active(self) -> bool:
        """Routable: not dead, process still up."""
        return not self.dead and self.proc.alive

    # -- parent → replica messages ------------------------------------------

    def send_request(self, rid: int, payload, seq_len) -> None:
        self.proc.send(("req", rid, payload, seq_len))

    def send_swap(self, path) -> None:
        self.proc.send(("swap", str(path)))

    def request_stop(self) -> None:
        """Ask the replica to drain and exit (it answers with ``bye``)."""
        self.proc.send(None)
