"""Inference serving: dynamic batching, checkpoint hot-swap, load gen.

The serving counterpart of the training stack (docs/serving.md).  The
paper's large-batch argument — batch scale amortises per-step overhead —
applies unchanged to inference, so the serving layer's whole job is to
*manufacture* a batch axis out of concurrent requests:

* :class:`~repro.serve.engine.InferenceEngine` — a trained model pinned
  into inference mode (eval, no-grad, fused kernels) with task heads for
  MNIST-LSTM classification, PTB next-token scoring and GNMT beam
  decoding;
* :class:`~repro.serve.batcher.DynamicBatcher` — bounded request queue
  coalescing under a ``max_batch_size`` / ``max_wait_ms`` policy with
  length-bucketed padding;
* :class:`~repro.serve.server.Server` — the worker loop: admission
  control with deterministic load-shedding, checkpoint hot-swap that
  drains in-flight batches without dropping queued requests, ``serve/*``
  metrics into :mod:`repro.obs`;
* :mod:`~repro.serve.loadgen` — seeded open-loop (Poisson) and
  closed-loop load generators reporting throughput and p50/p95/p99
  latency;
* :class:`~repro.serve.router.Router` — the scale-out fleet: N replica
  processes (:mod:`~repro.serve.replica`) behind pluggable routing
  policies, with version-clocked coordinated hot-swap and respawn of a
  replica that dies.  :class:`~repro.serve.engine.PacedEngine` paces
  engine compute against a fixed-plus-per-sample device model so fleet
  scaling benchmarks measure the routing machinery, not host core count.
"""

from repro.serve.batcher import SHED, DynamicBatcher, Request
from repro.serve.engine import InferenceEngine, PacedEngine, TASKS
from repro.serve.loadgen import LoadReport, run_closed_loop, run_open_loop
from repro.serve.quantize import QuantizedMnistRunner, quantize_int8
from repro.serve.replica import ReplicaHandle
from repro.serve.router import POLICIES, Router
from repro.serve.server import (
    BATCH_SIZE_BUCKETS,
    LATENCY_MS_BUCKETS,
    Server,
)

__all__ = [
    "SHED",
    "DynamicBatcher",
    "Request",
    "InferenceEngine",
    "PacedEngine",
    "TASKS",
    "LoadReport",
    "run_open_loop",
    "run_closed_loop",
    "QuantizedMnistRunner",
    "quantize_int8",
    "Server",
    "Router",
    "ReplicaHandle",
    "POLICIES",
    "BATCH_SIZE_BUCKETS",
    "LATENCY_MS_BUCKETS",
]
