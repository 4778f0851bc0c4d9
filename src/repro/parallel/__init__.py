"""Simulated data-parallel substrate.

The paper's speedups come from running large batches on TPU pods.  Offline
we rebuild the two ingredients:

* **numerically exact collectives** (:mod:`repro.parallel.allreduce`) —
  ring, tree (recursive halving-doubling) and naive gather-broadcast
  all-reduce over per-worker gradient arrays, used by
  :class:`~repro.parallel.cluster.SimCluster` to show the defining
  equivalence of data parallelism: the all-reduced mean of per-shard
  gradients equals the single large-batch gradient;
* **an α-β communication + device cost model**
  (:mod:`repro.parallel.cost`, :mod:`repro.parallel.perfmodel`) that turns
  batch sizes into wall-clock estimates, calibrated per application to the
  hardware numbers the paper reports (DESIGN.md §2) — this regenerates the
  Figure 4 speedup bars and the 5.3× average;
* **DDP-style gradient buckets** (:mod:`repro.parallel.buckets`) — packing
  parameters into fixed-size dtype-true buckets in backward-completion
  order, reducing bucket-by-bucket with bounded transient memory, and
  simulating the comm/compute overlap timeline under the α-β model;
* **real multiprocess workers** (:mod:`repro.parallel.mp`) — persistent
  OS-process replicas fed parameter deltas, with fault tolerance, sharing
  the same bucketed reduction (docs/parallel.md).
"""

from repro.parallel.allreduce import (
    ALGORITHMS,
    ring_allreduce,
    tree_allreduce,
    naive_allreduce,
    allreduce_mean,
    allreduce_mean_single,
)
from repro.parallel.buckets import (
    BACKWARD_FRACTION,
    DEFAULT_BUCKET_MB,
    BucketTiming,
    GradientBuckets,
    OverlapTimeline,
)
from repro.parallel.cost import (
    CommModel,
    allreduce_time,
    ring_time,
    tree_time,
    naive_time,
)
from repro.parallel.cluster import SimCluster, shard_batch
from repro.parallel.faults import (
    FaultSpec,
    LossFaultInjector,
    WorkerCrashError,
    WorkerFaultError,
)
from repro.parallel.mp import MultiprocessCluster
from repro.parallel.perfmodel import DeviceModel, APP_DEVICE_MODELS, epoch_time, speedup

__all__ = [
    "MultiprocessCluster",
    "FaultSpec",
    "LossFaultInjector",
    "WorkerCrashError",
    "WorkerFaultError",
    "ALGORITHMS",
    "ring_allreduce",
    "tree_allreduce",
    "naive_allreduce",
    "allreduce_mean",
    "allreduce_mean_single",
    "BACKWARD_FRACTION",
    "DEFAULT_BUCKET_MB",
    "BucketTiming",
    "GradientBuckets",
    "OverlapTimeline",
    "CommModel",
    "allreduce_time",
    "ring_time",
    "tree_time",
    "naive_time",
    "SimCluster",
    "shard_batch",
    "DeviceModel",
    "APP_DEVICE_MODELS",
    "epoch_time",
    "speedup",
]
