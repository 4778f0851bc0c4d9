"""Synchronous data-parallel clusters: the shared step and ``SimCluster``.

A cluster executes one *logical* large-batch SGD step the way a
``p``-worker synchronous data-parallel system would: shard the global
batch, compute each worker's gradient with the real autograd engine,
average via an all-reduce, and leave the mean installed for one
optimizer update.  ``SimCluster`` computes the shard gradients
in-process; :class:`~repro.parallel.mp.MultiprocessCluster` computes
them on persistent worker processes.  Everything after that — the
parent's side of the step — is written once, in :class:`SyncCluster`,
and both clusters run it.

The key invariant (verified by the test suite) is the one all large-batch
scaling arguments rest on: because the loss is a per-example mean, the
all-reduced mean of per-shard gradients equals the single-process gradient
of the full batch — so LEGW experiments run single-process are *exact*
simulations of the distributed runs in the paper.

Gradient aggregation goes through :class:`~repro.parallel.buckets.
GradientBuckets`, planned once per cluster: per-worker gradients are
packed into ~``bucket_mb`` MiB dtype-true buckets (reverse-registration
order, the order backward completes them) and reduced bucket-by-bucket,
which bounds the reduction's transient memory by the largest bucket
instead of the whole model and lets the overlap timeline hide
communication under backward compute.  ``bucket_mb=None`` reduces one
bucket per dtype (the monolithic ablation baseline).

A reduced gradient that is not finite (an overflowed fp16 wire, a
diverging model) is never installed: the step clears every
``param.grad``, counts ``parallel/faults_detected`` and reports its loss
as observed when that loss is non-finite, NaN otherwise, so the
trainer's own fault policy stops or rolls back at that step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.obs.metrics import get_active
from repro.parallel.buckets import (
    BACKWARD_FRACTION,
    DEFAULT_BUCKET_MB,
    GradientBuckets,
    OverlapTimeline,
)
from repro.parallel.cost import CommModel
from repro.parallel.perfmodel import DeviceModel
from repro.tensor.tensor import Tensor


def shard_batch(batch_arrays: Sequence[np.ndarray], p: int) -> list[tuple[np.ndarray, ...]]:
    """Split the leading axis of every array in the batch into shards.

    Shard sizes follow ``np.array_split`` semantics (first shards one
    larger when uneven).  When the batch holds fewer than ``p`` examples —
    the final remainder batch of a ``drop_last=False`` epoch — only
    ``min(p, n)`` *active* shards are returned, one example each; the
    remaining workers simply sit the step out (a real synchronous system
    gives them zero-weight in the reduction).
    """
    n = len(batch_arrays[0])
    if p < 1:
        raise ValueError("worker count must be >= 1")
    if n < 1:
        raise ValueError("cannot shard an empty batch")
    active = min(p, n)
    split = [np.array_split(np.asarray(a), active) for a in batch_arrays]
    return [
        tuple(split[j][w] for j in range(len(batch_arrays)))
        for w in range(active)
    ]


@dataclass
class NoiseTap:
    """Per-shard gradient statistics harvested from one all-reduce step.

    Data-parallel training materialises exactly the quantities the
    two-batch noise-scale estimator needs — each worker's small-batch
    gradient and their average, the big-batch gradient — so a step with
    ``noise_tap`` enabled records the squared norms here for
    :class:`repro.adapt.OnlineNoiseScale` to consume at zero extra
    backward passes.

    ``shard_sq_norms`` are the *unscaled* per-shard mean-loss gradient
    squared norms; ``big_sq_norm`` is the squared norm of the reduced
    (full-batch) gradient.  The effective small-batch size for the
    elimination is the harmonic mean of the shard sizes (because
    ``E‖g_b‖² = ‖G‖² + tr(Σ)/b`` averages over shards through ``1/b``).
    """

    shard_sizes: list[int]
    shard_sq_norms: list[float]
    big_size: int
    big_sq_norm: float

    @property
    def small_size(self) -> float:
        inv = sum(1.0 / max(1, b) for b in self.shard_sizes)
        return len(self.shard_sizes) / inv

    @property
    def small_sq_norm(self) -> float:
        return float(np.mean(self.shard_sq_norms))

    def usable(self) -> bool:
        """A single active shard degenerates to ``b_small == b_big``."""
        return len(self.shard_sizes) >= 2 and self.big_size > self.small_size


class _InstalledGradients:
    """Loss-like adapter so a cluster can drive the trainers.

    ``loss_fn(batch)`` in the training loop returns this object:
    ``cluster.gradient_step`` has already run (installing the all-reduced
    gradients), ``.data`` carries the weighted mean loss for the loop's
    divergence check, and ``.backward()`` is a no-op because the gradients
    are in place.
    """

    def __init__(self, mean_loss: float):
        self.data = np.float64(mean_loss)

    def backward(self) -> None:  # gradients were installed by gradient_step
        return None


def installing_loss_fn(step: Callable[[object], float]) -> Callable[[object], object]:
    """A ``loss_fn`` for the trainers from a cluster step.

    ``step(batch)`` installs the reduced gradients and returns the mean
    loss.  The adapter is marked ``installs_gradients``: the trainers'
    amp default is off for it (:class:`repro.train.Trainer`).
    """

    def loss_fn(batch):
        return _InstalledGradients(step(batch))

    loss_fn.installs_gradients = True
    return loss_fn


class SyncCluster:
    """The parent's side of a synchronous data-parallel step.

    Both clusters subclass this and differ only in where each shard's
    gradient is computed.  :meth:`_reduce_step` weights each shard by its
    size, scales and packs its gradient, reduces the buckets, gates,
    installs, records the noise tap and the overlap timeline, and returns
    the mean loss.

    Parameters
    ----------
    n_workers:
        Worker count.  A batch smaller than ``n_workers`` (the remainder
        batch of a ``drop_last=False`` epoch) runs on ``min(n, batch)``
        active workers; the rest sit the step out.
    algorithm:
        All-reduce flavour (``ring``/``tree``/``naive``).
    bucket_mb:
        Gradient bucket capacity in MiB (default
        :data:`~repro.parallel.buckets.DEFAULT_BUCKET_MB`); ``None``
        reduces one bucket per dtype.
    comm, device:
        α-β link and device models for the simulated overlap timeline
        (defaults: :class:`CommModel()` and a pure per-sample device).
    wire_dtype, stochastic_rounding:
        Wire compression for the reduction — see
        :class:`~repro.parallel.buckets.GradientBuckets`.  The rounding
        stream runs on across the cluster's steps.
    """

    def __init__(
        self,
        n_workers: int,
        algorithm: str = "ring",
        bucket_mb: float | None = DEFAULT_BUCKET_MB,
        comm: CommModel | None = None,
        device: DeviceModel | None = None,
        wire_dtype: str | None = None,
        stochastic_rounding: bool = False,
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = n_workers
        self.algorithm = algorithm
        self.bucket_mb = bucket_mb
        self.wire_dtype = wire_dtype
        self.stochastic_rounding = bool(stochastic_rounding)
        self.comm = comm or CommModel()
        self.device = device or DeviceModel(t_fixed=0.0, t_sample=1.0)
        self.buckets: GradientBuckets | None = None  # see _plan
        self.faults_detected = 0
        self.last_timeline: OverlapTimeline | None = None
        # opt-in shard-gradient statistics for the online noise-scale
        # estimator (repro.adapt); off by default so the plain training
        # path never pays the extra squared-norm reductions
        self.noise_tap = False
        self.last_noise_tap: NoiseTap | None = None

    def _plan(self, params: Sequence, names: Sequence[str] | None = None) -> None:
        """Plan the buckets, once per cluster."""
        self.buckets = GradientBuckets(
            params,
            bucket_mb=self.bucket_mb,
            wire_dtype=self.wire_dtype,
            stochastic_rounding=self.stochastic_rounding,
            names=names,
        )

    def _record_fault(self) -> None:
        self.faults_detected += 1
        reg = get_active()
        if reg is not None:
            reg.counter("parallel/faults_detected").inc()

    def _reduce_step(
        self,
        params: Sequence[Tensor],
        sizes: np.ndarray,
        shard_grads: Iterable[tuple[float, Sequence[np.ndarray]]],
    ) -> tuple[float, list[np.ndarray]]:
        """Reduce the shards' gradients into ``params`` and return the loss.

        ``shard_grads`` yields each active shard's ``(loss, gradients)``,
        the gradients aligned with ``params``; it is consumed one shard at
        a time, so a lazy producer finishes each shard before computing
        the next, and only the previous shard's scaled gradients stay
        alive meanwhile.  Returns ``(mean loss, reduced gradients)``; a
        non-finite reduction is returned but never installed.
        """
        weights = sizes / sizes.sum()
        n_active = len(sizes)
        losses: list[float] = []
        shard_sq: list[float] = []
        packed: list[list[np.ndarray]] = []
        for (loss, grads), w in zip(shard_grads, weights):
            # weight by shard fraction so uneven shards still average
            # to the exact full-batch gradient of a mean loss
            scale = w * n_active
            grads = [
                np.asarray(g * scale, dtype=p.data.dtype).reshape(p.data.shape)
                for p, g in zip(params, grads)
            ]
            if self.noise_tap:
                # squared norm of the shard's *unscaled* mean-loss gradient
                sq = sum(float(np.sum(g.astype(np.float64) ** 2)) for g in grads)
                shard_sq.append(sq / (scale * scale) if scale else 0.0)
            packed.append(self.buckets.pack(grads))
            losses.append(loss)
        reduced = self.buckets.reduce_packed(packed, algorithm=self.algorithm)
        mean_loss = float(np.dot(weights, losses))
        if not all(np.isfinite(g).all() for g in reduced):
            # never installed; the trainer's fault policy takes the step,
            # with the loss as observed when it is itself non-finite
            for p in params:
                p.grad = None
            self._record_fault()
            if math.isfinite(mean_loss):
                mean_loss = math.nan
            return mean_loss, reduced
        for p, g in zip(params, reduced):
            p.grad = g
        if self.noise_tap:
            self.last_noise_tap = NoiseTap(
                shard_sizes=[int(b) for b in sizes],
                shard_sq_norms=shard_sq,
                big_size=int(sizes.sum()),
                big_sq_norm=float(sum(float(np.sum(g * g)) for g in reduced)),
            )
        reg = get_active()
        if reg is not None:  # keep the uninstrumented path allocation-free
            self.last_timeline = self.simulate_step(int(sizes.max()))
            self.last_timeline.record(reg)
        return mean_loss, reduced

    def simulate_step(self, shard_batch_size: int) -> OverlapTimeline:
        """The α-β/device-model timeline of one step at this shard size."""
        backward = (
            self.device.iteration_time(max(1, shard_batch_size))
            * BACKWARD_FRACTION
        )
        return self.buckets.simulate_overlap(
            self.n_workers, backward, algorithm=self.algorithm, comm=self.comm
        )


class SimCluster(SyncCluster):
    """Synchronous data-parallel executor over the real autograd model.

    Parameters
    ----------
    params:
        The model's trainable tensors (shared by all simulated workers —
        synchronous SGD keeps replicas identical, so one copy suffices).
    loss_fn:
        ``loss_fn(shard_batch) -> Tensor`` computing a *mean* loss over the
        shard.

    The other parameters are :class:`SyncCluster`'s.
    """

    def __init__(
        self,
        params: Sequence[Tensor],
        loss_fn: Callable[[tuple[np.ndarray, ...]], Tensor],
        n_workers: int,
        algorithm: str = "ring",
        bucket_mb: float | None = DEFAULT_BUCKET_MB,
        comm: CommModel | None = None,
        device: DeviceModel | None = None,
        wire_dtype: str | None = None,
        stochastic_rounding: bool = False,
    ) -> None:
        super().__init__(
            n_workers, algorithm, bucket_mb, comm, device, wire_dtype,
            stochastic_rounding,
        )
        self.params = list(params)
        self.loss_fn = loss_fn
        self._plan(self.params)

    def _shard_grad(self, shard) -> tuple[float, list[np.ndarray]]:
        """One worker's loss and per-parameter gradients.

        A plain call, so the shard's graph is freed on return, before
        the next shard's forward.
        """
        for p in self.params:
            p.grad = None
        loss = self.loss_fn(shard)
        loss.backward()
        return float(loss.data), [
            p.grad if p.grad is not None else np.zeros_like(p.data)
            for p in self.params
        ]

    def gradient_step(
        self, batch_arrays: Sequence[np.ndarray]
    ) -> tuple[float, list[np.ndarray]]:
        """Compute the all-reduced global-batch gradient.

        Returns ``(weighted mean loss, per-param gradient list)`` and
        leaves the averaged gradients installed in ``param.grad`` so any
        :class:`repro.optim.Optimizer` can apply the update.  Gradient
        dtype follows ``param.data.dtype`` end-to-end.  A non-finite
        reduction is returned but not installed (see :class:`SyncCluster`).
        """
        shards = shard_batch(batch_arrays, self.n_workers)
        sizes = np.array([len(s[0]) for s in shards], dtype=np.float64)
        return self._reduce_step(
            self.params, sizes, map(self._shard_grad, shards)
        )

    # -- Trainer integration -----------------------------------------------

    def as_loss_fn(self, model) -> Callable[[Sequence[np.ndarray]], _InstalledGradients]:
        """Adapter so the trainers can train through this cluster.

        ``model`` must own this cluster's parameters (both clusters take
        it).  The returned callable runs :meth:`gradient_step`
        (installing the reduced gradients) and hands the loop a loss-like
        object whose ``backward()`` is a no-op — the trainer's clip/step
        machinery then operates on the all-reduced gradients exactly as it
        would on single-process ones.
        """
        if {id(p) for p in model.parameters()} != {id(p) for p in self.params}:
            raise ValueError("model does not own this cluster's parameters")
        return installing_loss_fn(lambda batch: self.gradient_step(batch)[0])

    def close(self) -> None:
        """Nothing to release: the workers are simulated in-process."""
