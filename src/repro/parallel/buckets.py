"""Bucketed gradient all-reduce with a simulated comm/compute overlap model.

Real data-parallel frameworks (Horovod, PyTorch DDP) never all-reduce the
model gradient as one monolithic buffer: they pack parameters into
fixed-size *buckets* and launch each bucket's all-reduce as soon as its
gradients are produced by the backward pass, hiding communication under
the remaining backward compute.  This module rebuilds both halves of that
design offline:

* :class:`GradientBuckets` — a planner that packs parameters into
  ~``bucket_mb`` MiB flat buckets in **reverse registration order** (the
  order backward completes them: the last-registered parameters get their
  gradients first), dtype-homogeneous per bucket so an fp32 gradient never
  silently travels as fp64 (``bucket_mb=None`` sets no cap, so a
  one-dtype model reduces as one bucket).  ``pack``/``unpack`` move
  per-parameter gradients into and out of the flat buffers (zero-copy
  views where a bucket holds a single contiguous parameter), and
  ``reduce_packed`` reduces bucket-by-bucket through the
  :mod:`~repro.parallel.allreduce` schedules, freeing each worker's bucket
  buffer as soon as it is consumed — so the reduction's transient working
  set is bounded by the *largest bucket*, not the whole model.

* :meth:`GradientBuckets.simulate_overlap` — a per-step timeline under the
  α-β communication model (:mod:`repro.parallel.cost`): bucket ``i``'s
  all-reduce may start once its share of the backward pass has completed
  *and* the previous bucket's all-reduce has finished (one in-flight
  collective, as on a real interconnect), so the exposed communication
  time is whatever spills past the end of backward.  The resulting
  :class:`OverlapTimeline` reports total/hidden/exposed comm, the overlap
  fraction, and the step time next to the monolithic baseline (all comm
  exposed after backward).

A third half, added for mixed precision: **wire compression**.  With
``wire_dtype="fp16"`` each packed bucket is cast to real ``np.float16``
before entering the all-reduce schedule (which accumulates in float64
internally — see :mod:`~repro.parallel.allreduce` — so only the *wire*
loses precision, not the reduction), then cast back to the bucket dtype.
The ``allreduce/*/bytes`` counters key on the buffers' own itemsize, so
fp16 wires honestly report 2 bytes/element, and the α-β overlap timeline
prices each bucket at its wire width — the ~2x (vs fp32) / 4x (vs fp64)
comm-volume reduction the mixed-precision papers bank on.
``wire_dtype="bf16"`` emulates bfloat16 values (fp32 range, 8-bit
mantissa) but travels in float32 containers, NumPy having no bf16 dtype:
the timeline prices it at its true 2 bytes while the ``allreduce/*``
counters see the 4-byte container.  ``stochastic_rounding=True`` rounds
the fp16 wire stochastically (unbiased) instead of to-nearest — the
ablation knob.

Each data-parallel cluster plans one ``GradientBuckets`` and calls
``pack`` and ``reduce_packed`` from the one step both clusters share
(:class:`~repro.parallel.cluster.SyncCluster`), so the wire's rounding
stream runs on across a cluster's steps.

When a metrics registry is active, ``reduce_packed`` increments
``parallel/buckets/reduced`` / ``parallel/buckets/bytes`` counters (the
latter in wire bytes) and :meth:`OverlapTimeline.record` sets the
``parallel/overlap/*`` gauges — see docs/parallel.md for the full
counter contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.obs.metrics import get_active
from repro.parallel.allreduce import allreduce_mean_single
from repro.parallel.cost import CommModel, allreduce_time
from repro.tensor.amp import bf16_roundtrip, quantize_fp16_stochastic

__all__ = [
    "DEFAULT_BUCKET_MB",
    "BACKWARD_FRACTION",
    "WIRE_DTYPES",
    "BucketSlot",
    "Bucket",
    "GradientBuckets",
    "BucketTiming",
    "OverlapTimeline",
]

DEFAULT_BUCKET_MB = 25.0
# accepted wire_dtype values and the per-element bytes each puts on the wire
WIRE_DTYPES = (None, "fp32", "fp16", "bf16")
_WIRE_ITEMSIZE = {"fp32": 4, "fp16": 2, "bf16": 2}
# Share of an iteration spent in backward (the classic ~2x-forward rule of
# thumb for LSTM stacks); used to turn a device-model iteration time into
# the backward window communication can hide under.
BACKWARD_FRACTION = 2.0 / 3.0


@dataclass(frozen=True)
class BucketSlot:
    """One parameter's place inside a bucket's flat buffer."""

    param: int  # index into the planner's parameter list
    offset: int  # start offset in the bucket buffer, in elements
    size: int
    shape: tuple[int, ...]


@dataclass(frozen=True)
class Bucket:
    """A dtype-homogeneous flat buffer covering one or more parameters."""

    index: int
    slots: tuple[BucketSlot, ...]
    dtype: np.dtype
    size: int  # total elements

    @property
    def nbytes(self) -> int:
        return self.size * self.dtype.itemsize


def _param_spec(param) -> tuple[tuple[int, ...], np.dtype]:
    """Extract ``(shape, dtype)`` from a Tensor, ndarray, or explicit pair."""
    if isinstance(param, np.ndarray):
        return tuple(param.shape), param.dtype
    data = getattr(param, "data", None)  # Tensor-likes carry .data
    if isinstance(data, np.ndarray):
        return tuple(data.shape), data.dtype
    shape, dtype = param
    return tuple(int(s) for s in shape), np.dtype(dtype)


class GradientBuckets:
    """Pack parameters into ~``bucket_mb`` MiB all-reduce buckets.

    Parameters
    ----------
    params:
        The model's parameters in **registration order** — Tensors,
        ndarrays, or ``(shape, dtype)`` pairs (the latter lets cost-model
        studies plan buckets for hypothetical models without allocating
        them).
    bucket_mb:
        Target bucket capacity in MiB.  A single parameter larger than the
        cap still gets its own bucket (buckets never split a parameter);
        parameters of different dtypes never share a bucket.  ``None``
        puts no cap on a bucket: a new one starts only where the dtype
        changes, so a one-dtype model reduces as one bucket.
    wire_dtype:
        ``None`` (ship buckets in their own dtype), ``"fp32"``,
        ``"fp16"`` or ``"bf16"`` — compress each bucket to this format
        for the all-reduce wire, accumulating in wider precision inside
        the schedule and casting back afterwards.
    stochastic_rounding:
        Round the fp16 wire stochastically (unbiased, seeded) instead of
        to-nearest.  Only meaningful with ``wire_dtype="fp16"``.
    names:
        Optional per-parameter names, used only to make dtype-mismatch
        errors in :meth:`pack` name the offending parameter.
    """

    def __init__(
        self,
        params: Sequence,
        bucket_mb: float | None = DEFAULT_BUCKET_MB,
        *,
        wire_dtype: str | None = None,
        stochastic_rounding: bool = False,
        names: Sequence[str] | None = None,
        seed: int = 0,
    ):
        if bucket_mb is not None and bucket_mb <= 0:
            raise ValueError("bucket_mb must be positive (or None)")
        if wire_dtype not in WIRE_DTYPES:
            raise ValueError(
                f"wire_dtype must be one of {WIRE_DTYPES}, got {wire_dtype!r}"
            )
        if stochastic_rounding and wire_dtype != "fp16":
            raise ValueError("stochastic_rounding requires wire_dtype='fp16'")
        specs = [_param_spec(p) for p in params]
        if not specs:
            raise ValueError("need at least one parameter to bucket")
        self.bucket_mb = None if bucket_mb is None else float(bucket_mb)
        self.wire_dtype = wire_dtype
        self.stochastic_rounding = bool(stochastic_rounding)
        self._wire_rng = np.random.default_rng(seed)
        self.names = list(names) if names is not None else None
        if self.names is not None and len(self.names) != len(specs):
            raise ValueError("names must align with params")
        self.n_params = len(specs)
        cap_bytes = math.inf if bucket_mb is None else bucket_mb * 2**20

        # reverse registration order == backward-completion order: the
        # gradients of the last-registered parameters are produced first,
        # so their bucket can start reducing earliest.
        buckets: list[Bucket] = []
        slots: list[BucketSlot] = []
        offset = 0
        dtype: np.dtype | None = None

        def flush() -> None:
            nonlocal slots, offset, dtype
            if slots:
                buckets.append(
                    Bucket(len(buckets), tuple(slots), dtype, offset)
                )
            slots, offset, dtype = [], 0, None

        for idx in reversed(range(self.n_params)):
            shape, dt = specs[idx]
            size = int(np.prod(shape, dtype=np.int64)) if shape else 1
            nbytes = size * dt.itemsize
            if slots and (
                dt != dtype or (offset * dtype.itemsize) + nbytes > cap_bytes
            ):
                flush()
            dtype = dt
            slots.append(BucketSlot(idx, offset, size, shape))
            offset += size
        flush()

        self.buckets: tuple[Bucket, ...] = tuple(buckets)
        self.total_elems = sum(b.size for b in self.buckets)
        self.total_bytes = sum(b.nbytes for b in self.buckets)
        self.total_wire_bytes = sum(self.wire_nbytes(b) for b in self.buckets)

    # -- wire compression ---------------------------------------------------

    def wire_nbytes(self, bucket: Bucket) -> int:
        """Bytes the bucket occupies on the all-reduce wire."""
        if self.wire_dtype is None:
            return bucket.nbytes
        return bucket.size * _WIRE_ITEMSIZE[self.wire_dtype]

    def _compress(self, buf: np.ndarray) -> np.ndarray:
        """Cast one packed buffer to the wire format."""
        if self.wire_dtype == "fp32":
            return buf.astype(np.float32)
        if self.wire_dtype == "fp16":
            if self.stochastic_rounding:
                return quantize_fp16_stochastic(buf, self._wire_rng)
            with np.errstate(over="ignore"):  # overflow→inf, like real fp16
                return buf.astype(np.float16)
        # bf16 values in a float32 container (NumPy has no bf16 dtype); the
        # allreduce/* byte counters therefore see 4 bytes/elem for bf16 —
        # wire_nbytes() and the overlap timeline price the true 2
        return bf16_roundtrip(buf).astype(np.float32)

    # -- introspection ------------------------------------------------------

    @property
    def num_buckets(self) -> int:
        return len(self.buckets)

    @property
    def max_bucket_bytes(self) -> int:
        return max(b.nbytes for b in self.buckets)

    def reduce_peak_bytes(self, p: int) -> int:
        """Transient float64 working bytes of :meth:`reduce_packed`.

        The schedule copies ``p`` worker buffers plus one result, but only
        for one bucket at a time — the bound is the *largest* bucket.
        """
        largest = max(b.size for b in self.buckets)
        return (p + 1) * largest * 8

    def monolithic_peak_bytes(self, p: int) -> int:
        """The same bound for a single whole-model all-reduce."""
        return (p + 1) * self.total_elems * 8

    # -- pack / unpack ------------------------------------------------------

    def pack(self, grads: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Flatten per-parameter gradients into per-bucket buffers.

        ``grads`` is aligned with the constructor's parameter list.  A
        bucket holding exactly one parameter is returned as a zero-copy
        view whenever the gradient is contiguous and already in the
        bucket's dtype; multi-parameter buckets are copied into one flat
        array (that copy is the packing cost real frameworks pay too).
        """
        if len(grads) != self.n_params:
            raise ValueError(
                f"expected {self.n_params} gradients, got {len(grads)}"
            )
        out: list[np.ndarray] = []
        for b in self.buckets:
            if len(b.slots) == 1:
                g = self._checked(grads[b.slots[0].param], b, b.slots[0])
                out.append(g.reshape(-1))  # view when g is contiguous
                continue
            buf = np.empty(b.size, dtype=b.dtype)
            for s in b.slots:
                buf[s.offset : s.offset + s.size] = self._checked(
                    grads[s.param], b, s
                ).reshape(-1)
            out.append(buf)
        return out

    def _checked(self, grad, bucket: Bucket, slot: BucketSlot) -> np.ndarray:
        """The gradient as an array, refusing a drifted dtype.

        A silent ``np.asarray(..., dtype=...)`` cast here would corrupt
        the wire format: the bucket was *planned* for the parameter's
        registered dtype, and a gradient arriving in another one (an
        fp16-storage gradient leaking into an fp64 bucket is the classic
        mixed-precision mix-up) means the caller skipped the unscale /
        master-space conversion.
        """
        g = np.asarray(grad)
        if g.dtype != bucket.dtype:
            label = (
                self.names[slot.param]
                if self.names is not None
                else f"param {slot.param}"
            )
            raise TypeError(
                f"gradient for {label} has dtype {g.dtype}, but its bucket "
                f"was planned for {bucket.dtype} — unscale to the parameter "
                "dtype before packing (or rebuild the buckets)"
            )
        return g

    def unpack(self, bucket_buffers: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Per-parameter views into the bucket buffers (registration order)."""
        if len(bucket_buffers) != len(self.buckets):
            raise ValueError(
                f"expected {len(self.buckets)} buffers, got {len(bucket_buffers)}"
            )
        out: list[np.ndarray | None] = [None] * self.n_params
        for b, buf in zip(self.buckets, bucket_buffers):
            for s in b.slots:
                out[s.param] = buf[s.offset : s.offset + s.size].reshape(s.shape)
        return out  # type: ignore[return-value]

    # -- reduction ----------------------------------------------------------

    def reduce_packed(
        self,
        worker_buckets: Sequence[list[np.ndarray]],
        algorithm: str = "ring",
    ) -> list[np.ndarray]:
        """Mean-reduce per-worker packed buckets, bucket by bucket.

        ``worker_buckets`` is one :meth:`pack` result per worker; each
        bucket entry is set to ``None`` as soon as it has been reduced, so
        peak transient memory is bounded by one bucket's schedule (see
        :meth:`reduce_peak_bytes`).  Returns per-parameter averaged
        gradients in registration order.
        """
        reg = get_active()
        compress = self.wire_dtype is not None
        reduced: list[np.ndarray] = []
        for j, bucket in enumerate(self.buckets):
            buffers = [wb[j] for wb in worker_buckets]
            if compress:
                # the schedule accumulates in float64 internally, so only
                # the wire (one cast each way) pays the precision cost
                buffers = [self._compress(buf) for buf in buffers]
            out = allreduce_mean_single(buffers, algorithm=algorithm)
            if compress:
                out = out.astype(bucket.dtype)
            reduced.append(out)
            for wb in worker_buckets:
                wb[j] = None  # type: ignore[call-overload]
        if reg is not None:
            reg.counter("parallel/buckets/reduced").inc(len(self.buckets))
            reg.counter("parallel/buckets/bytes").inc(self.total_wire_bytes)
        return self.unpack(reduced)

    # -- the overlap timeline ----------------------------------------------

    def simulate_overlap(
        self,
        p: int,
        backward_time: float,
        algorithm: str = "ring",
        comm: CommModel | None = None,
    ) -> "OverlapTimeline":
        """Simulated step timeline for ``p`` workers under the α-β model.

        Bucket ``i`` becomes ready once its share of backward has run
        (backward work is apportioned by element count, the standard
        proxy); its all-reduce starts at
        ``max(ready_i, end of bucket i−1's all-reduce)`` — one collective
        in flight at a time — and whatever communication extends past the
        end of backward is *exposed* (on the step's critical path).
        """
        if p < 1:
            raise ValueError("worker count must be >= 1")
        if backward_time < 0:
            raise ValueError("backward_time must be >= 0")
        comm = comm or CommModel()
        timings: list[BucketTiming] = []
        cum = 0
        prev_end = 0.0
        for b in self.buckets:
            cum += b.size
            ready = backward_time * (cum / self.total_elems)
            # each bucket is priced at its *wire* width: fp16 compression
            # halves (vs fp32; quarters vs fp64) the β term of every bucket
            wire_nbytes = self.wire_nbytes(b)
            cost = allreduce_time(wire_nbytes, p, comm, algorithm)
            start = max(ready, prev_end)
            end = start + cost
            timings.append(
                BucketTiming(
                    index=b.index, nbytes=wire_nbytes, ready=ready,
                    start=start, end=end, comm=cost,
                )
            )
            prev_end = end
        total_comm = sum(t.comm for t in timings)
        exposed = min(total_comm, max(0.0, prev_end - backward_time))
        return OverlapTimeline(
            backward_time=backward_time,
            buckets=tuple(timings),
            total_comm=total_comm,
            exposed_comm=exposed,
            step_time=max(backward_time, prev_end),
            monolithic_step_time=backward_time
            + allreduce_time(self.total_wire_bytes, p, comm, algorithm),
        )


@dataclass(frozen=True)
class BucketTiming:
    """One bucket's simulated schedule within a step."""

    index: int
    nbytes: int
    ready: float  # backward completion time of the bucket's gradients
    start: float  # all-reduce launch
    end: float  # all-reduce completion
    comm: float  # all-reduce duration


@dataclass(frozen=True)
class OverlapTimeline:
    """Simulated per-step timeline of a bucketed, overlapped all-reduce."""

    backward_time: float
    buckets: tuple[BucketTiming, ...]
    total_comm: float
    exposed_comm: float  # communication on the critical path
    step_time: float  # max(backward end, last all-reduce end)
    monolithic_step_time: float  # backward + one whole-model all-reduce

    @property
    def hidden_comm(self) -> float:
        return self.total_comm - self.exposed_comm

    @property
    def overlap_fraction(self) -> float:
        """Share of communication hidden under backward (1.0 when free)."""
        if self.total_comm <= 0.0:
            return 1.0
        return self.hidden_comm / self.total_comm

    def record(self, reg) -> None:
        """Set the ``parallel/overlap/*`` gauges on a metrics registry."""
        reg.gauge("parallel/overlap/fraction").set(self.overlap_fraction)
        reg.gauge("parallel/overlap/comm_s").set(self.total_comm)
        reg.gauge("parallel/overlap/exposed_s").set(self.exposed_comm)
        reg.gauge("parallel/overlap/step_s").set(self.step_time)
        reg.gauge("parallel/overlap/monolithic_step_s").set(
            self.monolithic_step_time
        )
