"""The training loop — the only one in the repo.

Every trainer trains through :class:`Trainer`'s single step, which
enforces the paper's experimental protocol:

* the learning rate is read from the schedule at every iteration (so
  warmup behaves identically across solvers),
* optional global-norm gradient clipping sits between backward and step,
* divergence (a NaN/inf loss or eval metric) is detected and recorded
  rather than crashing — the comprehensive-tuning figures *need* diverged
  runs as data points,
* per-iteration loss/lr and per-epoch eval metrics land in a
  :class:`~repro.utils.log.RunLog` for the figure drivers.

The step is: zero_grad → forward (under autocast when amp is on) → fault
check → scaled backward → fp16 gradient storage → unscale-and-check →
clip → optimizer step → record.  An amp overflow skips only the update;
the step is still logged and counted.

Around the step, the epoch loop has six policy points.  The plain
trainer's choice is listed first; the other trainers
(:class:`~repro.train.resilience.ResilientTrainer`,
:class:`~repro.adapt.AdaptiveBatchTrainer`, the milestone arm of
:mod:`repro.experiments.extension_growbatch`) are this loop with some of
them overridden, and have no loop of their own:

* **run start** — iteration 0; or a resume / baseline checkpoint;
* **epoch start** — keep the loader; or change the batch size;
* **after step** — nothing; or a noise-scale feed;
* **fault** (non-finite loss or eval metric) — stop, recorded as
  diverged; or roll back to the last checkpoint;
* **epoch end** — nothing; or a checkpoint;
* **finish** — ``diverged`` in the final metrics; plus the policy's counts.

Observability: pass an :class:`repro.obs.Obs` to get span timing around
forward/backward/clip/step (plus eval) and structured metrics (loss, lr,
grad-norm histogram) without touching the protocol.  With ``obs=None``
the loop is the uninstrumented seed path — the guards are plain ``None``
checks, and no span or metric object is allocated per iteration.
"""

from __future__ import annotations

import math
import resource
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from repro.obs import Obs
from repro.obs.metrics import GRAD_NORM_BUCKETS
from repro.optim.base import Optimizer
from repro.optim.clip import clip_grad_norm
from repro.optim.loss_scaler import DynamicLossScaler
from repro.schedules.base import Schedule
from repro.tensor.amp import amp_enabled, autocast
from repro.tensor.tensor import Tensor
from repro.utils.log import RunLog

_NO_SPAN = nullcontext()  # stateless, so one instance serves every phase


@dataclass
class TrainResult:
    """Outcome of a training run."""

    log: RunLog
    diverged: bool = False
    epochs_completed: int = 0
    final_metrics: dict[str, float] = field(default_factory=dict)

    def metric(self, name: str, default: float | None = None) -> float | None:
        return self.final_metrics.get(name, default)


def _record_point(
    log: RunLog, step: int, loss_val: float, lr: float, norm: float | None
) -> None:
    """Record one synchronized (loss, lr[, grad_norm]) sample.

    All series that exist are appended together so they can never
    desynchronize — divergence points and the final-iteration flush go
    through here exactly like the periodic ``log_every`` samples.
    """
    log.record("loss", step, loss_val)
    log.record("lr", step, lr)
    if norm is not None:
        log.record("grad_norm", step, norm)


def _proc_usage() -> tuple[int, float]:
    """The process's minor page faults and system CPU seconds so far."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_minflt, usage.ru_stime


class Trainer:
    """Drive a model through ``epochs`` epochs of mini-batch training.

    Parameters
    ----------
    loss_fn:
        ``loss_fn(batch) -> Tensor`` — a scalar loss built on the model's
        parameters (the model object itself stays out of the trainer's
        sight; the five applications each provide a closure).
    optimizer:
        Any :class:`repro.optim.Optimizer`.
    schedule:
        Iteration-indexed LR schedule.
    train_iter:
        Re-iterable over batches with a ``steps_per_epoch`` attribute
        (:class:`~repro.data.loader.BatchIterator` or the padded variant).
        A one-shot iterator (a generator) raises ``ValueError`` when its
        second epoch yields nothing.
    eval_fn:
        Optional ``() -> dict[str, float]`` run after every epoch; entries
        are recorded as series ``eval_<name>`` keyed by epoch.  A
        non-finite entry is a fault, recorded as NaN: the run stops as
        diverged, like on a non-finite loss.
    grad_clip:
        Optional global-norm clip threshold.
    obs:
        Optional :class:`repro.obs.Obs`; enabled instruments receive
        phase spans and per-iteration metrics.  ``None`` (the default)
        keeps the loop on the uninstrumented seed path.
    metrics_every:
        Sample the metrics registry into its time-series ring (and any
        attached JSONL stream) every this many iterations; ``0`` (the
        default) keeps end-of-run snapshots only.  Each sample first adds
        the process's minor page faults and system CPU time since the
        previous one to ``proc/minor_faults`` and ``proc/sys_ms``.  With
        metrics disabled the flag is inert — the hot loop sees one
        hoisted integer, allocates nothing per iteration and reads no
        resource usage.
    amp:
        Emulated mixed-precision training (:mod:`repro.tensor.amp`):
        the forward pass runs under :func:`~repro.tensor.amp.autocast`
        (op outputs rounded to the fp16 grid), gradients are stored as
        real ``np.float16`` after backward, the loss is scaled by a
        :class:`~repro.optim.loss_scaler.DynamicLossScaler`, and the
        optimizer keeps float64 master weights.  Overflow steps are
        *skipped* (scale backs off, the schedule marches on) — never
        clipped.  ``None`` (the default) follows the global
        :func:`repro.tensor.use_amp` / ``REPRO_AMP`` switch, except for a
        cluster's loss (``as_loss_fn``), where it is off: a cluster
        installs pre-averaged gradients the loss scaler never saw, so
        compress its wire (``wire_dtype``) instead.  ``True`` with a
        cluster's loss raises ``ValueError`` for the same reason.
    loss_scaler:
        The scaler to use under ``amp`` (a default-configured
        :class:`DynamicLossScaler` is created when omitted).  May also
        be passed without ``amp`` to exercise the scale/unscale
        algorithm on float64 gradients, where it is bit-exact.
    """

    def __init__(
        self,
        loss_fn: Callable[[object], "object"],
        optimizer: Optimizer,
        schedule: Schedule,
        train_iter: Iterable,
        eval_fn: Callable[[], dict[str, float]] | None = None,
        grad_clip: float | None = None,
        obs: Obs | None = None,
        metrics_every: int = 0,
        amp: bool | None = None,
        loss_scaler: DynamicLossScaler | None = None,
    ) -> None:
        if metrics_every < 0:
            raise ValueError("metrics_every must be >= 0")
        installs = getattr(loss_fn, "installs_gradients", False)
        if amp and installs:
            raise ValueError(
                "amp=True with a cluster's loss: the cluster installs "
                "pre-averaged gradients the loss scaler never saw; compress "
                "the wire with wire_dtype"
            )
        if amp is None:
            amp = amp_enabled() and not installs
        self.loss_fn = loss_fn
        self.optimizer = optimizer
        self.schedule = schedule
        self.train_iter = train_iter
        self.eval_fn = eval_fn
        self.grad_clip = grad_clip
        self.obs = obs
        self.metrics_every = metrics_every
        self.amp = bool(amp)
        if self.amp and loss_scaler is None:
            loss_scaler = DynamicLossScaler()
        self.loss_scaler = loss_scaler
        if self.amp:
            optimizer.use_master_weights()

    # policy state that the other trainers set; the plain loop has none
    fault_injector: Callable[[int, float], float] | None = None
    health = None  # a HealthMonitor that records each sample's events
    _run_span = "train"

    def run(self, epochs: int, log_every: int = 1, resume: bool = False) -> TrainResult:
        """Train to ``epochs`` epochs; ``resume`` continues from the newest
        checkpoint, so it needs a checkpointed trainer."""
        return self._run(epochs, log_every, resume)

    def _span(self, name: str):
        """The named phase span when a tracer is attached, else a no-op."""
        obs = self.obs
        return _NO_SPAN if obs is None or obs.tracer is None else obs.span(name)

    def _run(self, epochs: int, log_every: int, resume: bool) -> TrainResult:
        with self._span(self._run_span):
            return self._loop(epochs, log_every, resume)

    def _sample(self, mreg, iteration: int) -> None:
        """Sample the registry and pass the sample to :attr:`health`.

        The monitor only records events; a fault is a non-finite loss or
        eval metric, never a health event.  First counts the process's
        minor page faults and system CPU time since the previous sample
        (since the run's start for the first) into ``proc/minor_faults``
        and ``proc/sys_ms``: the kernel's share of a step, which happens
        inside numpy calls where no span sees it.
        """
        faults, sys_s = _proc_usage()
        faults0, sys_s0 = self._proc_seen
        mreg.counter("proc/minor_faults").inc(faults - faults0)
        mreg.counter("proc/sys_ms").inc((sys_s - sys_s0) * 1e3)
        self._proc_seen = (faults, sys_s)
        sample = mreg.sample(step=iteration)
        if self.health is not None:
            self.health.observe(sample)

    def _loop(self, epochs: int, log_every: int, resume: bool) -> TrainResult:
        obs = self.obs
        mreg = obs.metrics if obs is not None else None
        # hoisted so the disabled path costs one int compare per iteration
        sample_every = self.metrics_every if mreg is not None else 0
        if sample_every:
            self._proc_seen = _proc_usage()
        span = self._span
        optimizer = self.optimizer
        params = [p for _, p in optimizer.params]
        amp_on = self.amp
        scaler = self.loss_scaler
        log = RunLog()
        result = TrainResult(log=log)
        # the newest step's point while log_every skipped it: the final
        # iteration must land in the log, or figure series end one short
        pending: tuple | None = None

        iteration, epoch = self._begin(resume)
        result.epochs_completed = epoch
        prev_batches: int | None = None
        while epoch < epochs:
            self._epoch_start(epoch, iteration)
            faulted = False
            n_batches = 0
            for batch in self.train_iter:
                n_batches += 1
                lr = self.schedule(iteration)
                optimizer.zero_grad()
                with autocast() if amp_on else _NO_SPAN, span("forward"):
                    loss = self.loss_fn(batch)
                loss_val = float(loss.data)
                if self.fault_injector is not None:
                    loss_val = self.fault_injector(iteration, loss_val)
                if not math.isfinite(loss_val):
                    # the observed value is the data point, inf or nan
                    _record_point(log, iteration, loss_val, lr, None)
                    pending = None
                    if mreg is not None:
                        # the fault must land in the time series too
                        mreg.gauge("train/loss").set(loss_val)
                        if sample_every:
                            self._sample(mreg, iteration)
                    faulted = True
                    break
                # the scaler only applies to a real graph loss: cluster
                # adapters (repro.parallel) install pre-averaged gradients
                # and return a no-op-backward stub that cannot be scaled
                use_scaler = scaler is not None and isinstance(loss, Tensor)
                with span("backward"):
                    (scaler.scaled(loss) if use_scaler else loss).backward()
                if amp_on and use_scaler:
                    # emulated fp16 gradient storage: overflow to inf above
                    # 65504 is genuine here — it is what the scaler skips on
                    with np.errstate(over="ignore"):
                        for p in params:
                            if p.grad is not None:
                                p.grad = p.grad.astype(np.float16)
                norm: float | None = None
                # an overflow skips the update (never clipped) and backs the
                # scale off; the step is still logged and the schedule
                # marches on
                if not use_scaler or scaler.unscale_and_check(params):
                    if self.grad_clip is not None:
                        with span("clip"):
                            norm = clip_grad_norm(params, self.grad_clip)
                    with span("step"):
                        optimizer.step(lr=lr)
                    self._after_step(iteration)
                if mreg is not None:
                    mreg.counter("train/iterations").inc()
                    mreg.gauge("train/loss").set(loss_val)
                    mreg.gauge("train/lr").set(lr)
                    if norm is not None:
                        mreg.histogram(
                            "train/grad_norm", GRAD_NORM_BUCKETS
                        ).observe(norm)
                    if sample_every and (iteration + 1) % sample_every == 0:
                        self._sample(mreg, iteration)
                if iteration % log_every == 0:
                    _record_point(log, iteration, loss_val, lr, norm)
                    pending = None
                else:
                    pending = (iteration, loss_val, lr, norm)
                iteration += 1

            if not faulted:
                if n_batches == 0 and prev_batches:
                    raise ValueError(
                        f"train_iter yielded no batches in epoch {epoch} after "
                        f"{prev_batches} in the previous one — it is a "
                        "one-shot iterator (e.g. a generator); pass a "
                        "re-iterable like BatchIterator"
                    )
                prev_batches = n_batches
                epoch += 1
                result.epochs_completed = epoch
                if self.eval_fn is not None:
                    with span("eval"):
                        metrics = self.eval_fn()
                    for name, value in metrics.items():
                        if not math.isfinite(value):
                            faulted = True
                            value = float("nan")
                        log.record(f"eval_{name}", epoch - 1, value)
                    result.final_metrics = dict(metrics)
            if faulted:
                restored = self._fault()
                if restored is None:
                    result.diverged = True
                    result.final_metrics["diverged"] = 1.0
                    break
                iteration, epoch = restored
                result.epochs_completed = epoch
                prev_batches = None
                continue

            self._epoch_end(log, epoch, iteration)

        if pending is not None:
            _record_point(log, *pending)
        result.final_metrics.setdefault("diverged", 0.0)
        self._finish(result, iteration)
        return result

    # -- policy points: the other trainers override these, nothing else ------

    def _begin(self, resume: bool) -> tuple[int, int]:
        """Run start: the ``(iteration, epoch)`` to train from."""
        if resume:
            raise ValueError("resume=True requires a checkpoint_dir")
        return 0, 0

    def _epoch_start(self, epoch: int, iteration: int) -> None:
        """Epoch start: swap the loader, e.g. for a new batch size."""

    def _after_step(self, iteration: int) -> None:
        """After each applied optimizer step (not after an amp skip)."""

    def _fault(self) -> tuple[int, int] | None:
        """A fault: ``None`` stops the run as diverged; an
        ``(iteration, epoch)`` resumes the loop from there."""
        return None

    def _epoch_end(self, log: RunLog, epoch: int, iteration: int) -> None:
        """After epoch ``epoch`` (1-based) and its eval passed."""

    def _finish(self, result: TrainResult, iteration: int) -> None:
        """Add the policy's counts to ``result.final_metrics``."""
