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
* **after step** — nothing; or an EMA update / noise-scale feed;
* **fault** (non-finite loss or eval metric, critical health event) —
  stop, recorded as diverged; or roll back to the last checkpoint;
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
    stopped_early: bool = False

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
    callbacks:
        Optional list of :class:`repro.train.callbacks.Callback` hooks;
        a callback returning ``True`` from ``on_epoch_end`` stops training
        (``result.stopped_early`` is set — distinct from divergence).
    obs:
        Optional :class:`repro.obs.Obs`; enabled instruments receive
        phase spans and per-iteration metrics.  ``None`` (the default)
        keeps the loop on the uninstrumented seed path.
    metrics_every:
        Sample the metrics registry into its time-series ring (and any
        attached JSONL stream) every this many iterations; ``0`` (the
        default) keeps end-of-run snapshots only.  With metrics disabled
        the flag is inert — the hot loop sees one hoisted integer and
        allocates nothing per iteration.
    amp:
        Emulated mixed-precision training (:mod:`repro.tensor.amp`):
        the forward pass runs under :func:`~repro.tensor.amp.autocast`
        (op outputs rounded to the fp16 grid), gradients are stored as
        real ``np.float16`` after backward, the loss is scaled by a
        :class:`~repro.optim.loss_scaler.DynamicLossScaler`, and the
        optimizer keeps float64 master weights.  Overflow steps are
        *skipped* (scale backs off, the schedule marches on) — never
        clipped.  ``None`` (the default) follows the global
        :func:`repro.tensor.use_amp` / ``REPRO_AMP`` switch; an explicit
        bool overrides it.
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
        callbacks: list | None = None,
        obs: Obs | None = None,
        metrics_every: int = 0,
        amp: bool | None = None,
        loss_scaler: DynamicLossScaler | None = None,
    ) -> None:
        if metrics_every < 0:
            raise ValueError("metrics_every must be >= 0")
        if amp is None:
            amp = amp_enabled()
        self.loss_fn = loss_fn
        self.optimizer = optimizer
        self.schedule = schedule
        self.train_iter = train_iter
        self.eval_fn = eval_fn
        self.grad_clip = grad_clip
        self.callbacks = list(callbacks or [])
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
    health = None  # a HealthMonitor: a critical event on a sample is a fault
    _run_span = "train"

    def run(self, epochs: int, log_every: int = 1) -> TrainResult:
        return self._run(epochs, log_every, resume=False)

    def _span(self, name: str):
        """The named phase span when a tracer is attached, else a no-op."""
        obs = self.obs
        return _NO_SPAN if obs is None or obs.tracer is None else obs.span(name)

    def _run(self, epochs: int, log_every: int, resume: bool) -> TrainResult:
        with self._span(self._run_span):
            result = self._loop(epochs, log_every, resume)
            # every exit path (normal end, early stop, divergence) fires the
            # callbacks' on_train_end hook exactly once
            for callback in self.callbacks:
                callback.on_train_end(result)
        return result

    def _sample(self, mreg, iteration: int) -> bool:
        """Sample the registry; True when the health monitor calls it a fault."""
        sample = mreg.sample(step=iteration)
        return self.health is not None and any(
            event.critical for event in self.health.observe(sample)
        )

    def _loop(self, epochs: int, log_every: int, resume: bool) -> TrainResult:
        obs = self.obs
        mreg = obs.metrics if obs is not None else None
        # hoisted so the disabled path costs one int compare per iteration
        sample_every = self.metrics_every if mreg is not None else 0
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
                    if (
                        sample_every
                        and (iteration + 1) % sample_every == 0
                        and self._sample(mreg, iteration)
                    ):
                        # a critical health rule (grad-norm blow-up,
                        # trust-ratio collapse, ...) is a fault even though
                        # the loss itself still looks finite
                        _record_point(log, iteration, loss_val, lr, norm)
                        pending = None
                        faulted = True
                        break
                if iteration % log_every == 0:
                    _record_point(log, iteration, loss_val, lr, norm)
                    pending = None
                else:
                    pending = (iteration, loss_val, lr, norm)
                for callback in self.callbacks:
                    callback.on_iteration(iteration, loss_val, lr)
                iteration += 1

            metrics: dict[str, float] = {}
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

            self._epoch_end(log, epoch, iteration, epochs)
            stops = [cb.on_epoch_end(epoch - 1, metrics) for cb in self.callbacks]
            if any(stops):
                result.stopped_early = True
                break

        if pending is not None:
            _record_point(log, *pending)
        result.final_metrics.setdefault("diverged", 0.0)
        self._finish(result, iteration)
        return result

    # -- policy points: the other trainers override these, nothing else ------

    def _begin(self, resume: bool) -> tuple[int, int]:
        """Run start: the ``(iteration, epoch)`` to train from."""
        return 0, 0

    def _epoch_start(self, epoch: int, iteration: int) -> None:
        """Epoch start: swap the loader, e.g. for a new batch size."""

    def _after_step(self, iteration: int) -> None:
        """After each applied optimizer step (not after an amp skip)."""

    def _fault(self) -> tuple[int, int] | None:
        """A fault: ``None`` stops the run as diverged; an
        ``(iteration, epoch)`` resumes the loop from there."""
        return None

    def _epoch_end(self, log: RunLog, epoch: int, iteration: int, epochs: int) -> None:
        """After epoch ``epoch`` (1-based) and its eval passed."""

    def _finish(self, result: TrainResult, iteration: int) -> None:
        """Add the policy's counts to ``result.final_metrics``."""
