"""Fault-tolerant training: divergence rollback + hardened resume.

The paper's whole argument concerns the unstable early phase of
large-batch training — warmup exists because large peak LRs diverge
early.  The plain :class:`~repro.train.trainer.Trainer` *records* a
fault (a NaN/inf loss or eval metric) and stops (the comprehensive-tuning
figures need diverged runs as data points); :class:`ResilientTrainer` is
the same loop with a rollback fault policy, the paper-faithful remedy:

1. restore the last good checkpoint (model, optimizer, loss scaler,
   data-shuffling RNG — the full bit-exact state);
2. halve the peak learning rate (:data:`LR_BACKOFF`) and re-enter a
   linear warmup ramp over one epoch's steps from the restored iteration;
3. retry, up to ``max_recoveries`` times; only then give up and report
   divergence like the plain trainer would.

Checkpoints are written through the hardened
:class:`~repro.utils.checkpoint.CheckpointManager` (atomic writes,
checksums, keep-last-``k``), so the process itself can also be killed and
resumed with ``run(..., resume=True)`` — the resumed run reproduces the
uninterrupted run bit-exactly, which the tests pin down for every solver.

Every fault, retry and recovery is recorded through ``repro.obs``
(counters ``resilience/faults_detected`` / ``resilience/recoveries``,
span ``recover``) when an :class:`~repro.obs.Obs` is supplied.

The log kept in the result is the *true* history: a rolled-back segment's
points stay in the series, and the replayed iterations append after them.
"""

from __future__ import annotations

import pathlib
from typing import Callable, Iterable

from repro.obs import Obs
from repro.obs.telemetry import HealthMonitor, default_training_rules
from repro.optim.base import Optimizer
from repro.optim.clip import clip_grad_norm  # noqa: F401  (perfbench wraps it by name)
from repro.optim.loss_scaler import DynamicLossScaler
from repro.schedules.base import Schedule
from repro.train.trainer import Trainer, TrainResult
from repro.utils.checkpoint import CheckpointManager, read_checkpoint_extra

LR_BACKOFF = 0.5  # peak-LR factor applied by each recovery


class RecoverySchedule(Schedule):
    """A base schedule under a recovery envelope.

    The envelope multiplies the base LR by an accumulated back-off scale
    and, after each recovery, applies a fresh linear warmup ramp from the
    restored iteration — "re-enter warmup at a backed-off peak LR".  With
    no recoveries it is the identity wrapper.
    """

    def __init__(self, base: Schedule) -> None:
        self.base = base
        self.lr_scale = 1.0
        self.rewarmup_from: int | None = None
        self.rewarmup_steps = 0

    def lr_at(self, iteration: int) -> float:
        lr = self.base(iteration) * self.lr_scale
        if self.rewarmup_from is not None and self.rewarmup_steps > 0:
            k = iteration - self.rewarmup_from
            if 0 <= k < self.rewarmup_steps:
                lr *= (k + 1) / self.rewarmup_steps
        return lr

    def back_off(self, factor: float, at_iteration: int, rewarmup_steps: int) -> None:
        self.lr_scale *= factor
        self.rewarmup_from = int(at_iteration)
        self.rewarmup_steps = int(rewarmup_steps)

    # envelope state rides in checkpoint ``extra`` scalars so a resumed
    # process continues under the same backed-off schedule
    def state(self) -> dict[str, float]:
        return {
            "lr_scale": self.lr_scale,
            "rewarmup_from": -1.0 if self.rewarmup_from is None else float(self.rewarmup_from),
            "rewarmup_steps": float(self.rewarmup_steps),
        }

    def load_state(self, state: dict[str, float]) -> None:
        self.lr_scale = float(state["lr_scale"])
        raw = float(state["rewarmup_from"])
        self.rewarmup_from = None if raw < 0 else int(raw)
        self.rewarmup_steps = int(state["rewarmup_steps"])


class CheckpointedTrainer(Trainer):
    """The training loop with hardened checkpoints.

    A baseline save at run start (or a full-state resume), a save after
    every epoch, and one restore shared by resume and rollback.
    Subclasses set ``model`` and ``manager`` (``None`` turns checkpoints
    off), and carry their own policy scalars in a checkpoint's ``extra``
    through :meth:`_state` / :meth:`_load_state`.  The schedule is a
    :class:`RecoverySchedule` envelope, whose state rides along.
    """

    model = None
    manager: CheckpointManager | None = None

    @property
    def envelope(self) -> RecoverySchedule:
        return self.schedule

    def _monitor(self) -> None:
        """The checkpointed trainers' one health rule: a run that samples
        (``metrics_every > 0``) is watched by the default training rules."""
        self.health = (
            HealthMonitor(default_training_rules()) if self.metrics_every > 0 else None
        )

    def _state(self) -> dict[str, float]:
        return self.schedule.state()

    def _load_state(self, extra: dict[str, float]) -> None:
        self.schedule.load_state(extra)

    def _save(self, iteration: int, epoch: int) -> None:
        self.manager.save(
            self.model,
            self.optimizer,
            iteration,
            loss_scaler=self.loss_scaler,
            rng=getattr(self.train_iter, "rng", None),
            extra={"epoch": float(epoch), **self._state()},
        )

    def _restore(self, resume: bool) -> tuple[int, int] | None:
        """Load the newest good checkpoint; returns (iteration, epoch).

        ``resume`` additionally restores the policy state
        (:meth:`_load_state`) — wanted on process resume, *not* on
        rollback, which keeps its in-memory counters and backs off
        further.
        """
        loaded = self.manager.load_latest(
            self.model,
            self.optimizer,
            loss_scaler=self.loss_scaler,
            rng=getattr(self.train_iter, "rng", None),
        )
        if loaded is None:
            return None
        iteration, path = loaded
        extra = read_checkpoint_extra(path)
        if resume:
            self._load_state(extra)
        return iteration, int(extra.get("epoch", 0))

    def _begin(self, resume: bool) -> tuple[int, int]:
        if self.manager is None:
            return super()._begin(resume)
        start = (self._restore(resume=True) if resume else None) or (0, 0)
        if not resume or self.manager.latest() is None:
            # the baseline checkpoint: an epoch-0 fault needs a rollback target
            self._save(*start)
        return start

    def _finish(self, result: TrainResult, iteration: int) -> None:
        if self.health is not None:
            result.final_metrics["health_events"] = float(len(self.health.events))

    def _epoch_end(self, log, epoch: int, iteration: int) -> None:
        if self.manager is not None:
            self._save(iteration, epoch)


class ResilientTrainer(CheckpointedTrainer):
    """Drive a model through ``epochs`` epochs, surviving faults.

    The :class:`~repro.train.trainer.Trainer` loop with a rollback fault
    policy and checkpoints.  A fault is a non-finite loss (after
    ``fault_injector``) or a non-finite eval metric; each one rolls back
    until ``max_recoveries`` is spent, and the next ends the run as
    diverged.  The health monitor only records events.

    Parameters
    ----------
    model:
        The model being trained — unlike the plain trainer, the model
        object is needed here because rollback must snapshot and restore
        its full state.
    optimizer / schedule / train_iter / eval_fn / grad_clip / obs:
        As for :class:`~repro.train.trainer.Trainer`.  ``schedule`` is
        wrapped in a :class:`RecoverySchedule`; ``train_iter`` should be
        re-iterable with a ``steps_per_epoch`` attribute, and when it
        exposes a ``rng`` generator (both library iterators do) the
        shuffling stream is checkpointed for bit-exact resume.
    checkpoint_dir / keep_last:
        Hardened checkpoints land in ``checkpoint_dir`` after every
        epoch, keeping the newest ``keep_last`` files.
    max_recoveries:
        How many rollbacks before giving up.  Each one multiplies the
        peak LR by :data:`LR_BACKOFF` and re-warms over one epoch's
        steps.
    loss_fn:
        Defaults to ``model.loss``.  A cluster trains through this loop
        with ``loss_fn=cluster.as_loss_fn(model)``; its loss is checked
        like any other, and rollback restores the parameters the cluster
        reads at its next step.
    loss_scaler:
        Optional :class:`DynamicLossScaler` (scaled backward, skip on
        overflow), covered by checkpoints.
    amp:
        Emulated mixed-precision, as for
        :class:`~repro.train.trainer.Trainer`: autocast forward, fp16
        gradient storage, a default loss scaler when none is given, and
        float64 master weights in the optimizer (checkpointed with the
        rest of the optimizer state, so rollback and resume stay
        bit-exact).  ``None`` follows the ``REPRO_AMP`` default, and is
        off for a cluster's loss.
    fault_injector:
        Optional ``(iteration, loss) -> loss`` hook, e.g.
        :class:`~repro.parallel.faults.LossFaultInjector` — how the tests
        and the demo produce deterministic divergence.
    metrics_every:
        ``metrics_every > 0`` samples the metrics registry into its
        time-series ring every that many iterations and routes each
        sample through a :class:`~repro.obs.telemetry.HealthMonitor`
        with the default training rules (``self.health``; see
        :meth:`CheckpointedTrainer._monitor`).  The monitor only records
        events: a non-finite loss is what triggers the rollback, and it
        is force-sampled first, so the ``nonfinite-loss`` rule fires as
        a structured event on the very iteration it recovers from.  The
        monitor's event log feeds the run report.
    """


    _run_span = "resilient_train"

    def __init__(
        self,
        model,
        optimizer: Optimizer,
        schedule: Schedule,
        train_iter: Iterable,
        *,
        checkpoint_dir: str | pathlib.Path,
        loss_fn: Callable[[object], "object"] | None = None,
        eval_fn: Callable[[], dict[str, float]] | None = None,
        grad_clip: float | None = None,
        obs: Obs | None = None,
        keep_last: int | None = 3,
        max_recoveries: int = 2,
        loss_scaler: DynamicLossScaler | None = None,
        amp: bool | None = None,
        fault_injector: Callable[[int, float], float] | None = None,
        metrics_every: int = 0,
    ) -> None:
        if max_recoveries < 0:
            raise ValueError("max_recoveries must be >= 0")
        super().__init__(
            model.loss if loss_fn is None else loss_fn,
            optimizer,
            RecoverySchedule(schedule),
            train_iter,
            eval_fn=eval_fn,
            grad_clip=grad_clip,
            obs=obs,
            metrics_every=metrics_every,
            amp=amp,
            loss_scaler=loss_scaler,
        )
        self.model = model
        self.manager = CheckpointManager(checkpoint_dir, keep_last=keep_last)
        self.max_recoveries = int(max_recoveries)
        # re-warm over one epoch's steps
        self.rewarmup_iters = int(getattr(train_iter, "steps_per_epoch", 1) or 1)
        self.fault_injector = fault_injector
        self._monitor()
        self.recoveries = 0
        self.faults_detected = 0

    # -- policy points --------------------------------------------------------

    def _state(self) -> dict[str, float]:
        return {
            "recoveries": float(self.recoveries),
            "faults_detected": float(self.faults_detected),
            **super()._state(),
        }

    def _load_state(self, extra: dict[str, float]) -> None:
        super()._load_state(extra)
        self.recoveries = int(extra.get("recoveries", 0))
        self.faults_detected = int(extra.get("faults_detected", 0))

    def _count(self, name: str) -> None:
        if self.obs is not None and self.obs.metrics is not None:
            self.obs.metrics.counter(name).inc()

    def _fault(self) -> tuple[int, int] | None:
        """Roll back to the last good checkpoint and back off the peak LR."""
        self.faults_detected += 1
        self._count("resilience/faults_detected")
        if self.recoveries >= self.max_recoveries:
            return None
        with self._span("recover"):
            restored = self._restore(resume=False)
        if restored is None:  # pragma: no cover - the baseline save precludes it
            raise RuntimeError("no checkpoint available to roll back to")
        self.recoveries += 1
        self._count("resilience/recoveries")
        self.schedule.back_off(
            LR_BACKOFF, at_iteration=restored[0], rewarmup_steps=self.rewarmup_iters
        )
        return restored

    def _finish(self, result: TrainResult, iteration: int) -> None:
        result.final_metrics["recoveries"] = float(self.recoveries)
        result.final_metrics["faults_detected"] = float(self.faults_detected)
        super()._finish(result, iteration)
