"""Closed-loop adaptive batch-size training.

:class:`AdaptiveBatchTrainer` joins the estimator (sensor) and the
controller (actuator) into the loop the paper's LEGW recipe implies but
never closes: instead of *choosing* a large batch up front and warming
up into it, start at the base batch, measure the gradient noise scale
online, and grow the batch whenever the measured critical batch says the
larger batch would still train efficiently — "don't decay the LR,
increase the batch size", with the milestone schedule replaced by
measurement.

Each growth event preserves the LEGW invariant that makes large-batch
training stable in the first place:

* **Sqrt Scaling** — the LR envelope is multiplied by
  ``sqrt(new_batch / old_batch)``, so the per-update gradient-noise
  contribution stays constant across the growth;
* **Linear-Epoch re-warmup** — the scaled-up LR is re-entered through a
  linear ramp of ``base_warmup_epochs * steps_per_epoch(base_batch)``
  iterations, the same *iteration count* LEGW warmup prescribes at every
  batch ratio (warmup epochs ∝ k, steps per epoch ∝ 1/k).

The envelope is a :class:`~repro.train.resilience.RecoverySchedule`
subclass — growth reuses the exact lr-scale + re-warmup machinery that
fault recovery does, just pointed up instead of down.

Growth happens at epoch boundaries only: the loader is rebuilt at the
new batch size (fresh shuffling stream, deterministically derived from
the data seed and the growth count), so an epoch remains one pass over
the data and checkpoint/resume accounting stays exact.  The full loop
state — estimator EMAs, controller cooldown, LR envelope, current batch
and the whole growth trajectory — rides in checkpoint ``extra`` scalars,
so a killed-and-resumed run reproduces the batch-size trajectory
bit-exactly (pinned by the tests and the CI ``adapt-smoke`` leg).
"""

from __future__ import annotations

import math
import pathlib
from typing import Callable, Iterable

import numpy as np

from repro.adapt.controller import BatchSizeController
from repro.adapt.estimator import OnlineNoiseScale, probe_batch_fn
from repro.obs import Obs
from repro.optim.base import Optimizer
from repro.schedules.base import Schedule
from repro.train.resilience import CheckpointedTrainer, RecoverySchedule
from repro.train.trainer import TrainResult
from repro.utils.checkpoint import CheckpointManager


class AdaptiveLRSchedule(RecoverySchedule):
    """Recovery envelope pointed at batch growth instead of faults.

    Fault recovery *backs off* the LR and re-warms; a growth event
    *scales it up* by the Sqrt Scaling factor and re-warms over the
    LEGW-invariant iteration count.  Both ride the same two knobs
    (``lr_scale`` and the linear re-warmup ramp), so the state()/
    load_state() checkpoint coverage is inherited unchanged.
    """

    def grow(
        self, batch_ratio: float, at_iteration: int, rewarmup_steps: int
    ) -> None:
        if batch_ratio <= 0:
            raise ValueError("batch_ratio must be positive")
        self.lr_scale *= math.sqrt(batch_ratio)
        if rewarmup_steps > 0:
            self.rewarmup_from = int(at_iteration)
            self.rewarmup_steps = int(rewarmup_steps)


class AdaptiveBatchTrainer(CheckpointedTrainer):
    """Train with the batch size steered by the online noise scale.

    The :class:`~repro.train.trainer.Trainer` loop with a batch change at
    each epoch start and a noise-scale feed after each step.  There is no
    rollback: a fault (non-finite loss or eval metric) ends the run as
    diverged; the health monitor only records events.

    Parameters
    ----------
    model / optimizer / schedule:
        As for :class:`~repro.train.resilience.ResilientTrainer`;
        ``schedule`` is the *base-batch* LEGW schedule, wrapped in an
        :class:`AdaptiveLRSchedule` envelope that applies the sqrt
        rescale and re-warmup of each growth event on top.
    make_train_iter:
        ``make_train_iter(batch_size, seed) -> iterator`` — the loader
        factory (the :class:`~repro.experiments.common.Workload`
        convention), called again at every growth event.  The iterator
        must be re-iterable with ``steps_per_epoch`` and a ``rng``
        generator (both library iterators qualify).
    base_batch / data_seed:
        The starting batch size and the loader seed; growth ``i``
        rebuilds with seed ``data_seed + 1 + i`` so the shuffling
        streams of a resumed run are reproducible by construction.
    controller:
        The :class:`~repro.adapt.controller.BatchSizeController`
        (required — it owns ``max_batch`` and the growth policy).
    estimator:
        An :class:`~repro.adapt.estimator.OnlineNoiseScale`; default
        constructed with library defaults.
    loss_fn:
        Defaults to ``model.loss``, or to ``cluster.as_loss_fn(model)``
        when a ``cluster`` is given.
    cluster:
        Optional :class:`~repro.parallel.cluster.SimCluster` or
        :class:`~repro.parallel.mp.MultiprocessCluster`.  Its
        ``noise_tap`` is switched on and every step's per-shard
        gradients feed the estimator for free; without a cluster the
        estimator falls back to paired micro-batch probes every
        ``noise_every`` iterations (two extra backwards per probe).
    noise_every / probe_ratio:
        Serial-fallback probe cadence and small-batch divisor
        (``b_small = max(1, batch // probe_ratio)``, ``b_big = batch``).
        The probe RNG is derived from ``(data_seed, iteration)`` so a
        resumed run replays identical probes without extra RNG state.
    base_warmup_epochs / rewarmup:
        Re-warmup length per growth event, in base-batch epochs
        (``rewarmup=False`` disables re-warmup entirely — the CLARS-style
        no-warmup ablation arm — leaving only the sqrt rescale).
    checkpoint_dir / keep_last:
        Optional hardened checkpointing after every epoch; required for
        ``resume=True``.
    amp / metrics_every:
        As for :class:`~repro.train.resilience.ResilientTrainer`; the loss
        scaler rides in the checkpoints, so an amp run resumes bit-exactly.
    """

    _run_span = "adaptive_train"

    def __init__(
        self,
        model,
        optimizer: Optimizer,
        schedule: Schedule,
        make_train_iter: Callable[[int, int], Iterable],
        *,
        base_batch: int,
        controller: BatchSizeController,
        estimator: OnlineNoiseScale | None = None,
        data_seed: int = 0,
        loss_fn: Callable[[object], object] | None = None,
        cluster=None,
        eval_fn: Callable[[], dict[str, float]] | None = None,
        grad_clip: float | None = None,
        obs: Obs | None = None,
        noise_every: int = 16,
        probe_ratio: int = 8,
        base_warmup_epochs: float = 0.0,
        rewarmup: bool = True,
        checkpoint_dir: str | pathlib.Path | None = None,
        keep_last: int | None = 3,
        amp: bool | None = None,
        metrics_every: int = 0,
    ) -> None:
        if base_batch < 1:
            raise ValueError("base_batch must be >= 1")
        if noise_every < 1:
            raise ValueError("noise_every must be >= 1")
        if probe_ratio < 2:
            raise ValueError("probe_ratio must be >= 2 (b_small must shrink)")
        if cluster is not None:
            cluster.noise_tap = True
        if loss_fn is None:
            loss_fn = model.loss if cluster is None else cluster.as_loss_fn(model)
        super().__init__(
            loss_fn,
            optimizer,
            AdaptiveLRSchedule(schedule),
            make_train_iter(int(base_batch), int(data_seed)),
            eval_fn=eval_fn,
            grad_clip=grad_clip,
            obs=obs,
            metrics_every=metrics_every,
            amp=amp,
        )
        self._monitor()
        self.model = model
        self.make_train_iter = make_train_iter
        self.base_batch = int(base_batch)
        self.controller = controller
        self.estimator = estimator or OnlineNoiseScale()
        self.data_seed = int(data_seed)
        self.cluster = cluster
        self.noise_every = int(noise_every)
        self.probe_ratio = int(probe_ratio)
        self.base_warmup_epochs = float(base_warmup_epochs)
        self.rewarmup = bool(rewarmup)
        if checkpoint_dir is not None:
            self.manager = CheckpointManager(checkpoint_dir, keep_last=keep_last)

        self.current_batch = self.base_batch
        self.growths = 0
        base_steps = int(getattr(self.train_iter, "steps_per_epoch", 1) or 1)
        # the LEGW-invariant re-warmup length: warmup epochs ∝ k and steps
        # per epoch ∝ 1/k cancel, so every growth re-warms over the same
        # number of iterations the base-batch warmup took
        self.rewarmup_iters = max(1, int(round(self.base_warmup_epochs * base_steps)))
        # [(epoch, batch)] — entry 0 is the start; one entry per growth
        self.trajectory: list[tuple[int, int]] = [(0, self.base_batch)]
        self._probe_fn = None  # built lazily from the current loader

    # -- growth machinery ----------------------------------------------------

    def _rebuild_loader(self, batch: int) -> None:
        self.train_iter = self.make_train_iter(
            batch, self.data_seed + 1 + self.growths
        )
        self._probe_fn = None

    def _grow(self, new_batch: int, epoch: int, iteration: int) -> None:
        ratio = new_batch / self.current_batch
        self.envelope.grow(
            ratio,
            at_iteration=iteration,
            rewarmup_steps=self.rewarmup_iters if self.rewarmup else 0,
        )
        self.current_batch = int(new_batch)
        self.growths += 1
        self._rebuild_loader(self.current_batch)
        self.trajectory.append((int(epoch), int(new_batch)))
        if self.obs is not None and self.obs.metrics is not None:
            self.obs.metrics.counter("adapt/growth_events").inc()

    # -- noise-scale feeding -------------------------------------------------

    def _feed_estimator(self, iteration: int) -> None:
        if self.cluster is not None:
            self.estimator.update_from_tap(self.cluster.last_noise_tap)
            return
        if iteration % self.noise_every != 0:
            return
        b_big = self.current_batch
        b_small = max(1, b_big // self.probe_ratio)
        if b_small >= b_big:
            return  # batch too small to split — no probe possible
        if self._probe_fn is None:
            self._probe_fn = probe_batch_fn(self.train_iter)
        # probe draws are a pure function of (data_seed, iteration): a
        # resumed run replays the identical probes with no extra RNG state
        gen = np.random.default_rng((self.data_seed, iteration))
        params = [p for _, p in self.optimizer.params]
        self.estimator.update_from_probes(
            self.loss_fn, self._probe_fn, params, b_small, b_big, gen
        )

    # -- checkpointed policy state -------------------------------------------

    _TRAJ_LIMIT = 64  # growths are ~log2(max/base); 64 is unreachable headroom

    def _state(self) -> dict[str, float]:
        extra: dict[str, float] = {
            "current_batch": float(self.current_batch),
            "growths": float(self.growths),
            **super()._state(),
        }
        for key, value in self.estimator.state_dict().items():
            extra[f"est_{key}"] = float(value)
        for key, value in self.controller.state_dict().items():
            extra[f"ctl_{key}"] = float(value)
        extra["traj_len"] = float(len(self.trajectory))
        for i, (ep, batch) in enumerate(self.trajectory[: self._TRAJ_LIMIT]):
            extra[f"traj_{i}_epoch"] = float(ep)
            extra[f"traj_{i}_batch"] = float(batch)
        return extra

    def _load_state(self, extra: dict[str, float]) -> None:
        super()._load_state(extra)
        self.current_batch = int(extra["current_batch"])
        self.growths = int(extra["growths"])
        if self.growths > 0:
            # the loader at the checkpointed batch size takes over the
            # shuffling stream just restored into the base-batch loader
            state = self.train_iter.rng.bit_generator.state
            self._rebuild_loader(self.current_batch)
            self.train_iter.rng.bit_generator.state = state
        self.estimator.load_state_dict(_prefixed(extra, "est_"))
        self.controller.load_state_dict(_prefixed(extra, "ctl_"))
        self.trajectory = [
            (int(extra[f"traj_{i}_epoch"]), int(extra[f"traj_{i}_batch"]))
            for i in range(int(extra["traj_len"]))
        ]

    # -- policy points -------------------------------------------------------

    def _epoch_start(self, epoch: int, iteration: int) -> None:
        # the growth decision for epoch N is made as N *starts*, never
        # after the run's (or a killed process's) last boundary
        # checkpoint — so a resumed run re-makes the very decision the
        # uninterrupted run made, from the same restored estimator
        if epoch > 0:
            proposed = self.controller.propose(
                self.estimator, self.current_batch, epoch
            )
            if proposed > self.current_batch:
                self._grow(proposed, epoch, iteration)

    def _after_step(self, iteration: int) -> None:
        with self._span("noise_probe"):
            self._feed_estimator(iteration)
        mreg = self.obs.metrics if self.obs is not None else None
        if mreg is not None:
            mreg.gauge("adapt/batch_size").set(float(self.current_batch))
            self.estimator.observe(mreg)

    def _epoch_end(self, log, epoch: int, iteration: int) -> None:
        log.record("batch_size", epoch - 1, float(self.current_batch))
        log.record("noise_scale", epoch - 1, self.estimator.noise_scale)
        super()._epoch_end(log, epoch, iteration)

    def _finish(self, result: TrainResult, iteration: int) -> None:
        result.final_metrics["optimizer_steps"] = float(iteration)
        result.final_metrics["final_batch"] = float(self.current_batch)
        result.final_metrics["growth_events"] = float(self.growths)
        result.final_metrics["noise_scale"] = self.estimator.noise_scale
        super()._finish(result, iteration)


def _prefixed(extra: dict[str, float], prefix: str) -> dict[str, float]:
    return {
        key[len(prefix) :]: value
        for key, value in extra.items()
        if key.startswith(prefix)
    }
