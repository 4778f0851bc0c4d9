"""Extension — "Don't decay the learning rate, increase the batch size."

The paper's related work cites Smith, Kindermans & Le (2017) and AdaBatch
as the complementary direction to LEGW: instead of decaying the LR at
milestones, *grow the batch* by the inverse factor at the same milestones
(same SGD noise-scale trajectory), keeping steps large and the device
increasingly well-utilised late in training.

This driver trains the mini-ResNet both ways under one epoch budget:

* **decay-LR**:   fixed base batch, multi-step LR decay (x0.1) — the
  classic recipe (the workload's own);
* **grow-batch**: LR held at base, batch multiplied by 4 at the same
  milestones.

(The paper-scale recipe grows by the decay's inverse, x10; at our ~1K-
sample scale a x10 ladder exhausts the dataset within two milestones and
step-starves the final phase, so the scaled-down growth factor is 4 —
calibrated the same way every other scaled constant in this repo is, and
documented in EXPERIMENTS.md.)

It reports the final top-5 of each plus the *modeled* wall-clock of each
run from the device cost model — the grow-batch recipe's accuracy should
match while its modeled time is smaller, the Smith et al. headline.

The milestones here are hand-picked (open loop); ``extension_adabatch``
closes the loop, replacing them with the online noise-scale measurement
from :mod:`repro.adapt` and beating this recipe on both axes.
"""

from __future__ import annotations

from repro.experiments.common import build_workload, score_of
from repro.parallel.perfmodel import DeviceModel
from repro.schedules import ConstantLR, GradualWarmup, GrowBatchSchedule
from repro.train import Trainer, TrainResult
from repro.utils.tables import Table

# same fixed-overhead flavour as the paper's accelerators; units arbitrary
RESNET_DEVICE = DeviceModel(t_fixed=256.0, t_sample=1.0)


class _MilestoneTrainer(Trainer):
    """The training loop under an open-loop batch ladder.

    At each epoch start the loader is rebuilt, with seed
    ``seed + 1 + epoch``, whenever ``grow`` changes the batch; the LR holds
    at the base LR after the base warmup.  ``REPRO_COMPILE`` and
    ``REPRO_AMP`` do not reach it: the arm always trains eager, in full
    precision.
    """

    def __init__(self, wl, grow: GrowBatchSchedule, seed: int, model) -> None:
        warmup = int(round(wl.base_warmup_epochs * wl.steps_per_epoch(wl.base_batch)))
        super().__init__(
            model.loss,
            wl.make_optimizer(model),
            GradualWarmup(ConstantLR(wl.base_lr), warmup),
            None,  # built by the first epoch start
            grad_clip=wl.grad_clip,
            compiled=False,
            amp=False,
        )
        self.wl, self.grow, self.seed = wl, grow, seed
        self.batch: int | None = None

    def _epoch_start(self, epoch: int, iteration: int) -> None:
        batch = self.grow.batch_at(epoch)
        if batch != self.batch:
            self.batch = batch
            self.train_iter = self.wl.make_train_iter(batch, self.seed + 1 + epoch)


def train_grow_batch(wl, grow: GrowBatchSchedule, seed: int) -> TrainResult:
    """Train ``wl`` for ``wl.epochs`` epochs under the batch ladder ``grow``.

    The metric is evaluated once, after the last epoch; the final metrics
    also carry ``optimizer_steps``.
    """
    model = wl.make_model(seed)
    trainer = _MilestoneTrainer(wl, grow, seed, model)
    result = trainer.run(wl.epochs)
    if not result.diverged:
        result.final_metrics.update(wl.make_eval_fn(model)())
    result.final_metrics["optimizer_steps"] = float(trainer.optimizer.iteration)
    return result


def run(preset: str = "smoke", seed: int = 0) -> dict:
    wl = build_workload("resnet", preset)
    milestones = [wl.epochs / 3, 2 * wl.epochs / 3, 8 * wl.epochs / 9]

    # recipe A: the workload's own decay-LR baseline at the base batch
    decay_result = wl.run_legw(wl.base_batch, seed=seed)
    decay_score = float(decay_result.final_metrics.get(wl.metric, float("nan")))
    decay_time = wl.epochs * wl.steps_per_epoch(wl.base_batch) * (
        RESNET_DEVICE.iteration_time(wl.base_batch)
    )

    # recipe B: grow the batch at the same milestones (scaled-down factor,
    # see module docstring), capped at half the dataset
    grow = GrowBatchSchedule(
        wl.base_batch, milestones, factor=4.0, max_batch=wl.n_train // 2
    )
    grow_result = train_grow_batch(wl, grow, seed)
    grow_score = score_of(grow_result, wl.metric)
    grow_time = sum(
        wl.steps_per_epoch(b) * RESNET_DEVICE.iteration_time(b)
        for b in grow.ladder(grow_result.epochs_completed)
    )

    table = Table(
        "Extension: decay the LR vs grow the batch (mini-ResNet, "
        f"{wl.epochs} epochs)",
        ["recipe", wl.metric, "modeled time", "speedup"],
    )
    table.add_row(["decay LR (x0.1 milestones)", decay_score, decay_time, 1.0])
    table.add_row(
        [
            f"grow batch ({grow!r})",
            grow_score,
            grow_time,
            decay_time / grow_time if grow_time else float("nan"),
        ]
    )
    return {
        "decay": {"score": decay_score, "time": decay_time},
        "grow": {"score": grow_score, "time": grow_time},
        "speedup": decay_time / grow_time if grow_time else float("nan"),
        "metric": wl.metric,
        "rows": table.to_dicts(),
        "text": table.render(),
    }


if __name__ == "__main__":
    print(run()["text"])
