"""Extension — closed-loop adaptive batch sizing from the online noise scale.

``extension_growbatch`` replays Smith et al.'s recipe with *hand-picked*
milestones; this driver closes the loop: :mod:`repro.adapt` measures the
gradient noise scale while training runs and grows the batch whenever the
measured critical batch says a bigger one would still train efficiently,
applying the LEGW invariant (sqrt-LR rescale + linear-epoch re-warmup) at
every growth event.

Four arms, same model / data / solver / epoch budget (MNIST-LSTM by
default; ``workload='ptb_small'`` for the LSTM-LM variant):

* **fixed LEGW** — base batch throughout, the paper's own recipe;
* **milestone grow-batch** — open-loop ``GrowBatchSchedule`` doubling at
  fixed epoch milestones (the Smith et al. baseline);
* **adaptive** — closed loop on the measured noise scale;
* **adaptive, no re-warmup** — the CLARS-style ablation: sqrt rescale
  only, probing whether the re-warmup half of the invariant matters.

Reported per arm: final metric, optimizer steps, and modeled wall-clock
under the fixed-overhead device model (per-step overhead is what batch
growth amortises).  The figure series carry the adaptive arm's per-epoch
batch-size and noise-scale trajectories.
"""

from __future__ import annotations

from repro.experiments.common import build_workload, score_of
from repro.experiments.extension_growbatch import train_grow_batch
from repro.parallel.perfmodel import DeviceModel
from repro.schedules import GrowBatchSchedule
from repro.utils.tables import Table

# same fixed-overhead flavour as extension_growbatch; units arbitrary
ADABATCH_DEVICE = DeviceModel(t_fixed=256.0, t_sample=1.0)


def _modeled_time(wl, epoch_batches: list[int]) -> float:
    return sum(
        wl.steps_per_epoch(b) * ADABATCH_DEVICE.iteration_time(b)
        for b in epoch_batches
    )


def _adaptive_epoch_batches(trainer, epochs: int) -> list[int]:
    """Per-epoch batch sizes from an adaptive trainer's growth trajectory."""
    batches = []
    for epoch in range(epochs):
        batch = trainer.trajectory[0][1]
        for at_epoch, value in trainer.trajectory:
            if epoch >= at_epoch:
                batch = value
        batches.append(batch)
    return batches


def run(preset: str = "smoke", seed: int = 0, workload: str = "mnist") -> dict:
    wl = build_workload(workload, preset)
    max_batch = max(wl.batches)
    noise_every = max(1, wl.steps_per_epoch(wl.base_batch) // 8)

    # arm 1: fixed LEGW at the base batch
    fixed = wl.run_legw(wl.base_batch, seed=seed)
    fixed_steps = wl.epochs * wl.steps_per_epoch(wl.base_batch)
    arms = {
        "fixed": {
            "score": score_of(fixed, wl.metric),
            "steps": fixed_steps,
            "time": _modeled_time(wl, [wl.base_batch] * wl.epochs),
            "final_batch": wl.base_batch,
        }
    }

    # arm 2: open-loop milestone doubling at 1/3 and 2/3 of the run
    grow = GrowBatchSchedule(
        wl.base_batch,
        [wl.epochs / 3, 2 * wl.epochs / 3],
        factor=2.0,
        max_batch=max_batch,
    )
    milestone = train_grow_batch(wl, grow, seed)
    arms["milestone"] = {
        "score": score_of(milestone, wl.metric),
        "steps": int(milestone.final_metrics["optimizer_steps"]),
        "time": _modeled_time(wl, grow.ladder(wl.epochs)),
        "final_batch": grow.batch_at(wl.epochs - 1),
    }

    # arms 3+4: closed loop, with and without the LEGW re-warmup
    series: dict[str, list[float]] = {}
    for key, rewarmup in (("adaptive", True), ("adaptive_nowarmup", False)):
        result = wl.run(
            adaptive_batch=True,
            max_batch=max_batch,
            seed=seed,
            noise_every=noise_every,
            rewarmup=rewarmup,
        )
        epoch_batches = _adaptive_epoch_batches(wl.last_trainer, wl.epochs)
        arms[key] = {
            "score": score_of(result, wl.metric),
            "steps": int(result.final_metrics.get("optimizer_steps", 0)),
            "time": _modeled_time(wl, epoch_batches),
            "final_batch": int(result.final_metrics.get("final_batch", 0)),
        }
        if key == "adaptive":
            series["batch_size"] = [float(b) for b in epoch_batches]
            series["noise_scale"] = [
                float(v) for v in result.log.values("noise_scale")
            ]

    table = Table(
        "Extension: adaptive batch sizing from the online noise scale "
        f"({wl.name}, {wl.epochs} epochs, batch {wl.base_batch}→{max_batch})",
        ["arm", wl.metric, "steps", "modeled time", "final batch", "speedup"],
    )
    base_time = arms["fixed"]["time"]
    for key, label in (
        ("fixed", "fixed LEGW"),
        ("milestone", f"milestone grow ({grow!r})"),
        ("adaptive", "adaptive (noise-scale closed loop)"),
        ("adaptive_nowarmup", "adaptive, no re-warmup (CLARS-style)"),
    ):
        arm = arms[key]
        table.add_row(
            [
                label,
                arm["score"],
                arm["steps"],
                arm["time"],
                arm["final_batch"],
                base_time / arm["time"] if arm["time"] else float("nan"),
            ]
        )
    return {
        "arms": arms,
        "metric": wl.metric,
        "series": series,
        "rows": table.to_dicts(),
        "text": table.render(),
    }


if __name__ == "__main__":
    print(run()["text"])
