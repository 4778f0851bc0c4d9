"""Adaptive batch-size bench — the closed loop must actually pay for itself.

Gates the claims behind ``docs/adaptive_batch.md`` on the real machinery:

1. **Step efficiency** — closed-loop adaptive training on the smoke
   MNIST-LSTM workload must reach an equal-or-better final metric than
   the fixed-batch LEGW baseline using >= 20% fewer optimizer steps,
   with the modeled wall-clock (fixed-overhead device model — per-step
   overhead is what batch growth amortises) no worse than the baseline's.
2. **Estimator agreement** — the online estimator (both the serial
   paired-probe path and the data-parallel shard-tap path) must land
   within 2x of the offline ``estimate_noise_scale`` on the *same*
   checkpoint with the same probe sizes — same statistic, same algebra,
   different plumbing.
3. **Bit-exact resume** — a run killed at the halfway checkpoint and
   resumed must reproduce the uninterrupted run's batch-size trajectory,
   final metric and step count exactly (the CI ``adapt-smoke`` leg runs
   this under ``REPRO_BENCH_SMOKE=1``).

A full (non-smoke) run refreshes ``BENCH_adaptive.json`` at the repo
root, naming the engine that ran it; the step comparison is written
before its gate, with ``gate_met``.  ``REPRO_BENCH_SMOKE=1`` runs shorter
budgets and skips the write.
"""

from __future__ import annotations

import pathlib
import shutil
import tempfile

import numpy as np
from conftest import SMOKE, better, merge_bench_json, save_result

from repro.adapt import OnlineNoiseScale, probe_batch_fn
from repro.analysis.noise_scale import estimate_noise_scale
from repro.experiments import build_workload
from repro.parallel.cluster import SimCluster
from repro.parallel.perfmodel import DeviceModel
from repro.tensor import fused_enabled

EPOCHS = 10 if SMOKE else 18
STEP_REDUCTION_TARGET = 0.20  # adaptive must save >= 20% of optimizer steps
ESTIMATOR_RATIO = 2.0  # online within 2x of offline, either direction
PROBE_PAIRS = 16 if SMOKE else 32
NOISE_EVERY = 8

# same fixed-overhead flavour as the extension drivers; units arbitrary
DEVICE = DeviceModel(t_fixed=256.0, t_sample=1.0)

BENCH_JSON = pathlib.Path(__file__).resolve().parent.parent / "BENCH_adaptive.json"


def _epoch_batches(trainer, epochs: int) -> list[int]:
    batches = []
    for epoch in range(epochs):
        batch = trainer.trajectory[0][1]
        for at_epoch, value in trainer.trajectory:
            if epoch >= at_epoch:
                batch = value
        batches.append(batch)
    return batches


def _modeled_time(wl, epoch_batches: list[int]) -> float:
    return sum(
        wl.steps_per_epoch(b) * DEVICE.iteration_time(b) for b in epoch_batches
    )


def test_adaptive_beats_fixed_batch(benchmark):
    wl = build_workload("mnist", "smoke")

    def measure():
        fixed = wl.run_legw(wl.base_batch, epochs=EPOCHS)
        adaptive = wl.run(
            adaptive_batch=True, epochs=EPOCHS, noise_every=NOISE_EVERY
        )
        return fixed, adaptive, wl.last_trainer

    fixed, adaptive, trainer = benchmark.pedantic(measure, rounds=1, iterations=1)
    fixed_steps = EPOCHS * wl.steps_per_epoch(wl.base_batch)
    adaptive_steps = int(adaptive.final_metrics["optimizer_steps"])
    fixed_score = float(fixed.final_metrics[wl.metric])
    adaptive_score = float(adaptive.final_metrics[wl.metric])
    fixed_time = _modeled_time(wl, [wl.base_batch] * EPOCHS)
    adaptive_time = _modeled_time(wl, _epoch_batches(trainer, EPOCHS))
    saved = 1.0 - adaptive_steps / fixed_steps

    engine = "fused" if fused_enabled() else "reference"
    gate_met = (
        not adaptive.diverged
        and not fixed.diverged
        and better(adaptive_score, fixed_score, wl.mode)
        and saved >= STEP_REDUCTION_TARGET
        and adaptive_time <= fixed_time
    )

    # the artifacts record the run before the gate judges it, so a failed
    # full run still shows what this engine measured
    save_result(
        "adaptive_batch_steps",
        (
            f"adaptive vs fixed batch (mnist smoke, {EPOCHS} epochs, "
            f"base batch {wl.base_batch}, {engine} engine)\n"
            f"  {wl.metric} : fixed {fixed_score:.4f}  adaptive "
            f"{adaptive_score:.4f}\n"
            f"  steps    : fixed {fixed_steps}  adaptive {adaptive_steps}  "
            f"({100 * saved:.0f}% saved, target >= "
            f"{100 * STEP_REDUCTION_TARGET:.0f}%)\n"
            f"  modeled  : fixed {fixed_time:.3g}  adaptive "
            f"{adaptive_time:.3g}\n"
            f"  growth   : {trainer.trajectory}\n"
            f"  gate met : {gate_met}"
        ),
    )
    if not SMOKE:
        merge_bench_json(
            BENCH_JSON,
            {
                "steps": {
                    "workload": "mnist-smoke",
                    "engine": engine,
                    "epochs": EPOCHS,
                    "fixed_steps": fixed_steps,
                    "adaptive_steps": adaptive_steps,
                    "steps_saved_fraction": round(saved, 3),
                    "target_fraction": STEP_REDUCTION_TARGET,
                    "fixed_score": round(fixed_score, 4),
                    "adaptive_score": round(adaptive_score, 4),
                    "fixed_modeled_time": round(fixed_time, 1),
                    "adaptive_modeled_time": round(adaptive_time, 1),
                    "trajectory": [list(t) for t in trainer.trajectory],
                    "gate_met": gate_met,
                }
            }
        )

    assert not adaptive.diverged and not fixed.diverged
    assert better(adaptive_score, fixed_score, wl.mode), (
        f"adaptive {wl.metric} {adaptive_score:.4f} worse than fixed-batch "
        f"{fixed_score:.4f}"
    )
    assert saved >= STEP_REDUCTION_TARGET, (
        f"adaptive saved only {100 * saved:.0f}% of optimizer steps "
        f"(need >= {100 * STEP_REDUCTION_TARGET:.0f}%)"
    )
    assert adaptive_time <= fixed_time, (
        f"adaptive modeled wall-clock {adaptive_time:.3g} worse than "
        f"fixed-batch {fixed_time:.3g}"
    )


def test_online_estimator_matches_offline(benchmark):
    # one epoch in: the gradient signal is still strong, so the two-batch
    # elimination is well-conditioned for all three measurement paths
    wl = build_workload("mnist", "smoke")

    def measure():
        wl.run(adaptive_batch=True, epochs=1, noise_every=NOISE_EVERY)
        trainer = wl.last_trainer
        model = trainer.model
        params = [p for _, p in trainer.optimizer.params]
        make_batch = probe_batch_fn(trainer.train_iter)
        b_small, b_big = wl.base_batch, 16 * wl.base_batch

        offline = estimate_noise_scale(
            model.loss,
            make_batch,
            params,
            b_small,
            b_big,
            np.random.default_rng(0),
            n_pairs=PROBE_PAIRS,
        ).noise_scale

        probe_est = OnlineNoiseScale(beta=0.9)
        probe_est.update_from_probes(
            model.loss,
            make_batch,
            params,
            b_small,
            b_big,
            np.random.default_rng(100),
            n_pairs=PROBE_PAIRS,
        )

        tap_est = OnlineNoiseScale(beta=0.9)
        cluster = SimCluster(list(model.parameters()), model.loss, 8)
        cluster.noise_tap = True
        gen = np.random.default_rng(200)
        for _ in range(PROBE_PAIRS):
            cluster.gradient_step(make_batch(8 * wl.base_batch, gen))
            tap_est.update_from_tap(cluster.last_noise_tap)
        return offline, probe_est.noise_scale, tap_est.noise_scale

    offline, probe_ns, tap_ns = benchmark.pedantic(measure, rounds=1, iterations=1)
    probe_ratio = probe_ns / offline
    tap_ratio = tap_ns / offline

    save_result(
        "adaptive_batch_estimator",
        (
            f"online vs offline noise scale (same checkpoint, "
            f"{PROBE_PAIRS} pairs)\n"
            f"  offline      : {offline:.2f}\n"
            f"  online probe : {probe_ns:.2f}  ({probe_ratio:.2f}x)\n"
            f"  online tap   : {tap_ns:.2f}  ({tap_ratio:.2f}x)\n"
            f"  target       : within {ESTIMATOR_RATIO}x either direction"
        ),
    )

    for name, ratio in (("probe", probe_ratio), ("tap", tap_ratio)):
        assert 1.0 / ESTIMATOR_RATIO <= ratio <= ESTIMATOR_RATIO, (
            f"online {name} estimator {ratio:.2f}x off the offline estimate "
            f"(need within {ESTIMATOR_RATIO}x)"
        )
    if SMOKE:
        return
    merge_bench_json(
        BENCH_JSON,
        {
            "estimator": {
                "pairs": PROBE_PAIRS,
                "offline": round(offline, 2),
                "online_probe": round(probe_ns, 2),
                "online_tap": round(tap_ns, 2),
                "probe_ratio": round(probe_ratio, 2),
                "tap_ratio": round(tap_ratio, 2),
                "target_ratio": ESTIMATOR_RATIO,
            }
        }
    )


def test_resume_reproduces_batch_trajectory(benchmark):
    epochs = EPOCHS
    half = epochs // 2

    def measure():
        d_full = tempfile.mkdtemp(prefix="adapt_full_")
        d_part = tempfile.mkdtemp(prefix="adapt_part_")
        try:
            wl = build_workload("mnist", "smoke")
            full = wl.run(
                adaptive_batch=True, epochs=epochs, noise_every=NOISE_EVERY,
                checkpoint_dir=d_full,
            )
            full_traj = list(wl.last_trainer.trajectory)

            # "kill" at the halfway checkpoint: a fresh workload (fresh
            # model, optimizer, estimator, loader) resumes from disk alone
            wl_part = build_workload("mnist", "smoke")
            wl_part.run(
                adaptive_batch=True, epochs=half, noise_every=NOISE_EVERY,
                checkpoint_dir=d_part,
            )
            wl_res = build_workload("mnist", "smoke")
            resumed = wl_res.run(
                adaptive_batch=True,
                epochs=epochs,
                noise_every=NOISE_EVERY,
                checkpoint_dir=d_part,
                resume=True,
            )
            resumed_traj = list(wl_res.last_trainer.trajectory)
            return full, full_traj, resumed, resumed_traj
        finally:
            shutil.rmtree(d_full, ignore_errors=True)
            shutil.rmtree(d_part, ignore_errors=True)

    full, full_traj, resumed, resumed_traj = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )

    save_result(
        "adaptive_batch_resume",
        (
            f"kill-at-epoch-{half}/resume trajectory reproduction "
            f"({EPOCHS} epochs)\n"
            f"  full    : {full_traj}  score "
            f"{full.final_metrics['accuracy']:.6f}\n"
            f"  resumed : {resumed_traj}  score "
            f"{resumed.final_metrics['accuracy']:.6f}"
        ),
    )

    assert resumed_traj == full_traj, (
        f"resumed batch trajectory {resumed_traj} diverged from the "
        f"uninterrupted run's {full_traj}"
    )
    assert (
        resumed.final_metrics["optimizer_steps"]
        == full.final_metrics["optimizer_steps"]
    )
    assert resumed.final_metrics["accuracy"] == full.final_metrics["accuracy"], (
        "resumed run is not bit-exact: accuracy "
        f"{resumed.final_metrics['accuracy']} vs {full.final_metrics['accuracy']}"
    )
    if SMOKE:
        return
    merge_bench_json(
        BENCH_JSON,
        {
            "resume": {
                "epochs": epochs,
                "killed_at_epoch": half,
                "trajectory": [list(t) for t in full_traj],
                "bit_exact": True,
            }
        }
    )
