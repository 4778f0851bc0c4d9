"""One entry point for a training run: ``Workload.train(TrainConfig)``.

Every combination of the config's fields either trains under a stated
guarantee or is refused by the config's validator, before anything is
built.  These tests hold the table: each refusal with its reason, and
each combination the one entry point opened with its guarantee.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.adapt import AdaptiveBatchTrainer, BatchSizeController
from repro.experiments import TrainConfig, build_workload
from repro.obs import Obs
from repro.parallel.cluster import SimCluster
from repro.schedules import ConstantLR
from repro.tensor.amp import mixed_precision
from repro.train import ResilientTrainer, Trainer


@pytest.fixture(scope="module")
def mnist():
    return build_workload("mnist", "smoke")


def _losses(result):
    return np.asarray(result.log.values("loss"))


def _params(trainer):
    return {name: p.data.copy() for name, p in trainer.model.named_parameters()}


# -- refusals ----------------------------------------------------------------

REFUSALS = [
    (dict(resume=True), "resume requires checkpoint_dir"),
    (dict(fault_rate=0.1), "fault_rate requires checkpoint_dir"),
    (dict(workers=0), "workers must be >= 1"),
    (dict(workers=2, backend="nccl"), "unknown backend"),
    (dict(wire_dtype="fp16"), "require workers"),
    (dict(workers=2, stochastic_rounding=True), "requires wire_dtype fp16"),
    (dict(workers=2, wire_dtype="fp16", stochastic_rounding=True,
          checkpoint_dir="ckpt"), "rounding stream is not checkpointed"),
    (dict(workers=2, amp=True), "compress the wire with wire_dtype"),
    (dict(adaptive_batch=True, batch=64), "owns the batch size"),
    (dict(adaptive_batch=True, fault_rate=0.1, checkpoint_dir="ckpt"),
     "has no rollback"),
    (dict(adaptive_batch=True, schedule=ConstantLR(0.1)), "LEGW schedule"),
    (dict(adaptive_batch=True, noise_every=0), "noise_every must be >= 1"),
    (dict(max_batch=64), "require adaptive_batch"),
    (dict(noise_every=8), "require adaptive_batch"),
    (dict(target_ratio=2.0), "require adaptive_batch"),
    (dict(rewarmup=False), "require adaptive_batch"),
]


@pytest.mark.parametrize(
    "options, reason", REFUSALS, ids=[r for _, r in REFUSALS]
)
def test_refused_before_anything_is_built(options, reason, monkeypatch, mnist):
    def make_model(seed):
        pytest.fail("the model was built before the refusal")

    monkeypatch.setattr(mnist, "make_model", make_model)
    with pytest.raises(ValueError, match=reason):
        mnist.run(**options)
    with pytest.raises(ValueError, match=reason):
        TrainConfig(**options)


# -- opened combinations -----------------------------------------------------


@pytest.mark.parametrize(
    "options",
    [dict(workers=2), dict(workers=2, wire_dtype="fp16")],
    ids=["sim-workers", "fp16-wire"],
)
def test_rollback_policy_through_a_cluster_resumes_bitwise(
    options, tmp_path, mnist
):
    """``workers`` (sim) and an fp16 wire under ``checkpoint_dir``: a run
    killed at epoch 2 and resumed ends where the uninterrupted run does."""
    schedule = mnist.legw_schedule(64, 4)
    full = mnist.run(64, schedule, epochs=4, checkpoint_dir=tmp_path / "a", **options)
    full_params = _params(mnist.last_trainer)
    mnist.run(64, schedule, epochs=2, checkpoint_dir=tmp_path / "b", **options)
    resumed = mnist.run(
        64, schedule, epochs=4, checkpoint_dir=tmp_path / "b", resume=True,
        **options,
    )
    tail = _losses(resumed)
    assert len(tail) == 2 * mnist.steps_per_epoch(64)
    assert np.array_equal(tail, _losses(full)[-len(tail):])
    for name, value in _params(mnist.last_trainer).items():
        assert np.array_equal(value, full_params[name]), name


@pytest.mark.slow
def test_adaptive_policy_on_mp_workers_matches_sim(mnist):
    runs = {}
    for backend in ("sim", "mp"):
        result = mnist.run(
            adaptive_batch=True, workers=2, backend=backend, epochs=4, seed=0
        )
        runs[backend] = (result, mnist.last_trainer.trajectory)
    (sim, sim_traj), (mp, mp_traj) = runs["sim"], runs["mp"]
    assert sim_traj == mp_traj
    assert len(sim_traj) > 1  # the batch grew, through the cluster's tap
    assert np.array_equal(_losses(sim), _losses(mp))


def test_adaptive_policy_compresses_the_wire(mnist):
    """An fp16 wire carries a quarter of the float64 gradient bytes."""
    per_bucket = {}
    for wire in (None, "fp16"):
        obs = Obs(metrics=True)
        with obs.activate():
            result = mnist.run(
                adaptive_batch=True, workers=2, wire_dtype=wire, epochs=1,
                obs=obs,
            )
        assert not result.diverged
        reg = obs.metrics
        per_bucket[wire] = (
            reg.counter("parallel/buckets/bytes").value
            / reg.counter("parallel/buckets/reduced").value
        )
    assert per_bucket["fp16"] == per_bucket[None] / 4


@pytest.mark.parametrize("backend", ["sim", "mp"])
def test_fp16_wire_over_one_bucket_trains(backend, mnist):
    """``bucket_mb=None`` reduces one bucket a step, and an fp16 wire
    carries a quarter of its float64 bytes, on both backends."""
    per_step = {}
    for wire in (None, "fp16"):
        obs = Obs(metrics=True)
        with obs.activate():
            result = mnist.run(
                64, workers=2, backend=backend, bucket_mb=None,
                wire_dtype=wire, epochs=1, obs=obs,
            )
        assert not result.diverged
        assert 0.0 <= result.final_metrics["overlap_fraction"] <= 1.0
        reg = obs.metrics
        steps = reg.counter("train/iterations").value
        assert reg.counter("parallel/buckets/reduced").value == steps
        per_step[wire] = reg.counter("parallel/buckets/bytes").value / steps
    assert per_step["fp16"] == per_step[None] / 4


def test_adaptive_policy_with_amp_resumes_bitwise(tmp_path, mnist):
    """Trajectory, losses, parameters and loss scale survive a kill."""
    options = dict(
        adaptive_batch=True, amp=True, noise_every=8, target_ratio=4.0, seed=1
    )
    full = mnist.run(epochs=4, checkpoint_dir=tmp_path / "a", **options)
    ref = mnist.last_trainer
    assert ref.amp and len(ref.trajectory) > 1
    mnist.run(epochs=2, checkpoint_dir=tmp_path / "b", **options)
    resumed = mnist.run(
        epochs=4, checkpoint_dir=tmp_path / "b", resume=True, **options
    )
    trainer = mnist.last_trainer
    assert trainer.trajectory == ref.trajectory
    tail = _losses(resumed)
    assert np.array_equal(tail, _losses(full)[-len(tail):])
    assert trainer.loss_scaler.scale == ref.loss_scaler.scale
    ref_params = _params(ref)
    for name, value in _params(trainer).items():
        assert np.array_equal(value, ref_params[name]), name


# -- one amp rule with workers ----------------------------------------------


@pytest.mark.parametrize("backend", ["sim", "mp"])
def test_unset_amp_is_off_with_workers(backend, mnist):
    """``REPRO_AMP`` reaches neither cluster: its losses stay full precision."""
    runs = {}
    for amp in (False, True):
        with mixed_precision(amp):
            runs[amp] = mnist.run(64, workers=2, backend=backend, epochs=1, seed=3)
    assert not mnist.last_trainer.amp
    assert np.array_equal(_losses(runs[True]), _losses(runs[False]))


@pytest.mark.parametrize("kind", ["plain", "resilient", "adaptive"])
def test_explicit_amp_with_a_cluster_loss_is_refused(kind, tmp_path, mnist):
    """Below the config too: every trainer refuses ``amp=True`` with a
    cluster's loss, whose installed gradients the loss scaler never saw."""
    model = mnist.make_model(0)
    cluster = SimCluster(list(model.parameters()), model.loss, 2)
    optimizer = mnist.make_optimizer(model)
    schedule = mnist.legw_schedule(16)
    with pytest.raises(ValueError, match="compress the wire with wire_dtype"):
        if kind == "plain":
            Trainer(
                cluster.as_loss_fn(model), optimizer, schedule,
                mnist.make_train_iter(16, 1), amp=True,
            )
        elif kind == "resilient":
            ResilientTrainer(
                model, optimizer, schedule, mnist.make_train_iter(16, 1),
                checkpoint_dir=tmp_path, loss_fn=cluster.as_loss_fn(model),
                amp=True,
            )
        else:
            AdaptiveBatchTrainer(
                model, optimizer, schedule, mnist.make_train_iter,
                base_batch=16, controller=BatchSizeController(16, 256),
                cluster=cluster, amp=True,
            )
