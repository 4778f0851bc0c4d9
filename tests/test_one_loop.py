"""One training loop: every trainer runs the same step, with the same rules.

``Trainer``, ``ResilientTrainer`` and ``AdaptiveBatchTrainer`` are
configurations of one loop.  These tests pin that down two ways:

* **equivalence** — with nothing to recover from and no batch to grow,
  the three trainers leave bit-identical loss series and parameters on
  three real workloads, and the open-loop milestone arm matches the
  hand-written loop it replaced;
* **one set of rules** — a non-finite loss, a non-finite eval metric, a
  sparse ``log_every``, an amp overflow, a one-shot iterator and the clip
  span behave the same under every trainer.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.adapt import AdaptiveBatchTrainer, BatchSizeController
from repro.data import BatchIterator, make_sequential_mnist
from repro.experiments import build_workload
from repro.experiments.extension_growbatch import train_grow_batch
from repro.models import MnistLSTMClassifier
from repro.obs import Obs
from repro.optim import DynamicLossScaler, Momentum
from repro.optim.clip import clip_grad_norm
from repro.schedules import ConstantLR, GradualWarmup, GrowBatchSchedule
from repro.train import ResilientTrainer, Trainer

KINDS = ("trainer", "resilient", "adaptive")


# -- equivalence -------------------------------------------------------------


def _train(kind, wl, batch, seed, tmp_path):
    model = wl.make_model(seed)
    optimizer = wl.make_optimizer(model)
    schedule = wl.legw_schedule(batch, 2)
    if kind == "trainer":
        trainer = Trainer(
            model.loss, optimizer, schedule, wl.make_train_iter(batch, seed + 1),
            grad_clip=wl.grad_clip, amp=False,
        )
    elif kind == "resilient":
        trainer = ResilientTrainer(
            model, optimizer, schedule, wl.make_train_iter(batch, seed + 1),
            checkpoint_dir=tmp_path, grad_clip=wl.grad_clip, amp=False,
        )
    else:
        trainer = AdaptiveBatchTrainer(
            model, optimizer, schedule, wl.make_train_iter,
            base_batch=batch, controller=BatchSizeController(batch, batch),
            data_seed=seed + 1, grad_clip=wl.grad_clip, amp=False,
        )
    result = trainer.run(2)
    assert not result.diverged
    return model, result.log.values("loss")


@pytest.mark.slow
@pytest.mark.parametrize(
    "workload, batch", [("mnist", 16), ("ptb_small", 20), ("gnmt", 16)]
)
def test_trainers_are_bit_identical_without_faults_or_growth(
    workload, batch, tmp_path
):
    wl = build_workload(workload, "smoke")
    runs = {
        kind: _train(kind, wl, batch, 3, tmp_path / kind) for kind in KINDS
    }
    ref_model, ref_losses = runs["trainer"]
    assert len(ref_losses) == 2 * wl.steps_per_epoch(batch)
    for kind in ("resilient", "adaptive"):
        model, losses = runs[kind]
        assert np.array_equal(losses, ref_losses), kind
        for (name, a), (_, b) in zip(
            ref_model.named_parameters(), model.named_parameters()
        ):
            assert np.array_equal(a.data, b.data), (kind, name)


def _train_milestone(wl, grow: GrowBatchSchedule, seed: int) -> tuple[float, int]:
    """Open-loop milestone growth (LR flat after base warmup).

    Returns (final metric, optimizer steps); the modeled time comes from
    the schedule's ladder.
    """
    model = wl.make_model(seed)
    optimizer = wl.make_optimizer(model)
    warmup_iters = int(round(wl.base_warmup_epochs * wl.steps_per_epoch(wl.base_batch)))
    schedule = GradualWarmup(ConstantLR(wl.base_lr), warmup_iters)
    eval_fn = wl.make_eval_fn(model)
    params = [p for _, p in optimizer.params]

    iteration = 0
    current_batch = None
    train_iter = None
    for epoch in range(wl.epochs):
        batch_size = grow.batch_at(epoch)
        if batch_size != current_batch:
            train_iter = wl.make_train_iter(batch_size, seed + 1 + epoch)
            current_batch = batch_size
        for batch in train_iter:
            lr = schedule(iteration)
            optimizer.zero_grad()
            loss = model.loss(batch)
            if not math.isfinite(float(loss.data)):
                return float("nan"), iteration
            loss.backward()
            if wl.grad_clip is not None:
                clip_grad_norm(params, wl.grad_clip)
            optimizer.step(lr=lr)
            iteration += 1
    return float(eval_fn()[wl.metric]), iteration


def _recording_workload(epochs: int):
    """An mnist smoke workload whose models log every training loss."""
    wl = build_workload("mnist", "smoke")
    wl.epochs = epochs
    models, losses = [], []
    make_model = wl.make_model

    def make(seed):
        model = make_model(seed)
        loss_fn = model.loss

        def recorded(batch):
            loss = loss_fn(batch)
            losses.append(float(loss.data))
            return loss

        model.loss = recorded
        models.append(model)
        return model

    wl.make_model = make
    return wl, models, losses


@pytest.mark.slow
def test_milestone_arm_matches_the_hand_written_loop():
    grow = GrowBatchSchedule(16, [1], factor=2.0, max_batch=256)
    wl_ref, ref_models, ref_losses = _recording_workload(2)
    ref_score, ref_steps = _train_milestone(wl_ref, grow, seed=0)
    wl_new, new_models, new_losses = _recording_workload(2)
    result = train_grow_batch(wl_new, grow, seed=0)

    assert ref_steps == 64 + 32  # the growth at epoch 1 halved the steps
    assert result.final_metrics["optimizer_steps"] == ref_steps
    assert result.final_metrics[wl_new.metric] == ref_score
    assert new_losses == ref_losses
    for (name, a), (_, b) in zip(
        ref_models[0].named_parameters(), new_models[0].named_parameters()
    ):
        assert np.array_equal(a.data, b.data), name


# -- one set of rules ----------------------------------------------------------

STEPS = 8  # MNIST-LSTM 8x8, 64 samples at batch 8


@pytest.fixture(scope="module")
def mnist_train():
    train, _ = make_sequential_mnist(64, 16, rng=0, size=8)
    return train


def _build(kind, tmp_path, train, *, fault=None, make_iter=None, **kwargs):
    """One of the three trainers on the same model, data and schedule.

    ``fault(model, optimizer) -> loss_fn`` replaces ``model.loss``.
    """
    model = MnistLSTMClassifier(rng=3, input_dim=8, transform_dim=8, hidden=8)
    optimizer = Momentum(model, lr=0.05)
    loss_fn = model.loss if fault is None else fault(model, optimizer)
    schedule = ConstantLR(0.05)
    if make_iter is None:
        def make_iter(batch, seed):
            return BatchIterator(train, batch, rng=seed)
    if kind == "trainer":
        return Trainer(
            loss_fn, optimizer, schedule, make_iter(8, 1),
            amp=kwargs.pop("amp", False), **kwargs,
        )
    if kind == "resilient":
        return ResilientTrainer(
            model, optimizer, schedule, make_iter(8, 1), checkpoint_dir=tmp_path,
            loss_fn=loss_fn, amp=kwargs.pop("amp", False), **kwargs,
        )
    return AdaptiveBatchTrainer(
        model, optimizer, schedule, make_iter, base_batch=8,
        controller=BatchSizeController(8, 8), data_seed=1, loss_fn=loss_fn,
        noise_every=64, amp=kwargs.pop("amp", False), **kwargs,
    )


def _inf_loss_once(at_step: int):
    """A ``fault`` whose loss is inf once, at optimizer step ``at_step``."""

    def fault(model, optimizer):
        fired = []

        def loss_fn(batch):
            loss = model.loss(batch)
            if optimizer.iteration == at_step and not fired:
                fired.append(at_step)
                return loss * math.inf
            return loss

        return loss_fn

    return fault


@pytest.mark.parametrize("kind", KINDS)
def test_nonfinite_loss_is_logged_as_observed(kind, tmp_path, mnist_train):
    trainer = _build(kind, tmp_path, mnist_train, fault=_inf_loss_once(3))
    result = trainer.run(2)
    losses = result.log.values("loss")
    assert losses.count(math.inf) == 1
    assert not any(math.isnan(v) for v in losses)
    if kind == "resilient":
        assert not result.diverged
        assert result.final_metrics["recoveries"] == 1.0
    else:
        assert result.diverged
        assert result.log.steps("loss")[-1] == 3
        assert losses[-1] == math.inf


@pytest.mark.parametrize("kind", KINDS)
def test_nonfinite_eval_metric_is_a_fault(kind, tmp_path, mnist_train):
    calls = []

    def eval_fn():  # NaN after the first epoch only
        calls.append(1)
        return {"metric": math.nan if len(calls) == 1 else 1.0}

    trainer = _build(kind, tmp_path, mnist_train, eval_fn=eval_fn)
    result = trainer.run(2)
    if kind == "resilient":  # rolled back, then trained both epochs
        assert not result.diverged
        assert result.epochs_completed == 2
        assert result.final_metrics["recoveries"] == 1.0
        assert result.final_metrics["faults_detected"] == 1.0
    else:
        assert result.diverged
        assert result.epochs_completed == 1
        assert result.final_metrics["diverged"] == 1.0
        assert math.isnan(result.log.values("eval_metric")[-1])


@pytest.mark.parametrize("kind", KINDS)
def test_sparse_log_every_logs_the_last_iteration(kind, tmp_path, mnist_train):
    result = _build(kind, tmp_path, mnist_train, grad_clip=1.0).run(1, log_every=3)
    assert result.log.steps("loss") == [0, 3, 6, STEPS - 1]
    assert result.log.steps("lr") == result.log.steps("loss")
    assert result.log.steps("grad_norm") == result.log.steps("loss")


@pytest.mark.parametrize("kind", ("trainer", "resilient"))
def test_amp_skipped_steps_are_logged_and_counted(kind, tmp_path, mnist_train):
    obs = Obs(metrics=True)
    scaler = DynamicLossScaler(initial_scale=2.0**40)
    trainer = _build(
        kind, tmp_path, mnist_train, amp=True, loss_scaler=scaler, obs=obs,
        grad_clip=1.0,
    )
    result = trainer.run(1)
    skipped = 40 - int(math.log2(scaler.scale))
    assert skipped > 0  # the scale backed off: some steps were skipped
    assert result.log.steps("loss") == list(range(STEPS))
    assert len(result.log.values("grad_norm")) == STEPS - skipped
    assert obs.metrics.counter("train/iterations").value == STEPS


class _OneShot:
    """A loader whose second ``iter()`` yields nothing, like a generator."""

    def __init__(self, inner):
        self.dataset = inner.dataset
        self.rng = inner.rng
        self.steps_per_epoch = inner.steps_per_epoch
        self._batches = iter(inner)

    def __iter__(self):
        return self._batches


@pytest.mark.parametrize("kind", KINDS)
def test_one_shot_iterator_is_refused(kind, tmp_path, mnist_train):
    def make_iter(batch, seed):
        return _OneShot(BatchIterator(mnist_train, batch, rng=seed))

    trainer = _build(kind, tmp_path, mnist_train, make_iter=make_iter)
    with pytest.raises(ValueError, match="one-shot iterator"):
        trainer.run(3)


@pytest.mark.parametrize("kind", KINDS)
def test_clip_runs_under_the_clip_span(kind, tmp_path, mnist_train):
    obs = Obs(trace=True)
    _build(kind, tmp_path, mnist_train, grad_clip=1.0, obs=obs).run(1)
    clips = [ev for ev in obs.tracer.events if ev.path.endswith("/clip")]
    assert len(clips) == STEPS


@pytest.mark.parametrize("kind", ("resilient", "adaptive"))
def test_resume_falls_back_past_a_corrupt_checkpoint(kind, tmp_path, mnist_train):
    """Both checkpointed trainers share one restore, which skips a torn
    newest file and resumes from the one before it."""
    extra = {"checkpoint_dir": tmp_path} if kind == "adaptive" else {}
    _build(kind, tmp_path, mnist_train, **extra).run(2)
    sorted(tmp_path.glob("ckpt_*.npz"))[-1].write_bytes(b"garbage" * 64)
    trainer = _build(kind, tmp_path, mnist_train, **extra)
    result = trainer.run(3, resume=True)
    assert not result.diverged
    assert result.epochs_completed == 3
    assert trainer.manager.corrupt_skipped
