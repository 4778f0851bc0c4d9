"""Trainer callbacks: early stopping, best tracking, lambda hooks."""

from __future__ import annotations

import pytest

from repro.data import ArrayDataset, BatchIterator
from repro.nn import Linear
from repro.optim import SGD
from repro.schedules import ConstantLR
from repro.tensor import Tensor, cross_entropy
from repro.train import (
    BestMetric,
    EarlyStopping,
    LambdaCallback,
    Trainer,
)


def make_setup(rng, eval_values=None):
    """A toy problem with a scripted eval sequence (when provided)."""
    x = rng.standard_normal((32, 4))
    y = rng.integers(0, 3, 32)
    ds = ArrayDataset(x, y)
    model = Linear(4, 3, rng=0)

    def loss_fn(batch):
        xb, yb = batch
        return cross_entropy(model(Tensor(xb)), yb)

    it = BatchIterator(ds, 8, rng=1)
    values = list(eval_values or [])

    def eval_fn():
        return {"metric": values.pop(0)} if values else {"metric": 0.0}

    return model, loss_fn, it, eval_fn


class TestBestMetric:
    def test_tracks_max(self, rng):
        model, loss_fn, it, eval_fn = make_setup(rng, [0.3, 0.8, 0.5])
        cb = BestMetric("metric", "max")
        Trainer(loss_fn, SGD(model, lr=0.1), ConstantLR(0.1), it,
                eval_fn=eval_fn, callbacks=[cb]).run(3)
        assert cb.best == 0.8 and cb.best_epoch == 1

    def test_tracks_min(self, rng):
        model, loss_fn, it, eval_fn = make_setup(rng, [5.0, 2.0, 3.0])
        cb = BestMetric("metric", "min")
        Trainer(loss_fn, SGD(model, lr=0.1), ConstantLR(0.1), it,
                eval_fn=eval_fn, callbacks=[cb]).run(3)
        assert cb.best == 2.0

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            BestMetric("m", "median")


class TestEarlyStopping:
    def test_stops_after_patience(self, rng):
        model, loss_fn, it, eval_fn = make_setup(
            rng, [0.9, 0.5, 0.5, 0.5, 0.99]
        )
        cb = EarlyStopping("metric", "max", patience=2)
        result = Trainer(
            loss_fn, SGD(model, lr=0.1), ConstantLR(0.1), it,
            eval_fn=eval_fn, callbacks=[cb],
        ).run(5)
        assert result.stopped_early
        assert result.epochs_completed == 3  # epochs 0,1,2 -> stop at 2
        assert cb.stopped_epoch == 2

    def test_improvement_resets_patience(self, rng):
        model, loss_fn, it, eval_fn = make_setup(
            rng, [0.5, 0.4, 0.6, 0.5, 0.7]
        )
        cb = EarlyStopping("metric", "max", patience=2)
        result = Trainer(
            loss_fn, SGD(model, lr=0.1), ConstantLR(0.1), it,
            eval_fn=eval_fn, callbacks=[cb],
        ).run(5)
        assert not result.stopped_early
        assert cb.best == 0.7

    def test_min_delta_requires_real_improvement(self, rng):
        model, loss_fn, it, eval_fn = make_setup(
            rng, [0.50, 0.505, 0.508]
        )
        cb = EarlyStopping("metric", "max", patience=2, min_delta=0.05)
        result = Trainer(
            loss_fn, SGD(model, lr=0.1), ConstantLR(0.1), it,
            eval_fn=eval_fn, callbacks=[cb],
        ).run(3)
        assert result.stopped_early

    def test_validation(self):
        with pytest.raises(ValueError):
            EarlyStopping("m", patience=0)


class TestLambdaCallback:
    def test_iteration_hook_called_every_step(self, rng):
        model, loss_fn, it, eval_fn = make_setup(rng)
        seen = []
        cb = LambdaCallback(on_iteration=lambda i, loss, lr: seen.append(i))
        Trainer(loss_fn, SGD(model, lr=0.1), ConstantLR(0.1), it,
                callbacks=[cb]).run(2)
        assert seen == list(range(2 * it.steps_per_epoch))

    def test_epoch_hook_can_stop(self, rng):
        model, loss_fn, it, eval_fn = make_setup(rng)
        cb = LambdaCallback(on_epoch_end=lambda e, m: e >= 1)
        result = Trainer(
            loss_fn, SGD(model, lr=0.1), ConstantLR(0.1), it, callbacks=[cb]
        ).run(10)
        assert result.stopped_early and result.epochs_completed == 2

    def test_noop_by_default(self, rng):
        model, loss_fn, it, eval_fn = make_setup(rng)
        result = Trainer(
            loss_fn, SGD(model, lr=0.1), ConstantLR(0.1), it,
            callbacks=[LambdaCallback()],
        ).run(2)
        assert not result.stopped_early
