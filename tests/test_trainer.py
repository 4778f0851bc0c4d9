"""Trainer loop and grid tuner."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.data import ArrayDataset, BatchIterator
from repro.nn import Linear
from repro.optim import SGD, Momentum
from repro.schedules import ConstantLR, GradualWarmup, Schedule
from repro.tensor import Tensor, cross_entropy
from repro.train import GridTuner, Trainer, TrainResult


def make_linear_problem(rng, n=64, d=4, classes=3):
    """A linearly separable toy classification problem."""
    w_true = rng.standard_normal((d, classes))
    x = rng.standard_normal((n, d))
    y = (x @ w_true).argmax(axis=1)
    ds = ArrayDataset(x, y)
    model = Linear(d, classes, rng=0)

    def loss_fn(batch):
        xb, yb = batch
        return cross_entropy(model(Tensor(xb)), yb)

    return ds, model, loss_fn


class TestTrainer:
    def test_loss_decreases(self, rng):
        ds, model, loss_fn = make_linear_problem(rng)
        it = BatchIterator(ds, 16, rng=1)
        trainer = Trainer(loss_fn, SGD(model, lr=0.5), ConstantLR(0.5), it)
        result = trainer.run(10)
        losses = result.log.values("loss")
        assert losses[-1] < 0.5 * losses[0]
        assert not result.diverged
        assert result.epochs_completed == 10

    def test_schedule_consulted_every_iteration(self, rng):
        ds, model, loss_fn = make_linear_problem(rng)
        it = BatchIterator(ds, 16, rng=1)
        seen = []

        class Recording(Schedule):
            def lr_at(self, iteration):
                seen.append(iteration)
                return 0.1

        Trainer(loss_fn, SGD(model, lr=0.1), Recording(), it).run(2)
        assert seen == list(range(2 * it.steps_per_epoch))

    def test_lr_series_matches_schedule(self, rng):
        ds, model, loss_fn = make_linear_problem(rng)
        it = BatchIterator(ds, 16, rng=1)
        sched = GradualWarmup(ConstantLR(1.0), 5)
        result = Trainer(loss_fn, SGD(model, lr=1.0), sched, it).run(2)
        for step, lr in result.log.series["lr"]:
            assert lr == pytest.approx(sched(step))

    def test_divergence_detected_and_aborts(self, rng):
        # squared-error loss overflows to inf under an absurd LR
        # (cross-entropy saturates instead, thanks to log-sum-exp shifting)
        ds, model, _ = make_linear_problem(rng)
        it = BatchIterator(ds, 16, rng=1)

        def sq_loss(batch):
            xb, _ = batch
            out = model(Tensor(xb))
            return (out * out).mean()

        trainer = Trainer(
            sq_loss, Momentum(model, lr=1e20), ConstantLR(1e20), it
        )
        result = trainer.run(10)
        assert result.diverged
        assert result.final_metrics.get("diverged") == 1.0
        assert result.epochs_completed < 10

    def test_eval_fn_recorded_per_epoch(self, rng):
        ds, model, loss_fn = make_linear_problem(rng)
        it = BatchIterator(ds, 16, rng=1)
        calls = []

        def eval_fn():
            calls.append(1)
            return {"metric": float(len(calls))}

        result = Trainer(
            loss_fn, SGD(model, lr=0.1), ConstantLR(0.1), it, eval_fn=eval_fn
        ).run(3)
        assert len(calls) == 3
        assert result.log.values("eval_metric") == [1.0, 2.0, 3.0]
        assert result.final_metrics["metric"] == 3.0

    def test_nan_eval_marks_divergence(self, rng):
        ds, model, loss_fn = make_linear_problem(rng)
        it = BatchIterator(ds, 16, rng=1)
        result = Trainer(
            loss_fn,
            SGD(model, lr=0.1),
            ConstantLR(0.1),
            it,
            eval_fn=lambda: {"metric": float("inf")},
        ).run(3)
        assert result.diverged

    def test_grad_clip_records_norm(self, rng):
        ds, model, loss_fn = make_linear_problem(rng)
        it = BatchIterator(ds, 16, rng=1)
        result = Trainer(
            loss_fn, SGD(model, lr=0.1), ConstantLR(0.1), it, grad_clip=0.01
        ).run(1)
        assert result.log.values("grad_norm")
        assert all(v >= 0 for v in result.log.values("grad_norm"))

    def test_metric_accessor_default(self):
        r = TrainResult(log=None)  # type: ignore[arg-type]
        assert r.metric("missing", 42.0) == 42.0

    def test_final_iteration_logged_with_sparse_log_every(self, rng):
        """The last point must land in the log even when log_every skips it."""
        ds, model, loss_fn = make_linear_problem(rng)
        it = BatchIterator(ds, 16, rng=1)  # 4 steps/epoch
        result = Trainer(
            loss_fn, SGD(model, lr=0.1), ConstantLR(0.1), it, grad_clip=1.0
        ).run(1, log_every=5)
        last = it.steps_per_epoch - 1  # iteration 3, not on the stride
        assert result.log.steps("loss") == [0, last]
        assert result.log.steps("lr") == [0, last]
        assert result.log.steps("grad_norm") == result.log.steps("loss")

    def test_final_iteration_not_duplicated_when_on_stride(self, rng):
        ds, model, loss_fn = make_linear_problem(rng)
        it = BatchIterator(ds, 16, rng=1)  # 4 steps/epoch
        result = Trainer(
            loss_fn, SGD(model, lr=0.1), ConstantLR(0.1), it
        ).run(1, log_every=1)
        assert result.log.steps("loss") == list(range(it.steps_per_epoch))

    def test_series_stay_synchronized(self, rng):
        """loss/lr/grad_norm record the same steps under any log_every."""
        for log_every in (1, 2, 5, 7):
            ds, model, loss_fn = make_linear_problem(rng)
            it = BatchIterator(ds, 16, rng=1)
            result = Trainer(
                loss_fn, SGD(model, lr=0.1), ConstantLR(0.1), it,
                grad_clip=0.5,
            ).run(3, log_every=log_every)
            steps = result.log.steps("loss")
            assert result.log.steps("lr") == steps
            assert result.log.steps("grad_norm") == steps

    def test_divergence_records_loss_and_lr_together(self, rng):
        ds, model, _ = make_linear_problem(rng)
        it = BatchIterator(ds, 16, rng=1)

        def sq_loss(batch):
            xb, _ = batch
            out = model(Tensor(xb))
            return (out * out).mean()

        result = Trainer(
            sq_loss, Momentum(model, lr=1e20), ConstantLR(1e20), it
        ).run(10, log_every=1000)  # stride would skip the diverged point
        assert result.diverged
        assert result.log.steps("loss") == result.log.steps("lr")
        assert not math.isfinite(result.log.values("loss")[-1])


class TestGridTuner:
    @staticmethod
    def fake_result(score, diverged=False):
        r = TrainResult(log=None)  # type: ignore[arg-type]
        r.final_metrics = {"m": score}
        r.diverged = diverged
        return r

    def test_picks_max(self):
        scores = {0.1: 0.7, 0.2: 0.9, 0.4: 0.8}
        tuner = GridTuner(lambda lr: self.fake_result(scores[lr]), "m", "max")
        out = tuner.sweep([0.1, 0.2, 0.4])
        assert out.best_lr == 0.2 and out.best_score == 0.9

    def test_picks_min(self):
        scores = {1.0: 30.0, 2.0: 10.0}
        tuner = GridTuner(lambda lr: self.fake_result(scores[lr]), "m", "min")
        assert tuner.sweep([1.0, 2.0]).best_lr == 2.0

    def test_diverged_runs_never_win(self):
        def run(lr):
            return self.fake_result(9999.0, diverged=True) if lr > 1 else self.fake_result(0.5)

        out = GridTuner(run, "m", "max").sweep([0.5, 2.0])
        assert out.best_lr == 0.5
        assert math.isnan(out.results[2.0])

    def test_all_diverged_raises(self):
        out = GridTuner(
            lambda lr: self.fake_result(1.0, diverged=True), "m", "max"
        ).sweep([0.1, 0.2])
        with pytest.raises(RuntimeError):
            _ = out.best_lr

    def test_empty_grid_raises(self):
        tuner = GridTuner(lambda lr: self.fake_result(1.0), "m", "max")
        with pytest.raises(ValueError):
            tuner.sweep([])

    def test_invalid_mode_raises(self):
        with pytest.raises(ValueError):
            GridTuner(lambda lr: None, "m", "median")

    def test_end_to_end_lr_sensitivity(self, rng):
        """A real sweep on the toy problem: mid LRs beat extremes."""
        ds, _, _ = make_linear_problem(rng)

        def run(lr):
            model = Linear(4, 3, rng=0)

            def loss_fn(batch):
                xb, yb = batch
                return cross_entropy(model(Tensor(xb)), yb)

            it = BatchIterator(ds, 16, rng=1)
            trainer = Trainer(loss_fn, SGD(model, lr=lr), ConstantLR(lr), it,
                              eval_fn=lambda: {"loss": float(loss_fn((ds.inputs, ds.targets)).data)})
            return trainer.run(5)

        out = GridTuner(run, "loss", "min").sweep([1e-4, 0.5, 1e6])
        assert out.best_lr == 0.5
