"""Fault-tolerant training: rollback, bit-exact resume, recovery policy."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.data import BatchIterator, make_sequential_mnist
from repro.models import MnistLSTMClassifier
from repro.obs import Obs
from repro.optim import LAMB, LARS, Adam, DynamicLossScaler, Momentum
from repro.parallel import LossFaultInjector
from repro.schedules import ConstantLR
from repro.train import RecoverySchedule, ResilientTrainer


def make_model():
    return MnistLSTMClassifier(rng=3, input_dim=8, transform_dim=8, hidden=8)


@pytest.fixture
def mnist_small():
    train, _ = make_sequential_mnist(32, 8, rng=0, size=8)
    return train


class TestRecoverySchedule:
    def test_identity_until_backed_off(self):
        env = RecoverySchedule(ConstantLR(0.4))
        assert env(0) == 0.4
        assert env(100) == 0.4

    def test_backoff_scales_and_rewarms(self):
        env = RecoverySchedule(ConstantLR(1.0))
        env.back_off(0.5, at_iteration=10, rewarmup_steps=4)
        # linear ramp over the 4 iterations after the restore point
        assert env(10) == pytest.approx(0.5 * 1 / 4)
        assert env(11) == pytest.approx(0.5 * 2 / 4)
        assert env(13) == pytest.approx(0.5)
        assert env(14) == pytest.approx(0.5)  # ramp over, plain backed-off LR
        assert env(0) == pytest.approx(0.5)  # scale is global; only the ramp is windowed

    def test_backoffs_compound(self):
        env = RecoverySchedule(ConstantLR(1.0))
        env.back_off(0.5, at_iteration=0, rewarmup_steps=1)
        env.back_off(0.5, at_iteration=0, rewarmup_steps=1)
        assert env(5) == pytest.approx(0.25)

    def test_state_roundtrip(self):
        env = RecoverySchedule(ConstantLR(1.0))
        env.back_off(0.3, at_iteration=7, rewarmup_steps=5)
        fresh = RecoverySchedule(ConstantLR(1.0))
        fresh.load_state(env.state())
        assert fresh.lr_scale == env.lr_scale
        assert fresh.rewarmup_from == 7
        assert fresh.rewarmup_steps == 5
        assert [fresh(i) for i in range(15)] == [env(i) for i in range(15)]


def run_resilient(train, ckpt_dir, *, solver, epochs, resume=False,
                  with_scaler=False, injector=None,
                  max_recoveries=2, obs=None):
    model = make_model()
    opt = solver(model, lr=0.05)
    scaler = DynamicLossScaler(initial_scale=8.0) if with_scaler else None
    trainer = ResilientTrainer(
        model, opt, ConstantLR(0.05), BatchIterator(train, 8, rng=1),
        checkpoint_dir=ckpt_dir, loss_scaler=scaler,
        fault_injector=injector, max_recoveries=max_recoveries, obs=obs,
    )
    result = trainer.run(epochs, resume=resume)
    return model, trainer, result


@pytest.mark.slow
class TestBitExactResume:
    @pytest.mark.parametrize("solver", [Momentum, Adam, LARS, LAMB])
    def test_kill_and_resume_matches_uninterrupted(
        self, tmp_path, mnist_small, solver
    ):
        straight, _, _ = run_resilient(
            mnist_small, tmp_path / "a", solver=solver, epochs=4
        )
        # "kill" after 2 epochs: run 2, then a *fresh* process picks up
        run_resilient(mnist_small, tmp_path / "b", solver=solver, epochs=2)
        resumed, _, _ = run_resilient(
            mnist_small, tmp_path / "b", solver=solver, epochs=4, resume=True
        )
        for (name, a), (_, b) in zip(
            straight.named_parameters(), resumed.named_parameters()
        ):
            assert np.array_equal(a.data, b.data), name

    def test_resume_covers_scaler(self, tmp_path, mnist_small):
        straight, t_straight, _ = run_resilient(
            mnist_small, tmp_path / "a", solver=Adam, epochs=4,
            with_scaler=True,
        )
        run_resilient(
            mnist_small, tmp_path / "b", solver=Adam, epochs=2,
            with_scaler=True,
        )
        resumed, t_resumed, _ = run_resilient(
            mnist_small, tmp_path / "b", solver=Adam, epochs=4, resume=True,
            with_scaler=True,
        )
        for (name, a), (_, b) in zip(
            straight.named_parameters(), resumed.named_parameters()
        ):
            assert np.array_equal(a.data, b.data), name
        assert t_resumed.loss_scaler.scale == t_straight.loss_scaler.scale


@pytest.mark.slow
class TestRollback:
    def test_single_fault_recovers(self, tmp_path, mnist_small):
        obs = Obs(metrics=True)
        injector = LossFaultInjector(1.0, seed=0, max_faults=1)
        _, trainer, result = run_resilient(
            mnist_small, tmp_path, solver=Momentum, epochs=2,
            injector=injector, obs=obs,
        )
        assert not result.diverged
        assert result.epochs_completed == 2
        assert result.final_metrics["faults_detected"] == 1.0
        assert result.final_metrics["recoveries"] == 1.0
        assert obs.metrics.counter("resilience/faults_detected").value == 1.0
        assert obs.metrics.counter("resilience/recoveries").value == 1.0
        # the true history keeps the NaN point, then the replay appends
        losses = result.log.values("loss")
        assert any(math.isnan(v) for v in losses)
        assert math.isfinite(losses[-1])

    def test_recovery_backs_off_lr(self, tmp_path, mnist_small):
        injector = LossFaultInjector(1.0, seed=0, max_faults=1)
        _, trainer, result = run_resilient(
            mnist_small, tmp_path, solver=Momentum, epochs=2, injector=injector
        )
        assert trainer.envelope.lr_scale == pytest.approx(0.5)
        # post-recovery LRs in the log sit at/below the backed-off peak
        finite_lrs = [v for v in result.log.values("lr") if math.isfinite(v)]
        assert finite_lrs[-1] <= 0.05 * 0.5 + 1e-12

    def test_budget_exhaustion_reports_divergence(self, tmp_path, mnist_small):
        _, trainer, result = run_resilient(
            mnist_small, tmp_path, solver=Momentum, epochs=2,
            injector=lambda it, loss: float("nan"),  # persistent fault
            max_recoveries=1,
        )
        assert result.diverged
        assert result.final_metrics["diverged"] == 1.0
        assert result.final_metrics["recoveries"] == 1.0
        assert result.final_metrics["faults_detected"] == 2.0

    def test_corrupt_newest_checkpoint_falls_back(self, tmp_path, mnist_small):
        run_resilient(mnist_small, tmp_path, solver=Momentum, epochs=2)
        ckpts = sorted(tmp_path.glob("ckpt_*.npz"))
        ckpts[-1].write_bytes(b"garbage" * 64)
        resumed, trainer, result = run_resilient(
            mnist_small, tmp_path, solver=Momentum, epochs=3, resume=True
        )
        assert not result.diverged
        assert result.epochs_completed == 3
        assert trainer.manager.corrupt_skipped  # the bad file was noticed


class TestResilientTrainerValidation:
    def test_one_shot_iterator_detected(self, tmp_path, mnist_small):
        model = make_model()
        batches = iter(BatchIterator(mnist_small, 8, rng=1))
        trainer = ResilientTrainer(
            model, Momentum(model, lr=0.01), ConstantLR(0.01), batches,
            checkpoint_dir=tmp_path,
        )
        with pytest.raises(ValueError, match="one-shot iterator"):
            trainer.run(2)

    def test_parameter_validation(self, tmp_path, mnist_small):
        model = make_model()
        opt = Momentum(model, lr=0.1)
        batches = BatchIterator(mnist_small, 8, rng=1)
        with pytest.raises(ValueError):
            ResilientTrainer(model, opt, ConstantLR(0.1), batches,
                             checkpoint_dir=tmp_path, max_recoveries=-1)
