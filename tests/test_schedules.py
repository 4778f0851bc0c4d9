"""Schedule semantics — LEGW's laws are the heart of the reproduction."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.schedules import (
    ConstantLR,
    ExponentialEpochDecay,
    GradualWarmup,
    LEGW,
    MultiStepDecay,
    PolynomialDecay,
    legw_peak_lr,
    legw_warmup_epochs,
    linear_scaled_lr,
    sqrt_scaled_lr,
)


class TestScalingRules:
    def test_sqrt_rule(self):
        assert sqrt_scaled_lr(0.1, 128, 512) == pytest.approx(0.2)

    def test_linear_rule(self):
        assert linear_scaled_lr(0.1, 128, 512) == pytest.approx(0.4)

    def test_identity_at_base(self):
        assert sqrt_scaled_lr(0.3, 64, 64) == pytest.approx(0.3)
        assert linear_scaled_lr(0.3, 64, 64) == pytest.approx(0.3)

    def test_downscaling_inverts(self):
        """Section 3.3: tuning at large batch and scaling down is exact."""
        up = sqrt_scaled_lr(0.1, 128, 8192)
        assert sqrt_scaled_lr(up, 8192, 128) == pytest.approx(0.1)

    def test_invalid_batches_raise(self):
        with pytest.raises(ValueError):
            sqrt_scaled_lr(0.1, 0, 128)
        with pytest.raises(ValueError):
            linear_scaled_lr(0.1, 128, -1)


class TestConstantAndLambda:
    def test_constant(self):
        s = ConstantLR(0.5)
        assert s(0) == s(1000) == 0.5

    def test_negative_lr_rejected(self):
        with pytest.raises(ValueError):
            ConstantLR(-0.1)

    def test_negative_iteration_rejected(self):
        with pytest.raises(ValueError):
            ConstantLR(0.1)(-1)


class TestMultiStep:
    def test_paper_milestones(self):
        """Figure 2.1: x0.1 at epochs 30/60/80 over 90 epochs."""
        spe = 100
        s = MultiStepDecay(2.0, [30, 60, 80], 0.1, spe)
        assert s(29 * spe) == pytest.approx(2.0)
        assert s(30 * spe) == pytest.approx(0.2)
        assert s(60 * spe) == pytest.approx(0.02)
        assert s(80 * spe) == pytest.approx(0.002)

    def test_fractional_milestones(self):
        s = MultiStepDecay(1.0, [0.5], 0.1, steps_per_epoch=10)
        assert s(4) == 1.0 and s(5) == pytest.approx(0.1)

    def test_unsorted_milestones_raise(self):
        with pytest.raises(ValueError):
            MultiStepDecay(1.0, [60, 30], 0.1, 10)

    def test_duplicate_milestones_raise(self):
        # [30, 30, 60] would silently apply gamma twice at one iteration
        with pytest.raises(ValueError, match="strictly increasing"):
            MultiStepDecay(1.0, [30, 30, 60], 0.1, 10)

    def test_bad_steps_per_epoch(self):
        with pytest.raises(ValueError):
            MultiStepDecay(1.0, [1], 0.1, 0)


class TestExponentialEpochDecay:
    def test_ptb_small_recipe(self):
        """Hold 7 epochs, then x0.4 each epoch (the paper's PTB-small)."""
        spe = 50
        s = ExponentialEpochDecay(1.0, hold_epochs=7, decay_rate=0.4, steps_per_epoch=spe)
        assert s(6 * spe + 49) == pytest.approx(1.0)
        assert s(7 * spe) == pytest.approx(0.4)
        assert s(8 * spe) == pytest.approx(0.16)

    def test_monotone_nonincreasing(self):
        s = ExponentialEpochDecay(1.0, 2, 0.5, 10)
        series = [s(i) for i in range(100)]
        assert all(a >= b for a, b in zip(series, series[1:]))

    def test_invalid_decay_rate(self):
        with pytest.raises(ValueError):
            ExponentialEpochDecay(1.0, 2, 1.5, 10)


class TestPolynomialDecay:
    def test_paper_formula(self):
        """lr(i) = eta * (1 - i/I)^p (Section 3.2)."""
        s = PolynomialDecay(2.0, total_iterations=100, power=2.0)
        for i in [0, 25, 50, 99]:
            assert s(i) == pytest.approx(2.0 * (1 - i / 100) ** 2)

    def test_clamps_past_horizon(self):
        s = PolynomialDecay(1.0, 10, power=2.0)
        assert s(10) == 0.0 and s(50) == 0.0

    def test_monotone_decreasing(self):
        s = PolynomialDecay(1.0, 50, power=2.0)
        series = [s(i) for i in range(50)]
        assert all(a >= b for a, b in zip(series, series[1:]))

    def test_invalid_total(self):
        with pytest.raises(ValueError):
            PolynomialDecay(1.0, 0)


class TestGradualWarmup:
    def test_linear_ramp(self):
        s = GradualWarmup(ConstantLR(1.0), 10)
        assert s(0) == pytest.approx(0.1)
        assert s(4) == pytest.approx(0.5)
        assert s(9) == pytest.approx(1.0)
        assert s(10) == 1.0

    def test_zero_warmup_is_identity(self):
        inner = ConstantLR(0.7)
        s = GradualWarmup(inner, 0)
        assert s(0) == 0.7

    def test_ramp_targets_inner_value_at_handoff(self):
        inner = PolynomialDecay(1.0, 100, power=1.0)
        s = GradualWarmup(inner, 20)
        assert s(19) == pytest.approx(inner(20))

    def test_monotone_during_warmup(self):
        s = GradualWarmup(ConstantLR(1.0), 50)
        series = [s(i) for i in range(50)]
        assert all(a < b for a, b in zip(series, series[1:]))

    def test_negative_warmup_rejected(self):
        with pytest.raises(ValueError):
            GradualWarmup(ConstantLR(1.0), -1)


class TestLEGW:
    def test_peak_lr_is_sqrt_scaled(self):
        s = LEGW(0.1, 128, 0.3125, 1024, steps_per_epoch=59)
        assert s.peak_lr == pytest.approx(0.1 * math.sqrt(8))

    def test_warmup_epochs_linear_in_batch(self):
        s = LEGW(0.1, 128, 0.3125, 1024, steps_per_epoch=59)
        assert s.warmup_epochs == pytest.approx(0.3125 * 8)

    def test_warmup_iterations_invariant_across_ladder(self):
        """Table 2's corollary: warmup iterations constant under scaling."""
        n = 65_536  # exactly divisible by every rung
        base_batch, base_wu = 128, 0.3125
        iters = []
        for k in [1, 2, 4, 8, 16]:
            batch = base_batch * k
            spe = n // batch
            s = LEGW(0.1, base_batch, base_wu, batch, spe)
            iters.append(s.warmup_iterations)
        assert len(set(iters)) == 1

    def test_identity_at_base_batch(self):
        s = LEGW(0.1, 128, 0.5, 128, steps_per_epoch=100)
        assert s.peak_lr == pytest.approx(0.1)
        assert s.warmup_epochs == pytest.approx(0.5)

    def test_table3_lr_column(self):
        """Paper Table 3: init LR 2^2.5 at 1K doubling-sqrt to 2^5 at 32K."""
        for j, batch in enumerate([1024, 2048, 4096, 8192, 16384, 32768]):
            s = LEGW(2.0**2.5, 1024, 0.3125, batch, steps_per_epoch=10)
            assert s.peak_lr == pytest.approx(2.0 ** (2.5 + j * 0.5))

    def test_composes_with_decay(self):
        spe = 100
        s = LEGW(
            1.0, 64, 0.1, 256, spe,
            decay=lambda peak: MultiStepDecay(peak, [5], 0.1, spe),
        )
        # after warmup, before milestone: peak; after milestone: peak/10
        assert s(2 * spe) == pytest.approx(s.peak_lr)
        assert s(6 * spe) == pytest.approx(s.peak_lr * 0.1)

    def test_warmup_ramp_below_peak(self):
        s = LEGW(1.0, 64, 1.0, 512, steps_per_epoch=10)
        for i in range(s.warmup_iterations - 1):
            assert s(i) < s.peak_lr + 1e-12

    def test_describe_columns(self):
        s = LEGW(0.1, 128, 0.25, 512, steps_per_epoch=20)
        assert s.batch == 512
        assert s.peak_lr == pytest.approx(0.2)
        assert s.warmup_epochs == pytest.approx(1.0)
        assert s.warmup_iterations == 20

    def test_helper_functions(self):
        assert legw_peak_lr(0.1, 128, 512) == pytest.approx(0.2)
        assert legw_warmup_epochs(0.25, 128, 512) == pytest.approx(1.0)

    def test_invalid_steps_per_epoch(self):
        with pytest.raises(ValueError):
            LEGW(0.1, 128, 0.25, 512, steps_per_epoch=0)

    def test_repr_mentions_key_numbers(self):
        s = LEGW(0.1, 128, 0.25, 512, steps_per_epoch=20)
        assert "512" in repr(s) and "warmup" in repr(s)
