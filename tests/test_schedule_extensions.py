"""Extension schedule: grow-batch."""

from __future__ import annotations

import pytest

from repro.schedules import GrowBatchSchedule


class TestGrowBatchSchedule:
    def test_milestone_growth(self):
        s = GrowBatchSchedule(32, [10, 20], factor=2.0)
        assert s.batch_at(0) == 32
        assert s.batch_at(9) == 32
        assert s.batch_at(10) == 64
        assert s.batch_at(20) == 128

    def test_cap(self):
        s = GrowBatchSchedule(32, [1, 2, 3], factor=4.0, max_batch=100)
        assert s.batch_at(3) == 100

    def test_ladder(self):
        s = GrowBatchSchedule(8, [2], factor=2.0)
        assert s.ladder(4) == [8, 8, 16, 16]

    def test_mirrors_multistep_decay_ratios(self):
        """Growing batch by 1/gamma at the decay milestones is the Smith
        et al. recipe: the batch ratio ladder must equal the inverse of a
        gamma-decay LR ladder."""
        gamma = 0.5
        grow = GrowBatchSchedule(16, [30, 60, 80], factor=1 / gamma)
        for epoch in (0, 30, 60, 85):
            passed = sum(1 for m in [30, 60, 80] if epoch >= m)
            assert grow.batch_at(epoch) == pytest.approx(16 * (1 / gamma) ** passed)

    def test_validation(self):
        with pytest.raises(ValueError):
            GrowBatchSchedule(0, [1])
        with pytest.raises(ValueError):
            GrowBatchSchedule(8, [1], factor=1.0)
        with pytest.raises(ValueError):
            GrowBatchSchedule(8, [5, 1])

    def test_cap_below_base_rejected(self):
        with pytest.raises(ValueError):
            GrowBatchSchedule(64, [1], max_batch=32)

    def test_state_dict_roundtrip(self):
        s = GrowBatchSchedule(16, [2, 4], factor=2.0, max_batch=128)
        restored = GrowBatchSchedule(8, [1], factor=3.0)
        restored.load_state_dict(s.state_dict())
        assert restored.ladder(6) == s.ladder(6)
        assert restored.max_batch == 128

    def test_state_dict_roundtrips_uncapped(self):
        restored = GrowBatchSchedule(4, [1], max_batch=8)
        restored.load_state_dict(GrowBatchSchedule(8, [1]).state_dict())
        assert restored.max_batch is None
        assert restored.base_batch == 8

    def test_load_state_dict_validates(self):
        bad = GrowBatchSchedule(8, [1]).state_dict()
        bad["max_batch"] = 2  # below the base batch
        s = GrowBatchSchedule(8, [1])
        with pytest.raises(ValueError):
            s.load_state_dict(bad)

    def test_repr(self):
        assert "x2" in repr(GrowBatchSchedule(8, [1], factor=2.0))
