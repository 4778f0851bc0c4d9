"""The extensions compose: loss scaler × LEGW.

Each extension is unit-tested in isolation; these tests exercise the
combinations a real user would run, pinning the cross-cutting invariants.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import BatchIterator, make_sequential_mnist
from repro.models import MnistLSTMClassifier
from repro.optim import DynamicLossScaler, Momentum
from repro.schedules import LEGW
from repro.train import Trainer


@pytest.fixture
def mnist():
    return make_sequential_mnist(128, 32, rng=0, size=8)


def make_model(seed=3):
    return MnistLSTMClassifier(rng=seed, input_dim=8, transform_dim=8, hidden=8)


@pytest.mark.slow
class TestCompositions:
    def test_loss_scaler_with_legw_matches_unscaled(self, mnist):
        """Loss scaling composed with a LEGW schedule is a no-op on the
        trajectory (float64 powers of two are exact)."""
        train, _ = mnist
        spe = -(-len(train) // 16)
        sched = LEGW(0.05, 8, 0.1, 16, spe)

        plain = make_model()
        opt_p = Momentum(plain, lr=0.05)
        scaled = make_model()
        opt_s = Momentum(scaled, lr=0.05)
        scaler = DynamicLossScaler(initial_scale=2.0**12)

        it = BatchIterator(train, 16, rng=1, shuffle=False)
        iteration = 0
        for _ in range(2):
            for batch in it:
                lr = sched(iteration)
                opt_p.zero_grad()
                plain.loss(batch).backward()
                opt_p.step(lr=lr)
                opt_s.zero_grad()
                scaler.scaled(scaled.loss(batch)).backward()
                assert scaler.unscale_and_check(scaled.parameters())
                opt_s.step(lr=lr)
                iteration += 1
        for a, b in zip(plain.parameters(), scaled.parameters()):
            assert np.array_equal(a.data, b.data)
