"""LAMB."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Parameter
from repro.optim import LAMB, SGD, SOLVERS


class TestLAMB:
    def test_registered_in_solver_registry(self):
        assert SOLVERS["lamb"] is LAMB

    def test_descends_quadratic(self, rng):
        diag = rng.uniform(0.5, 2.0, 6)
        x = Parameter(rng.standard_normal(6).reshape(2, 3))

        def step_loss():
            x.grad = (diag * x.data.reshape(-1)).reshape(2, 3)
            return 0.5 * float(diag @ (x.data.reshape(-1) ** 2))

        opt = LAMB([("x", x)], lr=0.05)
        first = step_loss()
        for _ in range(300):
            step_loss()
            opt.step()
        assert step_loss() < 0.2 * first

    def test_trust_ratio_formula(self, rng):
        w = Parameter(rng.standard_normal((4, 4)))
        u = rng.standard_normal((4, 4))
        opt = LAMB([("w", w)], lr=1.0)
        assert opt.trust_ratio(w, u) == pytest.approx(
            np.linalg.norm(w.data) / np.linalg.norm(u)
        )

    def test_trust_ratio_skips_1d(self, rng):
        b = Parameter(rng.standard_normal(4))
        assert LAMB([("b", b)], lr=1.0).trust_ratio(b, np.ones(4)) == 1.0

    def test_update_invariant_to_gradient_scale(self, rng):
        """LAMB inherits Adam's sign-direction + LARS's norm control: the
        update is invariant to *uniform* gradient rescaling."""
        w1 = Parameter(rng.standard_normal((3, 3)))
        w2 = Parameter(w1.data.copy())
        g = rng.standard_normal((3, 3))
        o1 = LAMB([("w", w1)], lr=0.01)
        o2 = LAMB([("w", w2)], lr=0.01)
        w1.grad = g.copy()
        w2.grad = 100.0 * g
        o1.step()
        o2.step()
        assert np.allclose(w1.data, w2.data, atol=1e-8)

    def test_step_norm_bounded_by_lr_times_weight_norm(self, rng):
        """||Δw|| = lr·λ·||u|| = lr·||w|| for 2-D params — LAMB's defining
        bound (with φ = identity and no decay)."""
        w = Parameter(rng.standard_normal((4, 4)))
        before = w.data.copy()
        w.grad = rng.standard_normal((4, 4))
        LAMB([("w", w)], lr=0.01).step()
        step_norm = np.linalg.norm(w.data - before)
        assert step_norm == pytest.approx(0.01 * np.linalg.norm(before), rel=1e-6)

    def test_decoupled_weight_decay_shrinks_weights(self, rng):
        w = Parameter(np.full((3, 3), 2.0))
        w.grad = np.zeros((3, 3))
        LAMB([("w", w)], lr=0.1, weight_decay=0.1).step()
        assert np.all(np.abs(w.data) < 2.0)
