"""Optimizer semantics: every solver, clipping, LARS trust ratios."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Linear, Parameter
from repro.optim import (
    SGD,
    SOLVERS,
    Adadelta,
    Adam,
    LARS,
    Momentum,
    clip_grad_norm,
    global_grad_norm,
)
from repro.tensor import Tensor


def quadratic_param(rng, n=6):
    """A parameter plus a strongly-convex quadratic loss closure."""
    diag = rng.uniform(0.5, 2.0, n)
    x = Parameter(rng.standard_normal(n))

    def loss_and_grad():
        x.grad = diag * x.data
        return 0.5 * float(diag @ (x.data**2))

    return x, loss_and_grad


# (class, kwargs, steps) — Adadelta's early steps are eps-scaled, so its
# descent is slow by construction and gets a longer budget.  Each case is
# named after its solver, so deleting one renames no other.
ALL_SOLVERS = [
    pytest.param(cls, kwargs, steps, id=cls.__name__)
    for cls, kwargs, steps in [
        (SGD, {"lr": 0.1}, 150),
        (Momentum, {"lr": 0.05, "momentum": 0.9}, 150),
        (Adam, {"lr": 0.1}, 150),
        (Adadelta, {"lr": 1.0}, 3000),
        (LARS, {"lr": 0.5, "trust_coefficient": 0.1}, 150),
    ]
]


class TestAllSolversDescend:
    @pytest.mark.parametrize("cls,kwargs,steps", ALL_SOLVERS)
    def test_decreases_quadratic(self, rng, cls, kwargs, steps):
        x, step_loss = quadratic_param(rng)
        opt = cls([("x", x)], **kwargs)
        first = step_loss()
        opt.step()
        for _ in range(steps):
            step_loss()
            opt.step()
        last = step_loss()
        assert last < 0.2 * first, f"{cls.__name__} failed to descend"

    @pytest.mark.parametrize("cls,kwargs,steps", ALL_SOLVERS)
    def test_skips_params_without_grad(self, rng, cls, kwargs, steps):
        x = Parameter(rng.standard_normal(3))
        before = x.data.copy()
        opt = cls([("x", x)], **kwargs)
        opt.step()  # no grad set
        assert np.allclose(x.data, before)


class TestSGDFamily:
    def test_sgd_exact_update(self):
        x = Parameter([1.0, 2.0])
        x.grad = np.array([0.5, -1.0])
        SGD([("x", x)], lr=0.1).step()
        assert np.allclose(x.data, [0.95, 2.1])

    def test_momentum_accumulates_velocity(self):
        x = Parameter([0.0])
        opt = Momentum([("x", x)], lr=1.0, momentum=0.5)
        x.grad = np.array([1.0])
        opt.step()  # v=1, x=-1
        x.grad = np.array([1.0])
        opt.step()  # v=1.5, x=-2.5
        assert x.data[0] == pytest.approx(-2.5)

    def test_momentum_lr_scales_velocity_at_application(self):
        """The TF MomentumOptimizer form: changing lr rescales the whole
        accumulated velocity — the property warmup relies on."""
        x = Parameter([0.0])
        opt = Momentum([("x", x)], lr=1.0, momentum=0.9)
        x.grad = np.array([1.0])
        opt.step(lr=1.0)
        x.grad = np.array([0.0])
        pos_before = x.data[0]
        opt.step(lr=0.1)  # v=0.9, applied with lr 0.1
        assert (x.data[0] - pos_before) == pytest.approx(-0.09)

    def test_weight_decay_adds_to_gradient(self):
        x = Parameter([2.0])
        x.grad = np.array([0.0])
        SGD([("x", x)], lr=0.1, weight_decay=0.5).step()
        assert x.data[0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0)


class TestAdam:
    def test_first_step_is_lr_times_sign(self):
        """With bias correction, |first update| == lr (up to eps)."""
        x = Parameter([1.0, -1.0])
        x.grad = np.array([0.3, -7.0])
        Adam([("x", x)], lr=0.01).step()
        assert np.allclose(x.data, [1.0 - 0.01, -1.0 + 0.01], atol=1e-6)

    def test_adaptivity_equalizes_scales(self, rng):
        """Coordinates with 100x gradient scale get similar step sizes."""
        x = Parameter([1.0, 1.0])
        opt = Adam([("x", x)], lr=0.01)
        for _ in range(10):
            x.grad = np.array([100.0, 1.0])
            opt.step()
        moved = 1.0 - x.data
        assert moved[0] == pytest.approx(moved[1], rel=1e-3)


class TestAdaptive:
    def test_adadelta_needs_no_lr(self, rng):
        """Adadelta's update magnitude is self-scaled (lr=1 default)."""
        x, step_loss = quadratic_param(rng)
        opt = Adadelta([("x", x)])
        assert opt.lr == 1.0
        first = step_loss()
        for _ in range(300):
            step_loss()
            opt.step()
        assert step_loss() < first


class TestLARS:
    def test_trust_ratio_formula(self, rng):
        w = Parameter(rng.standard_normal((4, 4)))
        g = rng.standard_normal((4, 4))
        opt = LARS([("w", w)], lr=1.0, weight_decay=0.1, trust_coefficient=0.01)
        lam = opt.trust_ratio(w, g)
        expected = 0.01 * np.linalg.norm(w.data) / (
            np.linalg.norm(g) + 0.1 * np.linalg.norm(w.data) + opt.eps
        )
        assert lam == pytest.approx(expected)

    def test_trust_ratio_skips_1d_params(self, rng):
        b = Parameter(rng.standard_normal(4))
        opt = LARS([("b", b)], lr=1.0)
        assert opt.trust_ratio(b, rng.standard_normal(4)) == 1.0

    def test_zero_norm_falls_back_to_one(self):
        w = Parameter(np.zeros((3, 3)))
        opt = LARS([("w", w)], lr=1.0)
        assert opt.trust_ratio(w, np.ones((3, 3))) == 1.0

    def test_update_invariant_to_gradient_scale(self, rng):
        """LARS's defining property: rescaling the gradient leaves the
        (weight-decay-free) update magnitude unchanged."""
        w1 = Parameter(rng.standard_normal((3, 3)))
        w2 = Parameter(w1.data.copy())
        g = rng.standard_normal((3, 3))
        o1 = LARS([("w", w1)], lr=0.1, trust_coefficient=0.01)
        o2 = LARS([("w", w2)], lr=0.1, trust_coefficient=0.01)
        w1.grad = g.copy()
        w2.grad = 1000.0 * g
        o1.step()
        o2.step()
        assert np.allclose(w1.data, w2.data, atol=1e-9)


class TestClipping:
    def test_global_norm(self, rng):
        a, b = Parameter(rng.standard_normal(3)), Parameter(rng.standard_normal(4))
        a.grad = np.ones(3)
        b.grad = np.ones(4)
        assert global_grad_norm([a, b]) == pytest.approx(np.sqrt(7))

    def test_clip_rescales_to_max(self):
        a = Parameter(np.zeros(4))
        a.grad = np.full(4, 10.0)
        pre = clip_grad_norm([a], 1.0)
        assert pre == pytest.approx(20.0)
        assert np.linalg.norm(a.grad) == pytest.approx(1.0)

    def test_clip_leaves_small_grads(self):
        a = Parameter(np.zeros(2))
        a.grad = np.array([0.1, 0.1])
        clip_grad_norm([a], 5.0)
        assert np.allclose(a.grad, [0.1, 0.1])

    def test_clip_ignores_none_grads(self):
        a, b = Parameter(np.zeros(2)), Parameter(np.zeros(2))
        a.grad = np.array([3.0, 4.0])
        assert clip_grad_norm([a, b], 10.0) == pytest.approx(5.0)


class TestOptimizerBase:
    def test_accepts_module(self, rng):
        layer = Linear(2, 2, rng=0)
        opt = SGD(layer, lr=0.1)
        assert {n for n, _ in opt.params} == {"weight", "bias"}

    def test_accepts_plain_tensor_list(self, rng):
        p = Parameter(rng.standard_normal(3))
        opt = SGD([p], lr=0.1)
        assert opt.params[0][0] == "param0"

    def test_empty_params_raise(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_zero_grad(self, rng):
        p = Parameter(rng.standard_normal(3))
        p.grad = np.ones(3)
        SGD([p], lr=0.1).zero_grad()
        assert p.grad is None

    def test_registry_complete(self):
        assert set(SOLVERS) == {
            "sgd", "momentum", "adam", "adadelta", "lars", "lamb",
        }
