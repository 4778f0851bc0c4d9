"""Unit tests for the finite-difference checker itself.

``gradcheck`` underwrites every other correctness claim in the repo, so
its error reporting gets its own coverage: the relative-tolerance
contract, the per-input error report, and the failure diagnostics.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.tensor import GradcheckReport, Tensor, gradcheck, numeric_grad


def _quadratic(x):
    return (x * x).sum()


class TestReport:
    def test_returns_truthy_report(self, rng):
        x = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        report = gradcheck(_quadratic, [x])
        assert isinstance(report, GradcheckReport)
        assert report  # `assert gradcheck(...)` idiom
        assert bool(GradcheckReport())  # even when empty

    def test_per_input_errors_recorded(self, rng):
        x = Tensor(rng.standard_normal(4), requires_grad=True)
        y = Tensor(rng.standard_normal(4), requires_grad=True)
        report = gradcheck(lambda a, b: (a * b).sum(), [x, y])
        assert set(report.max_abs_err) == {0, 1}
        assert set(report.max_rel_err) == {0, 1}
        assert report.worst_abs == max(report.max_abs_err.values())
        assert report.worst_rel == max(report.max_rel_err.values())
        assert 0.0 <= report.worst_abs < 1e-8

    def test_non_grad_inputs_skipped(self, rng):
        x = Tensor(rng.standard_normal(3), requires_grad=True)
        const = Tensor(rng.standard_normal(3), requires_grad=False)
        report = gradcheck(lambda a, b: (a * b).sum(), [x, const])
        assert set(report.max_abs_err) == {0}

    def test_empty_report_worst_is_zero(self):
        report = GradcheckReport()
        assert report.worst_abs == 0.0
        assert report.worst_rel == 0.0


class TestTolerances:
    def test_rtol_admits_large_gradients(self):
        """A gradient of ~1e6 with error ~1 passes on rtol but would fail
        a pure atol check — the reason gradcheck takes both."""
        scale = 1e6

        def fn(x):
            return (x * x).sum() * scale

        x = Tensor(np.array([3.0, -2.0]), requires_grad=True)
        report = gradcheck(fn, [x], eps=1e-4, atol=1e-12, rtol=1e-4)
        # finite differences at this scale are only good to ~1e-2 abs...
        assert report.worst_abs > 1e-8
        # ...which the relative view correctly calls tiny
        assert report.worst_rel < 1e-6

    def test_wrong_gradient_raises_with_diagnostics(self):
        def bad(x):
            # correct value, wrong vjp (factor 3 instead of 2)
            return Tensor._make(
                (x.data * x.data).sum(), (x,), lambda g: (3.0 * g * x.data,),
                "bad_square",
            )

        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        with pytest.raises(AssertionError, match="input 0"):
            gradcheck(bad, [x])

    def test_tight_atol_and_zero_rtol_rejects_fd_noise(self):
        """Central differences carry O(eps^2 f''') truncation error; a
        cubic with a large eps makes that error visible, and a zero-rtol
        ultra-tight-atol check must flag it."""
        x = Tensor(np.array([2.0]), requires_grad=True)
        with pytest.raises(AssertionError):
            gradcheck(
                lambda a: (a * a * a).sum(), [x],
                eps=1e-2, atol=1e-14, rtol=0.0,
            )

    def test_noise_floor_admits_rounding_noise_on_large_f(self):
        """x**16 near |x| = 3 is ~4e7: central differences at eps=1e-6
        carry ~1e-2 of rounding noise, far above atol=1e-4 on the
        small-gradient entry; the floor admits it and is reported."""
        x = Tensor(np.array([3.0, -2.5, 0.3]), requires_grad=True)
        report = gradcheck(lambda a: (a**16).sum(), [x], atol=1e-4)
        f = float((x.data**16).sum())
        assert report.noise_floor == pytest.approx(
            np.finfo(np.float64).eps * f / 1e-6
        )
        assert report.noise_floor > 1e-4

    def test_noise_floor_still_rejects_a_slightly_wrong_vjp(self):
        """The floor admits rounding noise, not error: on the same
        large-|f| function a vjp 0.1% off is rejected."""

        def bad(x):
            return Tensor._make(
                (x.data**16).sum(), (x,),
                lambda g: (1.001 * 16.0 * g * x.data**15,), "bad_pow16",
            )

        x = Tensor(np.array([3.0, -2.5, 0.3]), requires_grad=True)
        with pytest.raises(AssertionError, match="noise floor"):
            gradcheck(bad, [x], atol=1e-4)

    def test_non_scalar_output_rejected(self, rng):
        x = Tensor(rng.standard_normal(3), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            gradcheck(lambda a: a * a, [x])


class TestNumericGrad:
    def test_matches_analytic_on_quadratic(self):
        x = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)
        num = numeric_grad(_quadratic, [x], wrt=0)
        assert np.allclose(num, 2.0 * x.data, atol=1e-8)

    def test_restores_input_in_place(self, rng):
        x = Tensor(rng.standard_normal((2, 2)), requires_grad=True)
        before = x.data.copy()
        numeric_grad(_quadratic, [x], wrt=0)
        assert np.array_equal(x.data, before)
