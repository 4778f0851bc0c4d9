"""Unit tests for the finite-difference checker, and the engine's oracle.

``gradcheck`` underwrites every other correctness claim in the repo, so
its error reporting gets its own coverage: the relative-tolerance
contract, the per-input error report, and the failure diagnostics.

The second half is the differential oracle for the eager engine itself:
Hypothesis generates random autodiff graphs — elementwise chains,
matmuls, reductions, broadcasts, non-contiguous views — and every one
must match central finite differences.  Five strategies x 50 examples =
250 generated graphs per run.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.tensor import (
    GradcheckReport,
    Tensor,
    gradcheck,
    maximum,
    minimum,
    numeric_grad,
)


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


# -- generated graphs: the eager engine against finite differences ----------

MAX_EXAMPLES = 50  # x 5 strategies = 250 graphs per full run


def _assert_matches_finite_differences(build, arrays):
    ts = [Tensor(np.array(a, dtype=np.float64), requires_grad=True) for a in arrays]
    assert gradcheck(lambda *args: build(list(args)), ts, atol=1e-4)


_dims = st.integers(min_value=2, max_value=4)
_shapes = st.lists(_dims, min_size=1, max_size=3).map(tuple)
_seeds = st.integers(0, 2**31 - 1)

# numerically safe unary elementwise steps (domains guarded inline)
_UNARY = {
    "tanh": lambda t: t.tanh(),
    "sigmoid": lambda t: t.sigmoid(),
    "relu": lambda t: t.relu(),
    "neg": lambda t: -t,
    "abs": lambda t: t.abs(),
    "affine": lambda t: t * 0.5 + 0.25,
    "clip": lambda t: t.clip(-1.5, 1.5),
    "exp": lambda t: t.clip(-3.0, 3.0).exp(),
    "log": lambda t: (t * t + 0.5).log(),
    "sqrt": lambda t: (t * t + 0.5).sqrt(),
    "square": lambda t: t**2,
    "div": lambda t: t / 2.0,
}
_unary_names = st.sampled_from(sorted(_UNARY))


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(
    _shapes,
    st.sampled_from(["add", "mul", "sub"]),
    st.lists(_unary_names, min_size=1, max_size=6),
    _seeds,
)
# the loss is (a - b)**16 ~ 5e6: gradcheck's finite differences carry
# ~1e-3 of rounding noise here, which its noise floor must admit
@example(shape=(3,), combine="sub", chain=["square"] * 4, seed=3)
def test_elementwise_chains(shape, combine, chain, seed):
    """Random unary chains over a binary root."""

    def build(ts):
        a, b = ts
        t = {"add": a + b, "mul": a * b, "sub": a - b}[combine]
        for name in chain:
            t = _UNARY[name](t)
        return t.sum()

    rng = np.random.default_rng(seed)
    arrays = [rng.standard_normal(shape), rng.standard_normal(shape)]
    _assert_matches_finite_differences(build, arrays)


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(
    st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
    st.booleans(), st.booleans(), _seeds,
)
def test_matmul_graphs(m, k, n, with_bias, with_tanh, seed):
    def build(ts):
        a, b, bias = ts
        t = a @ b
        if with_bias:
            t = t + bias
        if with_tanh:
            t = t.tanh()
        return (t * t).mean()

    rng = np.random.default_rng(seed)
    arrays = [
        rng.standard_normal((m, k)),
        rng.standard_normal((k, n)),
        rng.standard_normal((n,)),
    ]
    _assert_matches_finite_differences(build, arrays)


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(
    _shapes,
    st.sampled_from(["sum", "mean", "max"]),
    st.booleans(),
    st.data(),
    _seeds,
)
def test_reductions(shape, red, keepdims, data, seed):
    axis = data.draw(
        st.one_of(st.none(), st.integers(0, len(shape) - 1)), label="axis"
    )

    def build(ts):
        (a,) = ts
        r = getattr(a, red)(axis=axis, keepdims=keepdims)
        if keepdims:
            # centred-moment shape: reduce, broadcast back, reduce again
            return ((a - r) ** 2).sum()
        return (r * r).sum()

    rng = np.random.default_rng(seed)
    _assert_matches_finite_differences(build, [rng.standard_normal(shape)])


def _broadcast_triple():
    @st.composite
    def _triple(draw):
        out = draw(st.lists(_dims, min_size=1, max_size=3).map(tuple))

        def reduce_shape(shape):
            n_drop = draw(st.integers(0, len(shape)))
            kept = shape[n_drop:]
            return tuple(1 if draw(st.booleans()) else d for d in kept)

        return out, reduce_shape(out), reduce_shape(out)

    return _triple()


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(_broadcast_triple(), st.sampled_from(["arith", "maxmin"]), _seeds)
def test_broadcasts(triple, flavor, seed):
    """Broadcast-compatible operand pairs, arithmetic and max/min mixing."""
    _, sa, sb = triple

    def build(ts):
        a, b = ts
        if flavor == "arith":
            t = (a + b) * (a * b) + a
        else:
            t = maximum(a, b) - minimum(a, b) * 0.5
        return t.sum()

    rng = np.random.default_rng(seed)
    arrays = [rng.standard_normal(sa), rng.standard_normal(sb)]
    _assert_matches_finite_differences(build, arrays)


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(
    st.tuples(_dims, _dims, _dims),
    st.permutations([0, 1, 2]),
    st.sampled_from(["stride", "drop", "tail"]),
    st.booleans(),
    _seeds,
)
def test_noncontiguous_views(shape, perm, slicing, with_reshape, seed):
    """Transpose + strided/int getitem, then reshape and compute.

    Transposed and strided tensors are views of their parent; reshaping a
    non-contiguous tensor copies — both sides of that branch must carry
    the gradient back to the right elements.
    """

    def build(ts):
        (a,) = ts
        v = a.transpose(tuple(perm))
        if slicing == "stride":
            v = v[::2]
        elif slicing == "drop":
            v = v[1]
        else:
            v = v[:, 1:]
        if with_reshape:
            v = v.reshape(-1)
        return (v.tanh() * v).sum() + a.sum() * 0.25

    rng = np.random.default_rng(seed)
    _assert_matches_finite_differences(build, [rng.standard_normal(shape)])
