"""Differential-testing harness: compiled replay vs eager, bit for bit.

Hypothesis generates random autodiff graphs — elementwise chains,
matmuls, reductions, broadcasts, non-contiguous views — and each one is
driven three ways through one shared harness:

* **eager** (the reference engine), which is itself anchored to central
  finite differences by ``gradcheck``;
* **captured** through :class:`repro.compile.CompiledStep` — the capture
  run executes eagerly under the recorder, so it must match trivially;
* **replayed** twice with *fresh* input values bound into the captured
  buffers — forward loss and every leaf gradient must equal a fresh
  eager run **bitwise** (``np.array_equal``, never ``allclose``): replay
  is the same arithmetic into preallocated memory, so round-off is not
  an acceptable difference.

The harness also asserts that exactly one live plan survives the run —
a graph that silently poisoned itself into eager fallback would pass
parity vacuously, and we want to know.

Five strategies x 50 examples = 250 generated graphs per run; the PR
gate requires >= 200 with zero failures.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.compile import CompiledStep
from repro.tensor import Tensor, gradcheck, maximum, minimum

MAX_EXAMPLES = 50  # x 5 strategies = 250 graphs per full run

# -- the shared differential harness --------------------------------------


def _eager_reference(build, arrays):
    ts = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    loss = build(ts)
    loss.backward()
    return (
        np.array(loss.data),
        [None if t.grad is None else t.grad.copy() for t in ts],
    )


def _assert_compiled_matches_eager(build, arrays, seed, check_grads=True):
    """Capture once, replay twice; every run must match eager bitwise."""
    arrays = [np.array(a, dtype=np.float64) for a in arrays]
    rng = np.random.default_rng(seed)

    holder: dict = {}

    def loss_fn(batch):
        ts = [Tensor(a, requires_grad=True) for a in batch]
        # keep the *capture* leaves only; the validation re-run builds
        # its own throwaway tensors
        holder.setdefault("leaves", ts)
        return build(ts)

    step = CompiledStep(loss_fn)
    batches = [arrays] + [
        [rng.standard_normal(a.shape) for a in arrays] for _ in range(2)
    ]
    for batch in batches:
        want_loss, want_grads = _eager_reference(build, batch)
        for t in holder.get("leaves", ()):
            t.grad = None
        loss = step(tuple(batch))
        loss.backward()
        assert np.array_equal(np.asarray(loss.data), want_loss), (
            "compiled forward diverged from eager"
        )
        for t, want in zip(holder["leaves"], want_grads):
            if want is None:
                assert t.grad is None
            else:
                assert t.grad is not None and np.array_equal(t.grad, want), (
                    "compiled gradient diverged from eager"
                )
    # the replay machinery must actually have run: one live plan, not a
    # signature poisoned into silent (vacuously-passing) eager fallback
    assert len(step.plans) == 1

    if check_grads:
        ts = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        assert gradcheck(lambda *args: build(list(args)), ts, atol=1e-4)


# -- graph generators ------------------------------------------------------

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
    """Random unary chains over a binary root — the fusion sweet spot."""

    def build(ts):
        a, b = ts
        t = {"add": a + b, "mul": a * b, "sub": a - b}[combine]
        for name in chain:
            t = _UNARY[name](t)
        return t.sum()

    rng = np.random.default_rng(seed)
    arrays = [rng.standard_normal(shape), rng.standard_normal(shape)]
    _assert_compiled_matches_eager(build, arrays, seed + 1)


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
    _assert_compiled_matches_eager(build, arrays, seed + 1)


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
    _assert_compiled_matches_eager(build, [rng.standard_normal(shape)], seed + 1)


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
    _assert_compiled_matches_eager(build, arrays, seed + 1)


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(
    st.tuples(_dims, _dims, _dims),
    st.permutations([0, 1, 2]),
    st.sampled_from(["stride", "drop", "tail"]),
    st.booleans(),
    _seeds,
)
def test_noncontiguous_views(shape, perm, slicing, with_reshape, seed):
    """Transpose + strided/int getitem, then reshape (copy) and compute.

    Transposed and strided tensors replay as views (``REPLAY_VIEW``);
    reshaping a non-contiguous tensor forces the copy path — both sides
    of that branch must track rebound inputs bitwise.
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
    _assert_compiled_matches_eager(build, [rng.standard_normal(shape)], seed + 1)
