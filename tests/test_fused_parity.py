"""Parity suite for the fused hot-path kernels (``repro.tensor.fused``).

Every fused kernel is held to the reference implementation three ways:

1. **forward parity** — bit-identical for the cell step, the loss, and
   the optimizer updates; round-off-level (the fused layer kernel sums
   ``x@Wx + h@Wh`` as two matmuls) for the full-sequence LSTM layer,
   padded batches included;
2. **backward parity** — fused VJPs against the reference graph's
   gradients on identical inputs;
3. **gradcheck** — fused VJPs against central finite differences, so the
   two paths cannot be "consistently wrong together".

Shapes, seeds and dtypes are randomized with hypothesis, including the
degenerate ``batch == 1`` / ``seq_len == 1`` cases, non-contiguous input
arrays, and padding masks with full-length and zero-length rows.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn import LSTM, Linear, LSTMCell
from repro.optim.sgd import SGD, Momentum
from repro.tensor import (
    Tensor,
    cross_entropy,
    fused_enabled,
    fused_kernels,
    gradcheck,
    no_grad,
    use_fused,
)
from repro.tensor import fused
from repro.tensor.env import env_flag
from repro.tensor.tensor import stable_sigmoid

seeds = st.integers(0, 2**31 - 1)


@pytest.fixture(autouse=True)
def _restore_fused_flag():
    """Tests flip the global switch; always put it back."""
    prev = fused_enabled()
    yield
    use_fused(prev)


def _grads(params):
    return {n: p.grad.copy() for n, p in params.items()}


def _mask_rows(rng, seq_len, kinds):
    """A (T, B) 0/1 mask whose rows are full, empty or random."""
    cols = {
        "full": lambda: np.ones(seq_len),
        "empty": lambda: np.zeros(seq_len),
        "random": lambda: (rng.random(seq_len) < 0.5).astype(float),
    }
    return np.stack([cols[kind]() for kind in kinds], axis=1)


# ---------------------------------------------------------------------------
# the gate sigmoid
# ---------------------------------------------------------------------------


class TestFastSigmoid:
    SPECIAL = np.array(
        [0.0, -0.0, np.inf, -np.inf, np.nan, 700.0, -700.0,
         745.2, -745.2, 1e-320, -1e-320, 1.0, -1.0]
    )

    def test_special_values_match_reference(self):
        x = self.SPECIAL.reshape(1, -1)
        want = stable_sigmoid(x)
        out, tmp = np.empty_like(x), np.empty_like(x)
        assert np.array_equal(fused._fast_sigmoid(x), want, equal_nan=True)
        assert np.array_equal(
            fused._sigmoid_into(x, out, tmp), want, equal_nan=True
        )


# ---------------------------------------------------------------------------
# LSTM cell step
# ---------------------------------------------------------------------------


class TestLSTMCellParity:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(1, 5),
        st.integers(1, 6),
        st.integers(1, 5),
        seeds,
    )
    def test_forward_bit_identical(self, input_size, hidden, batch, seed):
        rng = np.random.default_rng(seed)
        cell = LSTMCell(input_size, hidden, rng=seed)
        x = Tensor(rng.standard_normal((batch, input_size)))
        state = (
            Tensor(rng.standard_normal((batch, hidden))),
            Tensor(rng.standard_normal((batch, hidden))),
        )
        with fused_kernels(False):
            h_ref, (_, c_ref) = cell(x, state)
        with fused_kernels(True):
            h_fus, (_, c_fus) = cell(x, state)
        assert np.array_equal(h_ref.data, h_fus.data)
        assert np.array_equal(c_ref.data, c_fus.data)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), seeds)
    def test_backward_matches_reference(self, input_size, hidden, batch, seed):
        rng = np.random.default_rng(seed)
        cell = LSTMCell(input_size, hidden, rng=seed)
        xd = rng.standard_normal((batch, input_size))
        hd = rng.standard_normal((batch, hidden))
        cd = rng.standard_normal((batch, hidden))

        def run(flag):
            with fused_kernels(flag):
                cell.zero_grad()
                x = Tensor(xd.copy(), requires_grad=True)
                state = (
                    Tensor(hd.copy(), requires_grad=True),
                    Tensor(cd.copy(), requires_grad=True),
                )
                h, (_, c) = cell(x, state)
                ((h * h).sum() + (c * h).sum()).backward()
                return (
                    x.grad.copy(),
                    state[0].grad.copy(),
                    state[1].grad.copy(),
                    _grads(dict(cell.named_parameters())),
                )

        gx_r, gh_r, gc_r, gp_r = run(False)
        gx_f, gh_f, gc_f, gp_f = run(True)
        assert np.allclose(gx_r, gx_f, atol=1e-12)
        assert np.allclose(gh_r, gh_f, atol=1e-12)
        assert np.allclose(gc_r, gc_f, atol=1e-12)
        for name in gp_r:
            assert np.allclose(gp_r[name], gp_f[name], atol=1e-12)

    def test_gradcheck_fused_cell(self, rng):
        B, D, H = 2, 3, 4
        x = Tensor(rng.standard_normal((B, D)), requires_grad=True)
        h = Tensor(rng.standard_normal((B, H)), requires_grad=True)
        c = Tensor(rng.standard_normal((B, H)), requires_grad=True)
        k = Tensor(rng.standard_normal((D + H, 4 * H)) * 0.3, requires_grad=True)
        b = Tensor(rng.standard_normal(4 * H) * 0.3, requires_grad=True)

        def fn(x, h, c, k, b):
            hn, cn = fused.lstm_cell_step(x, h, c, k, b, H)
            return (hn * hn).sum() + (hn * cn).sum()

        report = gradcheck(fn, [x, h, c, k, b], atol=1e-7, rtol=1e-5)
        assert report.worst_abs < 1e-7

    def test_non_contiguous_inputs(self, rng):
        B, D, H = 3, 4, 5
        cell = LSTMCell(D, H, rng=0)
        # column-sliced views: non-contiguous, strided input arrays
        x_wide = rng.standard_normal((B, 2 * D))
        h_wide = rng.standard_normal((B, 2 * H))
        x = Tensor(x_wide[:, ::2])
        state = (Tensor(h_wide[:, ::2]), Tensor(h_wide[:, 1::2]))
        assert not x.data.flags["C_CONTIGUOUS"]
        with fused_kernels(False):
            h_ref, (_, c_ref) = cell(x, state)
        with fused_kernels(True):
            h_fus, (_, c_fus) = cell(x, state)
        assert np.array_equal(h_ref.data, h_fus.data)
        assert np.array_equal(c_ref.data, c_fus.data)


# ---------------------------------------------------------------------------
# full-sequence LSTM layer / stack
# ---------------------------------------------------------------------------


class TestLSTMLayerParity:
    @settings(max_examples=12, deadline=None)
    @given(
        st.integers(1, 4),   # seq_len (includes 1)
        st.integers(1, 3),   # batch (includes 1)
        st.integers(1, 4),   # input size
        st.integers(1, 4),   # hidden
        st.integers(1, 2),   # layers
        st.booleans(),       # bidirectional first layer
        seeds,
    )
    def test_stack_forward_backward(
        self, seq_len, batch, input_size, hidden, layers, bidir, seed
    ):
        rng = np.random.default_rng(seed)
        xd = rng.standard_normal((seq_len, batch, input_size))

        def run(flag):
            with fused_kernels(flag):
                lstm = LSTM(
                    input_size, hidden, layers, rng=seed,
                    bidirectional_first=bidir,
                )
                x = Tensor(xd.copy(), requires_grad=True)
                out, states = lstm(x)
                (out * out).sum().backward()
                return (
                    out.data.copy(),
                    [(h.data.copy(), c.data.copy()) for h, c in states],
                    x.grad.copy(),
                    _grads(dict(lstm.named_parameters())),
                )

        o_r, s_r, gx_r, gp_r = run(False)
        o_f, s_f, gx_f, gp_f = run(True)
        assert np.allclose(o_r, o_f, atol=1e-12)
        for (h_r, c_r), (h_f, c_f) in zip(s_r, s_f):
            assert np.allclose(h_r, h_f, atol=1e-12)
            assert np.allclose(c_r, c_f, atol=1e-12)
        assert np.allclose(gx_r, gx_f, atol=1e-12)
        for name in gp_r:
            assert np.allclose(gp_r[name], gp_f[name], atol=1e-12)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_gradcheck_fused_layer(self, rng, reverse):
        T, B, D, H = 3, 2, 3, 3
        x = Tensor(rng.standard_normal((T, B, D)), requires_grad=True)
        h0 = Tensor(rng.standard_normal((B, H)), requires_grad=True)
        c0 = Tensor(rng.standard_normal((B, H)), requires_grad=True)
        k = Tensor(rng.standard_normal((D + H, 4 * H)) * 0.3, requires_grad=True)
        b = Tensor(rng.standard_normal(4 * H) * 0.3, requires_grad=True)

        def fn(x, h0, c0, k, b):
            out, hf, cf = fused.lstm_layer(x, h0, c0, k, b, H, reverse=reverse)
            return (out * out).sum() + (hf * cf).sum()

        report = gradcheck(fn, [x, h0, c0, k, b], atol=1e-7, rtol=1e-5)
        assert report.worst_abs < 1e-7

    def test_layer_leaves_initial_state_untouched(self, rng):
        T, B, D, H = 3, 2, 3, 3
        h0 = Tensor(rng.standard_normal((B, H)))
        c0 = Tensor(rng.standard_normal((B, H)))
        h0d, c0d = h0.data.copy(), c0.data.copy()
        fused.lstm_layer(
            Tensor(rng.standard_normal((T, B, D))),
            h0, c0,
            Tensor(rng.standard_normal((D + H, 4 * H))),
            Tensor(rng.standard_normal(4 * H)),
            H,
        )
        assert np.array_equal(h0.data, h0d)
        assert np.array_equal(c0.data, c0d)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(1, 5),   # seq_len (includes 1)
        st.integers(1, 4),   # batch (includes 1)
        st.integers(1, 4),   # input size
        st.integers(1, 4),   # hidden
        st.integers(1, 2),   # layers
        st.booleans(),       # bidirectional first layer (a reverse direction)
        st.data(),
        seeds,
    )
    def test_masked_stack_matches_reference(
        self, seq_len, batch, input_size, hidden, layers, bidir, data, seed
    ):
        """Padded batches run on the layer kernel, at the unmasked
        layer's round-off contract against the reference per-step masked
        path: outputs, final states, and the grads of the input, the
        initial states and every parameter."""
        kinds = data.draw(
            st.lists(
                st.sampled_from(["full", "empty", "random"]),
                min_size=batch, max_size=batch,
            )
        )
        rng = np.random.default_rng(seed)
        mask = _mask_rows(rng, seq_len, kinds)
        xd = rng.standard_normal((seq_len, batch, input_size))
        hd = rng.standard_normal((layers, 2, batch, hidden))

        def run(flag):
            with fused_kernels(flag):
                lstm = LSTM(
                    input_size, hidden, layers, rng=seed,
                    bidirectional_first=bidir,
                )
                x = Tensor(xd.copy(), requires_grad=True)
                init = [
                    (Tensor(h.copy(), requires_grad=True),
                     Tensor(c.copy(), requires_grad=True))
                    for h, c in hd
                ]
                out, states = lstm(x, initial_states=init, mask=mask)
                loss = (out * out).sum()
                for h, c in states:
                    loss = loss + (h * c).sum()
                loss.backward()
                return (
                    out.data.copy(),
                    [(h.data.copy(), c.data.copy()) for h, c in states],
                    [x.grad.copy()]
                    + [t.grad.copy() for pair in init for t in pair],
                    _grads(dict(lstm.named_parameters())),
                )

        o_r, s_r, gi_r, gp_r = run(False)
        o_f, s_f, gi_f, gp_f = run(True)
        assert np.allclose(o_r, o_f, atol=1e-12)
        for (h_r, c_r), (h_f, c_f) in zip(s_r, s_f):
            assert np.allclose(h_r, h_f, atol=1e-12)
            assert np.allclose(c_r, c_f, atol=1e-12)
        for g_r, g_f in zip(gi_r, gi_f):
            assert np.allclose(g_r, g_f, atol=1e-12)
        for name in gp_r:
            assert np.allclose(gp_r[name], gp_f[name], atol=1e-12)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_gradcheck_masked_layer(self, rng, reverse):
        T, B, D, H = 4, 3, 3, 3
        # rows: full length, gaps, zero length
        mask = np.array([[1, 1, 0], [1, 0, 0], [1, 1, 0], [1, 0, 0]], float)
        x = Tensor(rng.standard_normal((T, B, D)), requires_grad=True)
        h0 = Tensor(rng.standard_normal((B, H)), requires_grad=True)
        c0 = Tensor(rng.standard_normal((B, H)), requires_grad=True)
        k = Tensor(rng.standard_normal((D + H, 4 * H)) * 0.3, requires_grad=True)
        b = Tensor(rng.standard_normal(4 * H) * 0.3, requires_grad=True)

        def fn(x, h0, c0, k, b):
            out, hf, cf = fused.lstm_layer(
                x, h0, c0, k, b, H, reverse=reverse, mask=mask
            )
            return (out * out).sum() + (hf * cf).sum()

        report = gradcheck(fn, [x, h0, c0, k, b], atol=1e-7, rtol=1e-5)
        assert report.worst_abs < 1e-7

    @pytest.mark.parametrize("reverse", [False, True])
    def test_padding_is_exact(self, rng, reverse):
        """Padded outputs are exactly 0, and the carried state is exactly
        the state after the last valid step."""
        T, B, D, H = 5, 4, 3, 4
        lengths = np.array([5, 3, 1, 0])
        mask = (np.arange(T)[:, None] < lengths[None, :]).astype(float)
        if reverse:  # valid steps come first in processing order
            mask = mask[::-1].copy()
        x = Tensor(rng.standard_normal((T, B, D)))
        h0 = Tensor(rng.standard_normal((B, H)))
        c0 = Tensor(rng.standard_normal((B, H)))
        k = Tensor(rng.standard_normal((D + H, 4 * H)) * 0.5)
        b = Tensor(rng.standard_normal(4 * H) * 0.5)
        out, hf, cf = fused.lstm_layer(
            x, h0, c0, k, b, H, reverse=reverse, mask=mask
        )
        assert np.all(out.data[mask == 0] == 0.0)
        for row, length in enumerate(lengths):
            if length == 0:
                assert np.array_equal(hf.data[row], h0.data[row])
                assert np.array_equal(cf.data[row], c0.data[row])
            else:
                last = T - length if reverse else length - 1
                assert np.array_equal(hf.data[row], out.data[last, row])
        # padded steps after a state leave it exactly as it was
        pad = fused.lstm_layer(
            x, hf, cf, k, b, H, reverse=reverse, mask=np.zeros((T, B))
        )
        assert np.all(pad[0].data == 0.0)
        assert np.array_equal(pad[1].data, hf.data)
        assert np.array_equal(pad[2].data, cf.data)

    def test_mask_shape_is_checked_on_both_paths(self, rng):
        lstm = LSTM(3, 4, 1, rng=0)
        x = Tensor(rng.standard_normal((4, 2, 3)))
        for flag in (False, True):
            with fused_kernels(flag), pytest.raises(ValueError, match="mask"):
                lstm(x, mask=np.ones((2, 4)))


class TestLSTMLayerNoGrad:
    """The layer kernel keeps backward history only when it records."""

    @staticmethod
    def _inputs(rng, T, B, D, H, grad=True):
        return (
            Tensor(rng.standard_normal((T, B, D)), requires_grad=grad),
            Tensor(rng.standard_normal((B, H))),
            Tensor(rng.standard_normal((B, H))),
            Tensor(rng.standard_normal((D + H, 4 * H)) * 0.3, requires_grad=grad),
            Tensor(rng.standard_normal(4 * H) * 0.3, requires_grad=grad),
        )

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_outputs_bit_identical_to_recording(self, rng, masked, reverse):
        T, B, D, H = 5, 3, 4, 6
        args = self._inputs(rng, T, B, D, H)
        mask = _mask_rows(rng, T, ["full", "random", "empty"]) if masked else None
        recorded = fused.lstm_layer(*args, H, reverse=reverse, mask=mask)
        assert recorded[0].requires_grad
        with no_grad():
            unrecorded = fused.lstm_layer(*args, H, reverse=reverse, mask=mask)
        leaves = [Tensor(a.data) for a in args]  # nothing requires grad
        constant = fused.lstm_layer(*leaves, H, reverse=reverse, mask=mask)
        for other in (unrecorded, constant):
            for a, b in zip(recorded, other):
                assert not b.requires_grad
                assert np.array_equal(a.data, b.data)

    def test_no_grad_allocates_no_history(self, rng):
        T, B, D, H = 14, 256, 28, 32
        args = self._inputs(rng, T, B, D, H)

        def peak_bytes():
            tracemalloc.start()
            try:
                fused.lstm_layer(*args, H)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        recording = peak_bytes()
        with no_grad():
            unrecorded = peak_bytes()
        assert unrecorded < 0.6 * recording


# ---------------------------------------------------------------------------
# softmax cross-entropy
# ---------------------------------------------------------------------------


class TestCrossEntropyParity:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(1, 6),    # batch (includes 1)
        st.integers(2, 8),    # classes
        st.sampled_from([0.0, 0.1]),
        st.booleans(),        # with mask
        seeds,
    )
    def test_forward_backward_parity(self, batch, classes, eps, masked, seed):
        rng = np.random.default_rng(seed)
        logits_d = rng.standard_normal((batch, classes)) * 5.0
        targets = rng.integers(0, classes, size=batch)
        mask = None
        if masked:
            mask = rng.integers(0, 2, size=batch).astype(float)
            mask[0] = 1.0  # at least one live position

        def run(flag):
            with fused_kernels(flag):
                logits = Tensor(logits_d.copy(), requires_grad=True)
                loss = cross_entropy(
                    logits, targets, mask=mask, label_smoothing=eps
                )
                loss.backward()
                return float(loss.data), logits.grad.copy()

        l_r, g_r = run(False)
        l_f, g_f = run(True)
        assert np.isclose(l_r, l_f, atol=1e-12)
        assert np.allclose(g_r, g_f, atol=1e-12)

    def test_gradcheck_fused_xent(self, rng):
        logits = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        targets = rng.integers(0, 5, size=4)

        def fn(logits):
            return fused.softmax_cross_entropy(
                logits, targets, label_smoothing=0.1
            )

        report = gradcheck(fn, [logits], atol=1e-7, rtol=1e-5)
        assert report.worst_abs < 1e-7

    def test_sequence_shaped_logits(self, rng):
        """(T, B, V) logits with a (T, B) mask — the LM loss shape."""
        T, B, V = 3, 2, 6
        logits_d = rng.standard_normal((T, B, V))
        targets = rng.integers(0, V, size=(T, B))
        mask = np.ones((T, B))
        mask[-1, 0] = 0.0

        def run(flag):
            with fused_kernels(flag):
                logits = Tensor(logits_d.copy(), requires_grad=True)
                cross_entropy(logits, targets, mask=mask).backward()
                return logits.grad.copy()

        assert np.allclose(run(False), run(True), atol=1e-12)


# ---------------------------------------------------------------------------
# optimizer updates — bit-identical trajectories
# ---------------------------------------------------------------------------


class TestOptimizerParity:
    @pytest.mark.parametrize("cls", [SGD, Momentum])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_trajectories_bit_identical(self, cls, weight_decay):
        rng = np.random.default_rng(42)
        p0 = rng.standard_normal((4, 3))
        grads = [rng.standard_normal((4, 3)) for _ in range(6)]

        def run(flag):
            with fused_kernels(flag):
                p = Tensor(p0.copy(), requires_grad=True)
                opt = cls([("w", p)], lr=0.1, weight_decay=weight_decay)
                for g in grads:
                    p.grad = g.copy()
                    opt.step()
                return p.data.copy(), {
                    k: {kk: vv.copy() for kk, vv in v.items()}
                    for k, v in opt.state.items()
                }

        p_ref, st_ref = run(False)
        p_fus, st_fus = run(True)
        assert np.array_equal(p_ref, p_fus)
        assert set(st_ref) == set(st_fus)
        for name in st_ref:
            for key in st_ref[name]:
                assert np.array_equal(st_ref[name][key], st_fus[name][key])

    def test_scratch_not_in_checkpointed_state(self):
        with fused_kernels(True):
            p = Tensor(np.ones((2, 2)), requires_grad=True)
            opt = Momentum([("w", p)], lr=0.1)
            p.grad = np.ones((2, 2))
            opt.step()
            assert opt._scratch  # fused path allocated scratch...
            for st in opt.state.values():  # ...but state stays clean
                assert set(st) == {"v"}


# ---------------------------------------------------------------------------
# a whole training step at the paper's MNIST-LSTM geometry
# ---------------------------------------------------------------------------


def test_mnist_geometry_step_losses_agree():
    """Two momentum steps on each engine path at T=28, H=128, batch 256:
    the two paths train the same model, so each step's loss agrees to
    1e-9 (the second one after a backward and an update on each path)."""
    seq_len, width, hidden, classes, batch = 28, 28, 128, 10, 256
    rng = np.random.default_rng(0)
    x = rng.standard_normal((seq_len, batch, width))
    y = rng.integers(0, classes, size=batch)

    def step_losses(flag):
        with fused_kernels(flag):
            lstm = LSTM(width, hidden, num_layers=1, rng=1)
            head = Linear(hidden, classes, 2)
            params = list(lstm.named_parameters()) + list(head.named_parameters())
            opt = Momentum(params, lr=0.01)
            losses = []
            for _ in range(2):
                opt.zero_grad()
                out, _ = lstm(Tensor(x))
                loss = cross_entropy(head(out[-1]), y)
                loss.backward()
                opt.step()
                losses.append(float(loss.data))
            return losses

    for ref, fus in zip(step_losses(False), step_losses(True)):
        assert abs(ref - fus) < 1e-9


# ---------------------------------------------------------------------------
# dispatch plumbing
# ---------------------------------------------------------------------------


class TestDispatch:
    def test_context_manager_restores_flag(self):
        before = fused_enabled()
        with fused_kernels(not before):
            assert fused_enabled() is (not before)
        assert fused_enabled() is before

    def test_use_fused_returns_previous(self):
        prev = use_fused(True)
        assert use_fused(prev) is True

    def test_fused_graph_is_smaller(self, rng):
        lstm = LSTM(4, 5, 1, rng=0)
        x = Tensor(rng.standard_normal((6, 2, 4)))

        def count_nodes(flag):
            with fused_kernels(flag):
                out, _ = lstm(x)
                seen, stack_ = set(), [(out * out).sum()]
                while stack_:
                    t = stack_.pop()
                    if id(t) in seen:
                        continue
                    seen.add(id(t))
                    stack_.extend(t._parents)
                return len(seen)

        assert count_nodes(True) < count_nodes(False) / 3

    @pytest.mark.parametrize(
        "value, default, expected",
        [
            (None, True, True),
            (None, False, False),
            ("", True, False),
            ("0", True, False),
            ("false", True, False),
            (" No ", True, False),
            ("FALSE", True, False),
            ("1", False, True),
            ("yes", False, True),
            ("true", False, True),
            ("on", False, True),
            ("2", False, True),
        ],
    )
    def test_env_flag_truth_table(self, monkeypatch, value, default, expected):
        if value is None:
            monkeypatch.delenv("REPRO_TEST_FLAG", raising=False)
        else:
            monkeypatch.setenv("REPRO_TEST_FLAG", value)
        assert env_flag("REPRO_TEST_FLAG", default) is expected

    @pytest.mark.parametrize("value, expected", [(None, True), ("0", False)])
    def test_fresh_import_reads_repro_fused(self, value, expected):
        """Fused is the default in a fresh process; REPRO_FUSED=0 selects
        the reference engine."""
        import repro

        env = {k: v for k, v in os.environ.items() if k != "REPRO_FUSED"}
        if value is not None:
            env["REPRO_FUSED"] = value
        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        out = subprocess.run(
            [sys.executable, "-c",
             "import repro.tensor as t; print(t.fused_enabled())"],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        assert out.stdout.strip() == str(expected)
