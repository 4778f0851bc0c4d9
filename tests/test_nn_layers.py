"""Layer behaviours: Linear, Embedding, LSTM, attention, BN, conv modules."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (
    BahdanauAttention,
    BatchNorm2d,
    Conv2d,
    Embedding,
    GlobalAvgPool,
    Linear,
    LSTM,
    LSTMCell,
)
from repro.tensor import Tensor, gradcheck


class TestLinear:
    def test_shapes_and_values(self, rng):
        layer = Linear(4, 3, rng=0)
        x = rng.standard_normal((5, 4))
        out = layer(Tensor(x))
        assert out.shape == (5, 3)
        assert np.allclose(out.data, x @ layer.weight.data + layer.bias.data)

    def test_leading_axes_broadcast(self, rng):
        layer = Linear(4, 3, rng=0)
        out = layer(Tensor(rng.standard_normal((7, 5, 4))))
        assert out.shape == (7, 5, 3)

    def test_no_bias(self, rng):
        layer = Linear(4, 3, rng=0, bias=False)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_init_scale_uniform(self):
        layer = Linear(100, 100, rng=0, init_scale=0.05)
        assert np.abs(layer.weight.data).max() <= 0.05

    def test_gradcheck(self, rng):
        layer = Linear(3, 2, rng=0)
        x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        assert gradcheck(
            lambda x, w, b: (layer(x) ** 2).sum(),
            [x, layer.weight, layer.bias],
        )


class TestEmbedding:
    def test_shapes(self):
        emb = Embedding(10, 4, rng=0)
        out = emb(np.array([[1, 2], [3, 4], [5, 6]]))
        assert out.shape == (3, 2, 4)

    def test_deterministic_by_seed(self):
        a, b = Embedding(10, 4, rng=7), Embedding(10, 4, rng=7)
        assert np.allclose(a.weight.data, b.weight.data)


class TestLSTMCell:
    def test_kernel_shape_matches_paper(self):
        # the paper: input 128, hidden 128 -> "cell kernel is a 256-by-512"
        cell = LSTMCell(128, 128, rng=0)
        assert cell.kernel.shape == (256, 512)

    def test_forget_bias_init(self):
        cell = LSTMCell(4, 6, rng=0, forget_bias=1.0)
        b = cell.bias.data
        assert np.all(b[6:12] == 1.0)
        assert np.all(b[:6] == 0.0) and np.all(b[12:] == 0.0)

    def test_step_shapes(self, rng):
        cell = LSTMCell(3, 5, rng=0)
        h, c = cell.zero_state(4)
        x = Tensor(rng.standard_normal((4, 3)))
        out, (h2, c2) = cell(x, (h, c))
        assert out.shape == (4, 5) and h2.shape == (4, 5) and c2.shape == (4, 5)

    def test_state_bounded(self, rng):
        cell = LSTMCell(3, 5, rng=0)
        state = cell.zero_state(2)
        x = Tensor(rng.standard_normal((2, 3)) * 10)
        for _ in range(20):
            out, state = cell(x, state)
        assert np.all(np.abs(out.data) <= 1.0)  # h = o*tanh(c), both bounded

    def test_gradcheck(self, rng):
        cell = LSTMCell(2, 3, rng=0)
        x = Tensor(rng.standard_normal((2, 2)), requires_grad=True)

        def f(x, k, b):
            out, _ = cell(x, cell.zero_state(2))
            return (out**2).sum()

        assert gradcheck(f, [x, cell.kernel, cell.bias], atol=1e-5)


class TestLSTM:
    def test_output_shapes(self, rng):
        lstm = LSTM(3, 5, num_layers=2, rng=0)
        x = Tensor(rng.standard_normal((7, 4, 3)))
        out, states = lstm(x)
        assert out.shape == (7, 4, 5)
        assert len(states) == 2
        assert states[0][0].shape == (4, 5)

    def test_bidirectional_first_doubles_features(self, rng):
        lstm = LSTM(3, 5, num_layers=1, rng=0, bidirectional_first=True)
        out, _ = lstm(Tensor(rng.standard_normal((6, 2, 3))))
        assert out.shape == (6, 2, 10)

    def test_bidirectional_then_unidirectional(self, rng):
        lstm = LSTM(3, 5, num_layers=2, rng=0, bidirectional_first=True)
        out, _ = lstm(Tensor(rng.standard_normal((6, 2, 3))))
        assert out.shape == (6, 2, 5)

    def test_residual_requires_matching_widths(self):
        with pytest.raises(ValueError):
            LSTM(3, 5, num_layers=2, rng=0, residual_start=0)  # 3 != 5

    def test_residual_ok_from_matching_layer(self, rng):
        lstm = LSTM(5, 5, num_layers=3, rng=0, residual_start=1)
        out, _ = lstm(Tensor(rng.standard_normal((4, 2, 5))))
        assert out.shape == (4, 2, 5)

    def test_gnmt_encoder_topology(self, rng):
        # bidirectional first layer + residual from layer 2 (paper's encoder)
        lstm = LSTM(4, 6, num_layers=4, rng=0,
                    bidirectional_first=True, residual_start=2)
        out, states = lstm(Tensor(rng.standard_normal((5, 3, 4))))
        assert out.shape == (5, 3, 6) and len(states) == 4

    def test_initial_state_threading(self, rng):
        lstm = LSTM(3, 4, num_layers=1, rng=0)
        x = Tensor(rng.standard_normal((2, 2, 3)))
        _, states = lstm(x)
        out2, _ = lstm(x, initial_states=states)
        out1, _ = lstm(x)
        assert not np.allclose(out1.data, out2.data)

    def test_mask_freezes_state_and_zeroes_output(self, rng):
        lstm = LSTM(3, 4, num_layers=1, rng=0)
        x = Tensor(rng.standard_normal((5, 2, 3)))
        mask = np.ones((5, 2))
        mask[3:, 0] = 0.0  # sequence 0 has length 3
        out, states = lstm(x, mask=mask)
        assert np.allclose(out.data[3:, 0], 0.0)
        # final state of row 0 equals the state after its last valid step
        short, short_states = lstm(x[0:3])
        assert np.allclose(states[0][0].data[0], short_states[0][0].data[0])

    def test_mask_equivalent_to_truncated_input(self, rng):
        """Padding + mask must reproduce the unpadded computation."""
        lstm = LSTM(3, 4, num_layers=2, rng=0, bidirectional_first=True)
        x_short = rng.standard_normal((4, 1, 3))
        x_padded = np.concatenate([x_short, np.zeros((3, 1, 3))], axis=0)
        mask = np.concatenate([np.ones((4, 1)), np.zeros((3, 1))], axis=0)
        out_short, _ = lstm(Tensor(x_short))
        out_padded, _ = lstm(Tensor(x_padded), mask=mask)
        assert np.allclose(out_short.data, out_padded.data[:4])

    def test_mask_shape_validated(self, rng):
        lstm = LSTM(3, 4, num_layers=1, rng=0)
        with pytest.raises(ValueError):
            lstm(Tensor(rng.standard_normal((5, 2, 3))), mask=np.ones((4, 2)))

    def test_stack_gradcheck(self, rng):
        lstm = LSTM(2, 3, num_layers=2, rng=0)
        x = Tensor(rng.standard_normal((3, 2, 2)), requires_grad=True)
        params = [x] + lstm.parameters()

        def f(*ps):
            out, _ = lstm(ps[0])
            return (out**2).mean()

        assert gradcheck(f, params, atol=1e-5)


class TestAttention:
    def test_weights_sum_to_one(self, rng):
        att = BahdanauAttention(4, 4, 5, rng=0)
        mem = Tensor(rng.standard_normal((6, 3, 4)))
        ctx, w = att(Tensor(rng.standard_normal((3, 4))), att.project_keys(mem), mem)
        assert ctx.shape == (3, 4)
        assert np.allclose(w.data.sum(axis=0), 1.0)

    def test_mask_zeroes_padded_positions(self, rng):
        att = BahdanauAttention(4, 4, 5, rng=0)
        mem = Tensor(rng.standard_normal((6, 2, 4)))
        mask = np.ones((6, 2))
        mask[4:, 0] = 0.0
        _, w = att(
            Tensor(rng.standard_normal((2, 4))), att.project_keys(mem), mem,
            mask=mask,
        )
        assert np.all(w.data[4:, 0] < 1e-6)
        assert np.allclose(w.data.sum(axis=0), 1.0)

    def test_unnormalized_variant_has_no_g(self, rng):
        att = BahdanauAttention(4, 4, 5, rng=0, normalize=False)
        assert not hasattr(att, "g")
        mem = Tensor(rng.standard_normal((3, 2, 4)))
        ctx, _ = att(Tensor(rng.standard_normal((2, 4))), att.project_keys(mem), mem)
        assert ctx.shape == (2, 4)

    def test_gradcheck_through_attention(self, rng):
        att = BahdanauAttention(3, 3, 4, rng=0)
        mem = Tensor(rng.standard_normal((4, 2, 3)), requires_grad=True)
        q = Tensor(rng.standard_normal((2, 3)), requires_grad=True)

        def f(*ps):
            ctx, _ = att(ps[1], att.project_keys(ps[0]), ps[0])
            return (ctx**2).sum()

        assert gradcheck(f, [mem, q] + att.parameters(), atol=1e-5)


class TestBatchNorm:
    def test_train_normalises_batch(self, rng):
        bn = BatchNorm2d(3)
        x = Tensor(rng.standard_normal((8, 3, 4, 4)) * 5 + 2)
        out = bn(x).data
        assert np.allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-7)
        assert np.allclose(out.std(axis=(0, 2, 3)), 1.0, atol=1e-2)

    def test_running_stats_update(self, rng):
        bn = BatchNorm2d(2, momentum=0.0)  # immediately adopt batch stats
        x = rng.standard_normal((16, 2, 3, 3)) + 3.0
        bn(Tensor(x))
        assert np.allclose(
            bn._buffer_running_mean, x.mean(axis=(0, 2, 3)), atol=1e-12
        )

    def test_eval_uses_running_stats(self, rng):
        bn = BatchNorm2d(2, momentum=0.0)
        x = rng.standard_normal((16, 2, 3, 3))
        bn(Tensor(x))
        bn.eval()
        out1 = bn(Tensor(x[:4])).data
        out2 = bn(Tensor(x[:4])).data
        assert np.allclose(out1, out2)

    def test_gamma_beta_affine(self, rng):
        bn = BatchNorm2d(2)
        bn.gamma.data[:] = 3.0
        bn.beta.data[:] = -1.0
        x = Tensor(rng.standard_normal((8, 2, 2, 2)))
        out = bn(x).data
        assert out.mean() == pytest.approx(-1.0, abs=1e-6)


class TestLossModules:
    def test_conv_and_pool_modules_compose(self, rng):
        conv = Conv2d(3, 4, 3, rng=0, padding=1)
        gap = GlobalAvgPool()
        x = Tensor(rng.standard_normal((2, 3, 5, 5)))
        assert gap(conv(x)).shape == (2, 4)
