"""Tests for fused NN primitives: softmax, cross-entropy, embedding."""

from __future__ import annotations

import numpy as np
import pytest

from repro.tensor import (
    Tensor,
    cross_entropy,
    embedding_lookup,
    gradcheck,
    log_softmax,
    softmax,
)


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        logits = Tensor(rng.standard_normal((5, 7)))
        probs = softmax(logits).data
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert np.all(probs >= 0)

    def test_shift_invariance(self, rng):
        x = rng.standard_normal((3, 4))
        assert np.allclose(
            softmax(Tensor(x)).data, softmax(Tensor(x + 1000.0)).data
        )

    def test_gradcheck(self, rng):
        logits = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        assert gradcheck(lambda l: (softmax(l) ** 2).sum(), [logits])

    def test_axis_zero(self, rng):
        logits = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        assert np.allclose(softmax(logits, axis=0).data.sum(axis=0), 1.0)
        assert gradcheck(lambda l: (softmax(l, axis=0) ** 3).sum(), [logits])


class TestLogSoftmax:
    def test_consistent_with_softmax(self, rng):
        logits = Tensor(rng.standard_normal((6, 9)))
        assert np.allclose(
            np.exp(log_softmax(logits).data), softmax(logits).data
        )

    def test_stable_at_huge_logits(self):
        logits = Tensor(np.array([[1000.0, 0.0], [-1000.0, 0.0]]))
        assert np.all(np.isfinite(log_softmax(logits).data))

    def test_gradcheck(self, rng):
        logits = Tensor(rng.standard_normal((3, 6)), requires_grad=True)
        assert gradcheck(lambda l: (log_softmax(l) * 0.1).sum(), [logits])


class TestCrossEntropy:
    def test_matches_manual_nll(self, rng):
        logits = rng.standard_normal((8, 5))
        targets = rng.integers(0, 5, 8)
        loss = cross_entropy(Tensor(logits), targets).item()
        shifted = logits - logits.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        manual = -logp[np.arange(8), targets].mean()
        assert loss == pytest.approx(manual)

    def test_gradcheck(self, rng):
        logits = Tensor(rng.standard_normal((6, 4)), requires_grad=True)
        targets = rng.integers(0, 4, 6)
        assert gradcheck(lambda l: cross_entropy(l, targets), [logits])

    def test_gradcheck_with_mask_and_smoothing(self, rng):
        logits = Tensor(rng.standard_normal((2, 5, 4)), requires_grad=True)
        targets = rng.integers(0, 4, (2, 5))
        mask = (rng.random((2, 5)) > 0.4).astype(float)
        mask[0, 0] = 1.0  # guarantee non-empty
        assert gradcheck(
            lambda l: cross_entropy(l, targets, mask=mask, label_smoothing=0.2),
            [logits],
        )

    def test_mask_excludes_positions(self, rng):
        logits = rng.standard_normal((4, 3))
        targets = np.array([0, 1, 2, 0])
        mask = np.array([1.0, 1.0, 0.0, 0.0])
        masked = cross_entropy(Tensor(logits), targets, mask=mask).item()
        manual = cross_entropy(Tensor(logits[:2]), targets[:2]).item()
        assert masked == pytest.approx(manual)

    def test_masked_positions_get_zero_grad(self, rng):
        logits = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        mask = np.array([1.0, 0.0, 1.0])
        cross_entropy(logits, np.array([0, 1, 2]), mask=mask).backward()
        assert np.allclose(logits.grad[1], 0.0)
        assert not np.allclose(logits.grad[0], 0.0)

    def test_smoothing_raises_loss_on_confident_correct(self):
        logits = Tensor(np.array([[10.0, -10.0]]))
        targets = np.array([0])
        plain = cross_entropy(logits, targets).item()
        smooth = cross_entropy(logits, targets, label_smoothing=0.1).item()
        assert smooth > plain

    def test_all_masked_raises(self, rng):
        logits = Tensor(rng.standard_normal((2, 3)))
        with pytest.raises(ValueError):
            cross_entropy(logits, np.array([0, 1]), mask=np.zeros(2))

    def test_out_of_range_target_raises(self, rng):
        logits = Tensor(rng.standard_normal((2, 3)))
        with pytest.raises(ValueError):
            cross_entropy(logits, np.array([0, 3]))

    def test_shape_mismatch_raises(self, rng):
        logits = Tensor(rng.standard_normal((2, 3)))
        with pytest.raises(ValueError):
            cross_entropy(logits, np.array([0, 1, 2]))

    def test_uniform_logits_loss_is_log_k(self):
        logits = Tensor(np.zeros((10, 7)))
        loss = cross_entropy(logits, np.zeros(10, dtype=int)).item()
        assert loss == pytest.approx(np.log(7))


class TestEmbedding:
    def test_lookup_values(self, rng):
        table = Tensor(rng.standard_normal((6, 3)))
        idx = np.array([[0, 5], [2, 2]])
        out = embedding_lookup(table, idx)
        assert out.shape == (2, 2, 3)
        assert np.allclose(out.data[0, 1], table.data[5])

    def test_gradcheck(self, rng):
        table = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
        idx = np.array([1, 3, 3, 0])
        assert gradcheck(
            lambda t: (embedding_lookup(t, idx) ** 2).sum(), [table]
        )

    def test_unused_rows_get_zero_grad(self, rng):
        table = Tensor(rng.standard_normal((5, 2)), requires_grad=True)
        embedding_lookup(table, np.array([0, 1])).sum().backward()
        assert np.allclose(table.grad[2:], 0.0)

    def test_repeated_index_accumulates(self, rng):
        table = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        embedding_lookup(table, np.array([1, 1, 1])).sum().backward()
        assert np.allclose(table.grad[1], 3.0)

    def test_out_of_range_raises(self, rng):
        table = Tensor(rng.standard_normal((3, 2)))
        with pytest.raises(ValueError):
            embedding_lookup(table, np.array([3]))
