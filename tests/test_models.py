"""The five application models: shapes, gradients, evaluation plumbing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import (
    ArrayDataset,
    TranslationTask,
    Vocab,
    make_image_classification,
    make_sequential_mnist,
    make_translation_dataset,
)
from repro.data.vocab import BOS, EOS, PAD
from repro.models import (
    GNMT,
    BasicBlock,
    MiniResNet,
    MnistLSTMClassifier,
    PTBLanguageModel,
)
from repro.tensor import Tensor


def all_params_receive_grads(model, loss):
    loss.backward()
    missing = [n for n, p in model.named_parameters() if p.grad is None]
    return missing


class TestMnistModel:
    def test_paper_geometry(self):
        """Default sizes match the paper: 28->128 transform, 128 hidden."""
        m = MnistLSTMClassifier(rng=0)
        assert m.transform.weight.shape == (28, 128)
        assert m.lstm.cells[0].kernel.shape == (256, 512)
        assert m.head.weight.shape == (128, 10)

    def test_forward_shape(self, rng):
        m = MnistLSTMClassifier(rng=0, input_dim=8, transform_dim=8, hidden=8)
        logits = m(rng.standard_normal((5, 8, 8)))
        assert logits.shape == (5, 10)

    def test_all_params_trained(self, rng):
        m = MnistLSTMClassifier(rng=0, input_dim=8, transform_dim=8, hidden=8)
        x = rng.standard_normal((4, 8, 8))
        y = rng.integers(0, 10, 4)
        assert all_params_receive_grads(m, m.loss((x, y))) == []

    def test_evaluate_range(self, rng):
        train, test = make_sequential_mnist(16, 16, rng=0, size=8)
        m = MnistLSTMClassifier(rng=0, input_dim=8, transform_dim=8, hidden=8)
        metrics = m.evaluate(test, batch_size=8)
        assert 0.0 <= metrics["accuracy"] <= 1.0
        assert m.training  # evaluate restores train mode


class TestPTBModel:
    def test_paper_kernel_shape(self):
        """PTB-small: 'the LSTM Cell Kernel is an 400-by-800 matrix'."""
        lm = PTBLanguageModel(100, rng=0, embed_dim=200, hidden=200)
        assert lm.lstm.cells[0].kernel.shape == (400, 800)

    def test_forward_shape(self, rng):
        lm = PTBLanguageModel(30, rng=0, embed_dim=8, hidden=8)
        tokens = rng.integers(0, 30, (4, 6))
        assert lm(tokens).shape == (6, 4, 30)

    def test_loss_is_log_perplexity_scale(self, rng):
        lm = PTBLanguageModel(30, rng=0, embed_dim=8, hidden=8)
        tokens = rng.integers(0, 30, (4, 6))
        loss = lm.loss((tokens, tokens)).item()
        # an untrained model sits near the uniform bound log(V)
        assert abs(loss - np.log(30)) < 0.5

    def test_all_params_trained(self, rng):
        lm = PTBLanguageModel(20, rng=0, embed_dim=8, hidden=8)
        tokens = rng.integers(0, 20, (3, 5))
        assert all_params_receive_grads(lm, lm.loss((tokens, tokens))) == []

    def test_evaluate_perplexity(self, rng):
        lm = PTBLanguageModel(20, rng=0, embed_dim=8, hidden=8)
        ds = ArrayDataset(
            rng.integers(0, 20, (10, 5)), rng.integers(0, 20, (10, 5))
        )
        metrics = lm.evaluate(ds, batch_size=4)
        assert metrics["perplexity"] == pytest.approx(
            np.exp(metrics["nll"]), rel=1e-6
        )


class TestGNMT:
    def make(self, rng_seed=0):
        vocab = Vocab(12)
        model = GNMT(vocab, rng=rng_seed, embed_dim=8, hidden=8,
                     enc_layers=2, dec_layers=2)
        return vocab, model

    def batch(self, rng, b=3, s=5, t=6):
        vocab, model = self.make()
        src = rng.integers(3, vocab.size, (b, s))
        src_len = np.full(b, s)
        tgt_in = rng.integers(3, vocab.size, (b, t))
        tgt_in[:, 0] = BOS
        tgt_out = rng.integers(3, vocab.size, (b, t))
        mask = np.ones((b, t))
        return model, (src, src_len, tgt_in, tgt_out, mask)

    def test_teacher_forcing_shape(self, rng):
        model, batch = self.batch(rng)
        logits = model.forward_teacher(batch[0], batch[1], batch[2])
        assert logits.shape == (6, 3, model.vocab.size)

    def test_loss_finite_and_grads_flow(self, rng):
        model, batch = self.batch(rng)
        loss = model.loss(batch)
        assert np.isfinite(loss.item())
        assert all_params_receive_grads(model, loss) == []

    def test_greedy_decode_respects_max_len(self, rng):
        vocab, model = self.make()
        src = rng.integers(3, vocab.size, (2, 4))
        out = model.greedy_decode(src, np.array([4, 4]), max_len=7)
        assert len(out) == 2
        assert all(len(o) <= 7 for o in out)
        assert all(tok not in (PAD, BOS, EOS) for o in out for tok in o)

    def test_bleu_evaluation_runs(self, rng):
        vocab, model = self.make()
        task = TranslationTask(vocab, rng=1)
        pairs = make_translation_dataset(task, 6, rng=2, min_len=3, max_len=5)
        metrics = model.evaluate_bleu(pairs, batch_size=3)
        assert 0.0 <= metrics["bleu"] <= 100.0

    def test_padded_sources_do_not_leak_attention(self, rng):
        """Extending a source with PAD must not change the decode."""
        vocab, model = self.make()
        src = rng.integers(3, vocab.size, (1, 4))
        out1 = model.greedy_decode(src, np.array([4]), max_len=6)
        padded = np.concatenate([src, np.full((1, 3), PAD)], axis=1)
        out2 = model.greedy_decode(padded, np.array([4]), max_len=6)
        assert out1 == out2


class TestMiniResNet:
    def test_forward_shape(self, rng):
        m = MiniResNet(3, 7, rng=0, stage_channels=(4, 8), blocks_per_stage=1)
        logits = m(rng.standard_normal((2, 3, 8, 8)))
        assert logits.shape == (2, 7)

    def test_striding_halves_resolution(self, rng):
        block = BasicBlock(4, 8, stride=2, rng=0)
        out = block(Tensor(rng.standard_normal((1, 4, 8, 8))))
        assert out.shape == (1, 8, 4, 4)

    def test_identity_block_has_no_projection(self):
        assert BasicBlock(4, 4, stride=1, rng=0).projection is None
        assert BasicBlock(4, 8, stride=1, rng=0).projection is not None

    def test_all_params_trained(self, rng):
        m = MiniResNet(3, 5, rng=0, stage_channels=(4,), blocks_per_stage=1)
        x = rng.standard_normal((4, 3, 8, 8))
        y = rng.integers(0, 5, 4)
        assert all_params_receive_grads(m, m.loss((x, y))) == []

    def test_evaluate_top1_le_top5(self, rng):
        train, test, nc = make_image_classification(16, 16, rng=0, num_classes=8, size=8)
        m = MiniResNet(3, nc, rng=0, stage_channels=(4,), blocks_per_stage=1)
        metrics = m.evaluate(test, batch_size=8)
        assert metrics["top1"] <= metrics["top5"]
