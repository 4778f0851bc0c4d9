"""Finer-grained model behaviours: smoothing, geometry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import Vocab
from repro.data.vocab import BOS
from repro.models import GNMT, MiniResNet, PTBLanguageModel
from repro.tensor import no_grad


class TestGNMTLabelSmoothing:
    def make_batch(self, rng, vocab):
        b, s, t = 2, 4, 5
        src = rng.integers(3, vocab.size, (b, s))
        src_len = np.full(b, s)
        tgt_in = rng.integers(3, vocab.size, (b, t))
        tgt_in[:, 0] = BOS
        tgt_out = rng.integers(3, vocab.size, (b, t))
        return src, src_len, tgt_in, tgt_out, np.ones((b, t))

    def test_smoothing_changes_loss(self, rng):
        vocab = Vocab(10)
        plain = GNMT(vocab, rng=0, embed_dim=8, hidden=8,
                     enc_layers=2, dec_layers=2, label_smoothing=0.0)
        smooth = GNMT(vocab, rng=0, embed_dim=8, hidden=8,
                      enc_layers=2, dec_layers=2, label_smoothing=0.1)
        batch = self.make_batch(rng, vocab)
        # identical weights (same seed) => any loss gap comes from smoothing
        l_plain = plain.loss(batch).item()
        l_smooth = smooth.loss(batch).item()
        assert l_plain != l_smooth
        assert np.isfinite(l_plain) and np.isfinite(l_smooth)

    def test_same_seed_same_weights(self):
        vocab = Vocab(10)
        a = GNMT(vocab, rng=4, embed_dim=8, hidden=8, enc_layers=2, dec_layers=2)
        b = GNMT(vocab, rng=4, embed_dim=8, hidden=8, enc_layers=2, dec_layers=2)
        for (na, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert np.array_equal(pa.data, pb.data), na

    def test_encoder_memory_shapes(self, rng):
        vocab = Vocab(10)
        model = GNMT(vocab, rng=0, embed_dim=8, hidden=8,
                     enc_layers=3, dec_layers=2, residual_start=2)
        src = rng.integers(3, vocab.size, (3, 6))
        memory, keys, mask = model.encode(src, np.array([6, 4, 2]))
        assert memory.shape == (6, 3, 8)
        assert keys.shape == (6, 3, 8)
        assert mask.shape == (6, 3)
        assert mask[:, 2].tolist() == [1, 1, 0, 0, 0, 0]


class TestMiniResNetGeometry:
    def test_three_stage_downsampling(self, rng):
        m = MiniResNet(3, 5, rng=0, stage_channels=(4, 8, 16), blocks_per_stage=1)
        x = rng.standard_normal((2, 3, 16, 16))
        logits = m(x)
        assert logits.shape == (2, 5)
        # stage strides: 16 -> 16 -> 8 -> 4 spatially; verify via stem+blocks
        assert len(list(m.blocks)) == 3

    def test_parameter_count_scales_with_width(self):
        small = MiniResNet(3, 5, rng=0, stage_channels=(4,), blocks_per_stage=1)
        wide = MiniResNet(3, 5, rng=0, stage_channels=(8,), blocks_per_stage=1)
        assert wide.num_parameters() > 2 * small.num_parameters()

    def test_eval_uses_bn_running_stats(self, rng):
        m = MiniResNet(3, 5, rng=0, stage_channels=(4,), blocks_per_stage=1)
        x = rng.standard_normal((8, 3, 8, 8))
        m(x)  # populate running stats
        m.eval()
        with no_grad():
            single = m(x[:1]).data
            batched = m(x[:4]).data[:1]
        # eval-mode output of one example is independent of batch company
        assert np.allclose(single, batched, atol=1e-10)
