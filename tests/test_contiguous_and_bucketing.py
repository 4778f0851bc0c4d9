"""Length-bucketed translation batches."""

from __future__ import annotations

import numpy as np

from repro.data import (
    PaddedBatchIterator,
    TranslationTask,
    Vocab,
    make_translation_dataset,
)
from repro.data.vocab import BOS, EOS, PAD


def padding_fraction(batches) -> float:
    """Fraction of source positions that are padding over one epoch."""
    total = padded = 0
    for src, src_len, *_ in batches:
        total += src.size
        padded += src.size - int(np.sum(src_len))
    return padded / total

class TestBucketedBatches:
    def make_pairs(self, n=64):
        vocab = Vocab(15)
        task = TranslationTask(vocab, rng=0, fertility_fraction=0.0)
        return make_translation_dataset(task, n, rng=1, min_len=3, max_len=12)

    def test_bucketing_reduces_padding(self):
        pairs = self.make_pairs()
        plain = PaddedBatchIterator(
            pairs, 8, rng=2, pad_id=PAD, bos_id=BOS, eos_id=EOS
        )
        bucketed = PaddedBatchIterator(
            pairs, 8, rng=2, pad_id=PAD, bos_id=BOS, eos_id=EOS,
            bucket_by_length=True,
        )
        assert padding_fraction(bucketed) < padding_fraction(plain)

    def test_bucketing_covers_all_pairs(self):
        pairs = self.make_pairs(30)
        it = PaddedBatchIterator(
            pairs, 7, rng=2, pad_id=PAD, bos_id=BOS, eos_id=EOS,
            bucket_by_length=True,
        )
        total = sum(len(batch[0]) for batch in it)
        assert total == 30

    def test_batches_group_similar_lengths(self):
        pairs = self.make_pairs()
        it = PaddedBatchIterator(
            pairs, 8, rng=2, pad_id=PAD, bos_id=BOS, eos_id=EOS,
            bucket_by_length=True,
        )
        for src, src_len, *_ in it:
            assert src_len.max() - src_len.min() <= 4  # tight buckets

    def test_unbucketed_unchanged_by_flag_default(self):
        pairs = self.make_pairs(16)
        a = PaddedBatchIterator(pairs, 4, rng=5, pad_id=PAD, bos_id=BOS, eos_id=EOS)
        b = PaddedBatchIterator(pairs, 4, rng=5, pad_id=PAD, bos_id=BOS, eos_id=EOS)
        for (sa, *_), (sb, *_) in zip(a, b):
            assert np.array_equal(sa, sb)
