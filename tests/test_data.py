"""Data substrates: datasets, loaders, synthetic generators, vocab."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import (
    ArrayDataset,
    BatchIterator,
    MarkovLanguageSource,
    PaddedBatchIterator,
    TranslationTask,
    Vocab,
    make_image_classification,
    make_ptb_corpus,
    make_sequential_mnist,
    make_translation_dataset,
    steps_per_epoch,
)
from repro.data.vocab import BOS, EOS, NUM_SPECIAL, PAD


class TestArrayDataset:
    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            ArrayDataset(np.zeros((3, 2)), np.zeros(4))


class TestStepsPerEpoch:
    def test_ceil_by_default(self):
        assert steps_per_epoch(10, 3) == 4

    def test_floor_with_drop_last(self):
        assert steps_per_epoch(10, 3, drop_last=True) == 3

    def test_exact_division(self):
        assert steps_per_epoch(12, 3) == steps_per_epoch(12, 3, True) == 4

    def test_oversized_batch_drop_last_raises(self):
        with pytest.raises(ValueError):
            steps_per_epoch(5, 10, drop_last=True)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            steps_per_epoch(0, 4)
        with pytest.raises(ValueError):
            steps_per_epoch(4, 0)


class TestBatchIterator:
    def test_covers_every_example_once(self):
        ds = ArrayDataset(np.arange(17), np.arange(17))
        seen = []
        for x, _ in BatchIterator(ds, 5, rng=0):
            seen.extend(x.tolist())
        assert sorted(seen) == list(range(17))

    def test_drop_last_trims_ragged_batch(self):
        ds = ArrayDataset(np.arange(17), np.arange(17))
        it = BatchIterator(ds, 5, rng=0, drop_last=True)
        batches = list(it)
        assert len(batches) == 3 and all(len(x) == 5 for x, _ in batches)

    def test_same_seed_same_order(self):
        ds = ArrayDataset(np.arange(20), np.arange(20))
        a = [x.tolist() for x, _ in BatchIterator(ds, 4, rng=9)]
        b = [x.tolist() for x, _ in BatchIterator(ds, 4, rng=9)]
        assert a == b

    def test_reshuffles_between_epochs(self):
        ds = ArrayDataset(np.arange(64), np.arange(64))
        it = BatchIterator(ds, 8, rng=3)
        first = [x.tolist() for x, _ in it]
        second = [x.tolist() for x, _ in it]
        assert first != second

    def test_no_shuffle_is_sequential(self):
        ds = ArrayDataset(np.arange(6), np.arange(6))
        batches = [x.tolist() for x, _ in BatchIterator(ds, 3, rng=0, shuffle=False)]
        assert batches == [[0, 1, 2], [3, 4, 5]]

    def test_inputs_targets_stay_aligned(self):
        ds = ArrayDataset(np.arange(30), np.arange(30) * 10)
        for x, y in BatchIterator(ds, 7, rng=1):
            assert np.allclose(y, x * 10)


class TestSequentialMnist:
    def test_shapes_and_labels(self):
        train, test = make_sequential_mnist(40, 20, rng=0)
        assert train.inputs.shape == (40, 28, 28)
        assert test.inputs.shape == (20, 28, 28)
        assert set(np.unique(train.targets)) <= set(range(10))

    def test_custom_size(self):
        train, _ = make_sequential_mnist(10, 5, rng=0, size=14)
        assert train.inputs.shape == (10, 14, 14)

    def test_class_balance(self):
        train, _ = make_sequential_mnist(100, 10, rng=0)
        counts = np.bincount(train.targets, minlength=10)
        assert counts.min() == counts.max() == 10

    def test_deterministic(self):
        a, _ = make_sequential_mnist(10, 5, rng=7)
        b, _ = make_sequential_mnist(10, 5, rng=7)
        assert np.allclose(a.inputs, b.inputs)

    def test_train_test_disjoint_noise(self):
        train, test = make_sequential_mnist(10, 10, rng=7)
        assert not np.allclose(train.inputs, test.inputs)

    def test_classes_are_separable_prototypes(self):
        """Mean images of different classes must differ clearly."""
        train, _ = make_sequential_mnist(200, 10, rng=0, noise=0.0, max_shift=0)
        means = np.stack(
            [train.inputs[train.targets == c].mean(axis=0) for c in range(10)]
        )
        for i in range(10):
            for j in range(i + 1, 10):
                assert np.abs(means[i] - means[j]).max() > 0.3


class TestMarkovSource:
    def test_transition_rows_normalised(self):
        src = MarkovLanguageSource(30, rng=0)
        assert np.allclose(src.transition.sum(axis=1), 1.0)

    def test_stationary_is_fixed_point(self):
        src = MarkovLanguageSource(30, rng=0)
        assert np.allclose(src.stationary @ src.transition, src.stationary)

    def test_entropy_rate_below_unigram(self):
        """Sequential structure must be exploitable: H(rate) < H(unigram)."""
        src = MarkovLanguageSource(30, rng=0)
        assert src.perplexity_floor() < 0.5 * src.unigram_perplexity()

    def test_sample_tokens_in_range(self):
        src = MarkovLanguageSource(12, rng=0)
        toks = src.sample(500, rng=1)
        assert toks.min() >= 0 and toks.max() < 12

    def test_sample_matches_stationary_roughly(self):
        src = MarkovLanguageSource(8, rng=0)
        toks = src.sample(20000, rng=1)
        freq = np.bincount(toks, minlength=8) / len(toks)
        assert np.abs(freq - src.stationary).max() < 0.05

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            MarkovLanguageSource(1, rng=0)
        with pytest.raises(ValueError):
            MarkovLanguageSource(10, rng=0, peakedness=1.0)


class TestPtbCorpus:
    def test_targets_are_shifted_inputs(self):
        src = MarkovLanguageSource(20, rng=0)
        ds = make_ptb_corpus(src, 500, 10, rng=1)
        # target[t] == input[t+1] within a window (same underlying stream)
        assert np.allclose(ds.inputs[0, 1:], ds.targets[0, :-1])

    def test_window_count(self):
        src = MarkovLanguageSource(20, rng=0)
        ds = make_ptb_corpus(src, 101, 10, rng=1)
        assert len(ds) == 10

    def test_too_short_corpus_raises(self):
        src = MarkovLanguageSource(20, rng=0)
        with pytest.raises(ValueError):
            make_ptb_corpus(src, 5, 10, rng=1)


class TestTranslationTask:
    def make_task(self, **kwargs):
        vocab = Vocab(15)
        return vocab, TranslationTask(vocab, rng=0, **kwargs)

    def test_lexicon_is_bijection(self):
        _, task = self.make_task()
        values = list(task.lexicon.values())
        assert len(set(values)) == len(values)
        assert set(task.lexicon.keys()) == set(values)  # same content range

    def test_translation_deterministic(self):
        _, task = self.make_task()
        src = np.array([3, 4, 5, 6, 7])
        assert np.array_equal(task.translate(src), task.translate(src))

    def test_no_fertility_preserves_length(self):
        _, task = self.make_task(fertility_fraction=0.0)
        src = np.array([3, 4, 5, 6, 7, 8])
        assert len(task.translate(src)) == len(src)

    def test_fertility_extends_length(self):
        _, task = self.make_task(fertility_fraction=1.0)
        src = np.array([3, 4, 5])
        assert len(task.translate(src)) == 2 * len(src)

    def test_reordering_reverses_windows(self):
        _, task = self.make_task(fertility_fraction=0.0, reorder_window=3)
        src = np.array([3, 4, 5, 6, 7, 8])
        out = task.translate(src)
        expected = [task.lexicon[t] for t in [5, 4, 3, 8, 7, 6]]
        assert out.tolist() == expected

    def test_dataset_lengths_in_range(self):
        vocab, task = self.make_task()
        pairs = make_translation_dataset(task, 50, rng=1, min_len=4, max_len=9)
        assert len(pairs) == 50
        for s, t in pairs:
            assert 4 <= len(s) <= 9
            assert all(vocab.is_content(int(tok)) for tok in s)

    def test_dataset_with_markov_source(self):
        vocab, task = self.make_task()
        lm = MarkovLanguageSource(15, rng=3)
        pairs = make_translation_dataset(
            task, 10, rng=1, min_len=3, max_len=5, source_lm=lm
        )
        for s, _ in pairs:
            assert all(vocab.is_content(int(tok)) for tok in s)

    def test_invalid_length_range(self):
        vocab, task = self.make_task()
        with pytest.raises(ValueError):
            make_translation_dataset(task, 5, rng=0, min_len=5, max_len=3)


class TestPaddedBatchIterator:
    def make_pairs(self):
        return [
            (np.array([3, 4]), np.array([5, 6, 7])),
            (np.array([8, 9, 10, 11]), np.array([12])),
        ]

    def test_collate_shapes_and_padding(self):
        it = PaddedBatchIterator(
            self.make_pairs(), 2, rng=0, pad_id=PAD, bos_id=BOS, eos_id=EOS
        )
        src, src_len, tgt_in, tgt_out, mask = it.collate(self.make_pairs())
        assert src.shape == (2, 4)
        assert src_len.tolist() == [2, 4]
        assert src[0, 2:].tolist() == [PAD, PAD]
        # decoder input starts with BOS; target ends with EOS at len(t)
        assert tgt_in[0, 0] == BOS and tgt_out[0, 3] == EOS
        assert mask[0].tolist() == [1, 1, 1, 1]
        assert mask[1].tolist() == [1, 1, 0, 0]

    def test_teacher_forcing_alignment(self):
        it = PaddedBatchIterator(
            self.make_pairs(), 2, rng=0, pad_id=PAD, bos_id=BOS, eos_id=EOS
        )
        _, _, tgt_in, tgt_out, _ = it.collate(self.make_pairs())
        # tgt_in shifted right by one relative to tgt_out
        assert tgt_in[0, 1:4].tolist() == tgt_out[0, :3].tolist()

    def test_iterates_all_pairs(self):
        pairs = self.make_pairs() * 3
        it = PaddedBatchIterator(pairs, 4, rng=0, pad_id=PAD, bos_id=BOS, eos_id=EOS)
        total = sum(len(batch[0]) for batch in it)
        assert total == 6

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            PaddedBatchIterator([], 2, rng=0, pad_id=PAD, bos_id=BOS, eos_id=EOS)


class TestSyntheticImages:
    def test_shapes(self):
        train, test, nc = make_image_classification(30, 10, rng=0, num_classes=5, size=8)
        assert train.inputs.shape == (30, 3, 8, 8)
        assert nc == 5

    def test_balance(self):
        train, _, _ = make_image_classification(40, 10, rng=0, num_classes=4)
        assert np.bincount(train.targets).tolist() == [10, 10, 10, 10]

    def test_deterministic(self):
        a, _, _ = make_image_classification(8, 4, rng=5)
        b, _, _ = make_image_classification(8, 4, rng=5)
        assert np.allclose(a.inputs, b.inputs)


class TestVocab:
    def test_size_includes_specials(self):
        v = Vocab(10)
        assert v.size == 10 + NUM_SPECIAL

    def test_content_range(self):
        v = Vocab(5)
        assert v.is_content(3) and not v.is_content(PAD) and not v.is_content(8)

    def test_empty_vocab_rejected(self):
        with pytest.raises(ValueError):
            Vocab(0)
