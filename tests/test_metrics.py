"""Metrics: accuracy, top-k, corpus BLEU."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.train import (
    accuracy,
    corpus_bleu,
    ngram_counts,
    top_k_accuracy,
)


class TestAccuracy:
    def test_labels_direct(self):
        assert accuracy(np.array([1, 2, 3]), np.array([1, 0, 3])) == pytest.approx(2 / 3)

    def test_logits_argmaxed(self):
        logits = np.array([[0.1, 0.9], [0.8, 0.2]])
        assert accuracy(logits, np.array([1, 0])) == 1.0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            accuracy(np.zeros(3), np.zeros(4))


class TestTopK:
    def test_k1_equals_accuracy(self, rng):
        logits = rng.standard_normal((20, 6))
        targets = rng.integers(0, 6, 20)
        assert top_k_accuracy(logits, targets, k=1) == accuracy(logits, targets)

    def test_k_equals_classes_is_one(self, rng):
        logits = rng.standard_normal((10, 4))
        targets = rng.integers(0, 4, 10)
        assert top_k_accuracy(logits, targets, k=4) == 1.0

    def test_monotone_in_k(self, rng):
        logits = rng.standard_normal((50, 10))
        targets = rng.integers(0, 10, 50)
        scores = [top_k_accuracy(logits, targets, k=k) for k in range(1, 11)]
        assert all(a <= b for a, b in zip(scores, scores[1:]))

    def test_known_case(self):
        logits = np.array([[5.0, 4.0, 3.0, 0.0]])
        assert top_k_accuracy(logits, np.array([2]), k=3) == 1.0
        assert top_k_accuracy(logits, np.array([3]), k=3) == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            top_k_accuracy(np.zeros((2, 3)), np.zeros(2, dtype=int), k=0)
        with pytest.raises(ValueError):
            top_k_accuracy(np.zeros(3), np.zeros(3, dtype=int))


class TestNgramCounts:
    def test_bigrams(self):
        counts = ngram_counts([1, 2, 1, 2], 2)
        assert counts[(1, 2)] == 2 and counts[(2, 1)] == 1

    def test_order_longer_than_sequence(self):
        assert len(ngram_counts([1], 3)) == 0


class TestBleu:
    def test_identity_is_100(self):
        seqs = [[1, 2, 3, 4, 5], [6, 7, 8, 9]]
        assert corpus_bleu(seqs, seqs) == pytest.approx(100.0)

    def test_disjoint_is_0(self):
        refs = [[1, 2, 3, 4]]
        hyps = [[5, 6, 7, 8]]
        assert corpus_bleu(refs, hyps, smooth=False) == 0.0

    def test_empty_hypothesis_scores_0(self):
        assert corpus_bleu([[1, 2, 3]], [[]]) == 0.0

    def test_brevity_penalty(self):
        ref = [[1, 2, 3, 4, 5, 6, 7, 8]]
        full = corpus_bleu(ref, [[1, 2, 3, 4, 5, 6, 7, 8]])
        half = corpus_bleu(ref, [[1, 2, 3, 4]])
        assert half < full
        # the 4 hypothesis tokens are perfect n-gram matches; the gap is BP
        assert half == pytest.approx(100.0 * math.exp(1 - 8 / 4))

    def test_no_brevity_penalty_for_long_hyps(self):
        ref = [[1, 2, 3, 4]]
        hyp = [[1, 2, 3, 4, 1, 2, 3, 4]]
        # modified precision clips repeated n-grams; BP stays 1
        score = corpus_bleu(ref, hyp)
        assert 0 < score < 100.0

    def test_partial_overlap_between_bounds(self):
        refs = [[1, 2, 3, 4, 5, 6]]
        hyps = [[1, 2, 3, 9, 9, 9]]
        s = corpus_bleu(refs, hyps)
        assert 0.0 < s < 100.0

    def test_smoothing_gives_nonzero_on_short_match(self):
        refs = [[1, 2, 3, 4, 5]]
        hyps = [[1, 2, 9, 9, 9]]  # no 3-gram/4-gram matches
        assert corpus_bleu(refs, hyps, smooth=True) > 0.0
        assert corpus_bleu(refs, hyps, smooth=False) == 0.0

    def test_corpus_level_not_mean_of_segments(self):
        refs = [[1, 2, 3, 4], [5, 6, 7, 8]]
        hyps = [[1, 2, 3, 4], [9, 9, 9, 9]]
        corpus = corpus_bleu(refs, hyps, smooth=False)
        assert 0.0 < corpus < 100.0

    def test_parallel_length_enforced(self):
        with pytest.raises(ValueError):
            corpus_bleu([[1]], [[1], [2]])

    def test_empty_corpus_raises(self):
        with pytest.raises(ValueError):
            corpus_bleu([], [])

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            # segments must reach 4 tokens: shorter corpora have zero
            # 4-gram totals and score 0 by definition (sacrebleu agrees)
            st.lists(st.integers(0, 9), min_size=4, max_size=12),
            min_size=1,
            max_size=5,
        )
    )
    def test_self_bleu_always_100(self, corpus):
        assert corpus_bleu(corpus, corpus) == pytest.approx(100.0)

    def test_single_token_segments_score_zero(self):
        """No 4-grams exist, so corpus BLEU is 0 even on identity."""
        assert corpus_bleu([[1]], [[1]]) == 0.0

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(0, 5), min_size=4, max_size=15),
        st.lists(st.integers(0, 5), min_size=4, max_size=15),
    )
    def test_bleu_bounded(self, ref, hyp):
        s = corpus_bleu([ref], [hyp])
        assert 0.0 <= s <= 100.0 + 1e-9
