"""Evaluation metrics: accuracy, Top-k, corpus BLEU.

BLEU is implemented from the Papineni et al. (2002) definition — modified
n-gram precision up to 4-grams, geometric mean, brevity penalty — with
optional add-one smoothing on higher-order precisions (Lin & Och 2004),
matching what sacrebleu reports on short synthetic references closely
enough for the GNMT comparisons (the paper reports sacrebleu numbers).
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, Sequence

import numpy as np


def accuracy(predictions: np.ndarray, targets: np.ndarray) -> float:
    """Fraction of exact matches; ``predictions`` may be logits or labels."""
    predictions = np.asarray(predictions)
    targets = np.asarray(targets)
    if predictions.ndim == targets.ndim + 1:
        predictions = predictions.argmax(axis=-1)
    if predictions.shape != targets.shape:
        raise ValueError(
            f"shape mismatch: {predictions.shape} vs {targets.shape}"
        )
    return float((predictions == targets).mean())


def top_k_accuracy(logits: np.ndarray, targets: np.ndarray, k: int = 5) -> float:
    """Fraction of rows whose target lies in the top-``k`` scored classes."""
    logits = np.asarray(logits)
    targets = np.asarray(targets)
    if k <= 0:
        raise ValueError("k must be positive")
    if logits.ndim != 2:
        raise ValueError("logits must be 2-D (N, num_classes)")
    k = min(k, logits.shape[1])
    topk = np.argpartition(-logits, k - 1, axis=1)[:, :k]
    return float((topk == targets[:, None]).any(axis=1).mean())


def ngram_counts(tokens: Sequence[int], n: int) -> Counter:
    """Multiset of the ``n``-grams of a token sequence."""
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def corpus_bleu(
    references: Sequence[Sequence[int]],
    hypotheses: Sequence[Sequence[int]],
    max_n: int = 4,
    smooth: bool = True,
) -> float:
    """Corpus-level BLEU in [0, 100] (sacrebleu convention).

    Parameters
    ----------
    references / hypotheses:
        Parallel lists of token-id sequences (one reference per segment —
        the synthetic task's reference translation is unique).
    max_n:
        Highest n-gram order (BLEU-4 default).
    smooth:
        Add-one smoothing of zero higher-order matches, so short decodes
        during early training yield informative nonzero scores.
    """
    if len(references) != len(hypotheses):
        raise ValueError("references and hypotheses must be parallel")
    if not references:
        raise ValueError("empty corpus")
    matches = np.zeros(max_n)
    totals = np.zeros(max_n)
    ref_len = 0
    hyp_len = 0
    for ref, hyp in zip(references, hypotheses):
        ref = list(ref)
        hyp = list(hyp)
        ref_len += len(ref)
        hyp_len += len(hyp)
        for n in range(1, max_n + 1):
            hyp_ngrams = ngram_counts(hyp, n)
            if not hyp_ngrams:
                continue
            ref_ngrams = ngram_counts(ref, n)
            overlap = sum(
                min(count, ref_ngrams[g]) for g, count in hyp_ngrams.items()
            )
            matches[n - 1] += overlap
            totals[n - 1] += sum(hyp_ngrams.values())
    if hyp_len == 0:
        return 0.0
    log_precisions = []
    for n in range(max_n):
        m, t = matches[n], totals[n]
        if t == 0:
            return 0.0
        if m == 0:
            if not smooth:
                return 0.0
            m = 1.0
            t += 1.0
        log_precisions.append(math.log(m / t))
    geo_mean = math.exp(sum(log_precisions) / max_n)
    brevity = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * brevity * geo_mean
