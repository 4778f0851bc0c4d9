"""Beam-search decoding for the GNMT model.

The paper's BLEU numbers come from the MLPerf reference GNMT, which
decodes with beam search; our default evaluation decodes greedily (a
uniform BLEU haircut that preserves comparisons).  This module provides
the full beam decoder with GNMT's length normalisation,

    score(hyp) = log P(hyp) / lp(|hyp|),
    lp(n) = ((5 + n) / 6) ** alpha,

so the reproduction can also report beam-decoded BLEU (the
``beam_decode`` test battery checks beam >= greedy on model log-prob and
that beam_size=1 reduces to greedy).

**Batched decoding.**  :func:`beam_decode` encodes the whole batch once
and then advances every sentence in one loop: each step runs
``B x beam_size`` rows through the embedding, decoder cells, attention
and output head together, the way a larger batch shares per-step cost
in training.  Candidate selection, beam reordering and the finished
list stay per sentence.  A sentence leaves the loop (and its rows leave
the batch) when its beam ends: at its own horizon, when every candidate
ended in EOS, or by the early stop below.  The loop ends when every
sentence has left.  :func:`beam_decode_sentence` is the batch-of-one
call of the same loop.

**Early stop, and why it is exact.**  A sentence stops once its best
finished score is >= (best alive cumulative log-prob) / lp(horizon).
Every log-softmax value is <= 0 in floating point (``x - max`` is <= 0
and ``log(sum(exp(x - max)))`` >= 0), so no extension of a live
hypothesis raises its cumulative log-prob, and lp(n) does not decrease
in n for alpha >= 0, so no future length divides it by less than
lp(horizon).  No live hypothesis can therefore end above that bound,
and the finished one that reached it first wins every tie, exactly as
when the search runs to the horizon.  This is why ``length_alpha`` must
be >= 0.

**Batch-independent answers.**  Each sentence has its own horizon
(``max_len`` may be one value per sentence), and its selection, stop
and close-out read only its own rows, so a sentence gets the same
tokens alone as inside any batch.  Only the tokens are equal: batched
matmuls and the batched encoder sum in another order, so the
log-probabilities underneath differ in the last bits between batch
sizes (about 7e-15 measured); the tests check tokens against the
sentence-at-a-time reference decoder.
"""

from __future__ import annotations

import numpy as np

from repro.data.vocab import BOS, EOS
from repro.tensor import Tensor, concat, no_grad, zeros
from repro.tensor.nnops import log_softmax


def _length_penalty(length: int, alpha: float) -> float:
    if alpha == 0.0:
        return 1.0
    return ((5.0 + length) / 6.0) ** alpha


def check_decode_settings(
    beam_size: int, length_alpha: float, max_len_factor: float | None = None
) -> None:
    """Refuse decode settings the beam decoder cannot honour, with a reason.

    ``max_len_factor`` is the serving horizon's factor
    (``int(source length * max_len_factor) + 2``); ``None`` skips it.
    """
    if beam_size < 1:
        raise ValueError(
            f"beam_size must be >= 1, got {beam_size}: the beam has to keep "
            "at least one hypothesis"
        )
    if length_alpha < 0:
        raise ValueError(
            f"length_alpha must be >= 0, got {length_alpha}: the early stop is "
            "exact only for a length penalty that does not decrease with length"
        )
    if max_len_factor is not None and max_len_factor <= 0:
        raise ValueError(
            f"max_len_factor must be > 0, got {max_len_factor}: the decoding "
            "horizon has to grow with the source length"
        )


def beam_decode(
    model,
    src: np.ndarray,
    src_len: np.ndarray,
    max_len: int | np.ndarray,
    beam_size: int = 4,
    length_alpha: float = 0.6,
) -> list[list[int]]:
    """Beam-search decode a batch, every sentence in one loop.

    Parameters
    ----------
    model:
        A :class:`repro.models.gnmt.GNMT` instance.
    src:
        ``(B, S)`` padded token array.
    src_len:
        True source length of each row.
    max_len:
        Decoding horizon: one for the whole batch, or one per sentence.
    beam_size:
        Hypotheses kept per sentence and step; 1 reduces exactly to
        greedy decoding.
    length_alpha:
        GNMT length-normalisation exponent (0 disables).

    Returns each sentence's best hypothesis as content tokens.
    """
    check_decode_settings(beam_size, length_alpha)
    src = np.asarray(src, dtype=np.int64)
    n, b = len(src), beam_size
    horizon = np.broadcast_to(np.asarray(max_len, dtype=np.int64), (n,))
    best_norm = np.full(n, -np.inf)
    best_seq: list[list[int]] = [[] for _ in range(n)]
    # sentences still decoding; a horizon of 0 closes out the empty hypothesis
    live = np.flatnonzero(horizon > 0)
    if live.size == 0:
        return [[] for _ in range(n)]

    def offer(s: int, norms: np.ndarray, seq_of) -> None:
        # the finished list's max keeps the first of equal scores
        j = int(np.argmax(norms))
        if norms[j] > best_norm[s]:
            best_norm[s] = norms[j]
            best_seq[s] = seq_of(j)

    with no_grad():
        memory, proj_keys, src_mask = model.encode(
            src[live], np.asarray(src_len)[live]
        )
        # tile the (S, live, H) memory across each sentence's beam rows
        mem = Tensor(np.repeat(memory.data, b, axis=1))
        keys = Tensor(np.repeat(proj_keys.data, b, axis=1))
        mask = np.repeat(src_mask, b, axis=1)
        rows = live.size * b
        states = [cell.zero_state(rows) for cell in model.decoder_cells]
        context = zeros(rows, model.hidden)
        tokens = np.full(rows, BOS, dtype=np.int64)
        # only hypothesis 0 of each sentence is live initially
        cum = np.full((live.size, b), -np.inf)
        cum[:, 0] = 0.0
        seqs = np.zeros((rows, 0), dtype=np.int64)  # alive hypotheses' tokens
        lp_horizon = np.array(
            [_length_penalty(int(h), length_alpha) for h in horizon[live]]
        )

        step = 0
        while live.size:
            emb = model.embedding(tokens)
            top, states = model._decoder_step(emb, context, states)
            context, _ = model.attention(top, keys, mem, mask=mask)
            logits = model.head(concat([top, context], axis=1))
            logp = log_softmax(logits).data  # (rows, V)
            vocab = logp.shape[1]
            flat = (cum.reshape(-1, 1) + logp).reshape(live.size, b * vocab)
            # pick 2*beam candidates so EOS absorptions can't starve the beam
            k = min(2 * b, b * vocab)
            sent = np.arange(live.size)[:, None]
            cand = np.argpartition(-flat, k - 1, axis=1)[:, :k]
            cand = cand[sent, np.argsort(-flat[sent, cand], axis=1)]
            score = flat[sent, cand]
            parent, token = np.divmod(cand, vocab)
            finite = np.isfinite(score)
            grows = finite & (token != EOS)
            # each sentence scans its candidates best-first and stops at
            # the beam_size-th survivor; EOS candidates seen before finish
            seen = np.cumsum(grows, axis=1) - grows < b
            ends = finite & (token == EOS) & seen
            lp_step = _length_penalty(step + 1, length_alpha)
            norm = np.where(ends, score / lp_step, -np.inf)
            for i in np.flatnonzero(norm.max(axis=1) > best_norm[live]):
                offer(live[i], norm[i], lambda j: seqs[i * b + parent[i, j]].tolist())

            taken = grows & seen
            count = taken.sum(axis=1)
            slot = np.argsort(~taken, axis=1, kind="stable")[:, :b]
            # pad a short beam with -inf copies of its first survivor
            short = np.arange(b) >= count[:, None]
            slot = np.where(short, slot[:, :1], slot)
            new_parent = parent[sent, slot]
            new_token = token[sent, slot]
            new_cum = np.where(short, -np.inf, score[sent, slot])

            at_horizon = step + 1 >= horizon[live]
            # the exact early stop: no live hypothesis can end above this
            settled = best_norm[live] >= new_cum.max(axis=1) / lp_horizon
            done = (count == 0) | at_horizon | settled
            for i in np.flatnonzero(done):
                s = live[i]
                if count[i] == 0:
                    # every candidate ended: close out the beam as it stood
                    offer(s, cum[i] / _length_penalty(max(step, 1), length_alpha),
                          lambda j: seqs[i * b + j].tolist())
                elif at_horizon[i]:
                    offer(s, new_cum[i] / lp_step,
                          lambda j: seqs[i * b + new_parent[i, j]].tolist()
                          + [int(new_token[i, j])])

            keep = np.flatnonzero(~done)
            if keep.size < live.size:
                sentence_rows = (keep[:, None] * b + np.arange(b)).reshape(-1)
                mem = Tensor(mem.data[:, sentence_rows])
                keys = Tensor(keys.data[:, sentence_rows])
                mask = mask[:, sentence_rows]
                lp_horizon = lp_horizon[keep]
            reorder = (keep[:, None] * b + new_parent[keep]).reshape(-1)
            states = [
                (Tensor(h.data[reorder]), Tensor(c.data[reorder]))
                for h, c in states
            ]
            context = Tensor(context.data[reorder])
            tokens = new_token[keep].reshape(-1)
            cum = new_cum[keep]
            seqs = np.concatenate([seqs[reorder], tokens[:, None]], axis=1)
            live = live[keep]
            step += 1

    return [[t for t in seq if model.vocab.is_content(t)] for seq in best_seq]


def beam_decode_sentence(
    model,
    src: np.ndarray,
    src_len: int,
    max_len: int,
    beam_size: int = 4,
    length_alpha: float = 0.6,
) -> list[int]:
    """Beam-search decode one 1-D source sentence: a batch of one.

    ``src`` may carry padding past ``src_len``; the other parameters are
    :func:`beam_decode`'s.  Returns the best hypothesis' content tokens.
    """
    return beam_decode(
        model, np.asarray(src)[None, :], np.array([src_len]), max_len,
        beam_size, length_alpha,
    )[0]
