"""Beam-search decoding for GNMT."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data import (
    PaddedBatchIterator,
    TranslationTask,
    Vocab,
    make_translation_dataset,
)
from repro.data.vocab import BOS, EOS, NUM_SPECIAL, PAD
from repro.models import GNMT, beam_decode, beam_decode_sentence
from repro.models.beam import _length_penalty
from repro.nn import BahdanauAttention
from repro.optim import Adam
from repro.schedules import ConstantLR
from repro.serve import InferenceEngine
from repro.tensor import Tensor, fused_kernels, no_grad, concat, zeros
from repro.tensor.nnops import log_softmax
from repro.train import Trainer


def reference_beam_decode_sentence(
    model,
    src: np.ndarray,
    src_len: int,
    max_len: int,
    beam_size: int = 4,
    length_alpha: float = 0.6,
) -> list[int]:
    """The oracle: the sentence-at-a-time beam decoder, one sentence alone.

    Runs every step to the horizon unless the whole beam ends in EOS; the
    batched ``beam_decode`` must return the same tokens for every sentence.
    """
    if beam_size < 1:
        raise ValueError("beam_size must be >= 1")
    with no_grad():
        memory, proj_keys, src_mask = model.encode(
            src[None, :], np.array([src_len])
        )
        s = memory.shape[0]
        # tile the (S, 1, H) memory across the beam as a plain array op
        mem_b = Tensor(np.repeat(memory.data, beam_size, axis=1))
        keys_b = Tensor(np.repeat(proj_keys.data, beam_size, axis=1))
        mask_b = np.repeat(src_mask, beam_size, axis=1)

        states = [cell.zero_state(beam_size) for cell in model.decoder_cells]
        context = zeros(beam_size, model.hidden)
        tokens = np.full(beam_size, BOS, dtype=np.int64)
        # only hypothesis 0 is live initially; the rest start at -inf
        cum_logp = np.full(beam_size, -np.inf)
        cum_logp[0] = 0.0
        alive_seqs: list[list[int]] = [[] for _ in range(beam_size)]
        finished: list[tuple[float, list[int]]] = []

        for _ in range(max_len):
            emb = model.embedding(tokens)
            top, states = model._decoder_step(emb, context, states)
            context, _ = model.attention(top, keys_b, mem_b, mask=mask_b)
            logits = model.head(concat([top, context], axis=1))
            logp = log_softmax(logits).data  # (beam, V)
            total = cum_logp[:, None] + logp
            flat = total.reshape(-1)
            # pick 2*beam candidates so EOS absorptions can't starve the beam
            k = min(2 * beam_size, flat.size)
            cand = np.argpartition(-flat, k - 1)[:k]
            cand = cand[np.argsort(-flat[cand])]

            new_tokens, new_cum, parents, new_seqs = [], [], [], []
            for idx in cand:
                parent, token = divmod(int(idx), logits.shape[1])
                score = float(flat[idx])
                if not np.isfinite(score):
                    continue
                if token == EOS:
                    norm = score / _length_penalty(
                        len(alive_seqs[parent]) + 1, length_alpha
                    )
                    finished.append((norm, list(alive_seqs[parent])))
                    continue
                new_tokens.append(token)
                new_cum.append(score)
                parents.append(parent)
                new_seqs.append(alive_seqs[parent] + [token])
                if len(new_tokens) == beam_size:
                    break
            if not new_tokens:
                break
            # pad the beam if fewer than beam_size survivors
            while len(new_tokens) < beam_size:
                new_tokens.append(new_tokens[0])
                new_cum.append(-np.inf)
                parents.append(parents[0])
                new_seqs.append(list(new_seqs[0]))

            reorder = np.asarray(parents)
            states = [
                (
                    Tensor(h.data[reorder]),
                    Tensor(c.data[reorder]),
                )
                for h, c in states
            ]
            context = Tensor(context.data[reorder])
            tokens = np.asarray(new_tokens, dtype=np.int64)
            cum_logp = np.asarray(new_cum)
            alive_seqs = new_seqs

        # close out still-alive hypotheses at the horizon
        for score, seq in zip(cum_logp, alive_seqs):
            if np.isfinite(score):
                finished.append(
                    (score / _length_penalty(max(len(seq), 1), length_alpha), seq)
                )
        if not finished:
            return []
        best = max(finished, key=lambda pair: pair[0])[1]
        return [t for t in best if model.vocab.is_content(t)]


def pad_batch(srcs):
    """Stack 1-D sources into a PAD-padded (B, S) array and their lengths."""
    lens = np.array([len(s) for s in srcs], dtype=np.int64)
    src = np.full((len(srcs), lens.max()), PAD, dtype=np.int64)
    for i, s in enumerate(srcs):
        src[i, : len(s)] = s
    return src, lens


@pytest.fixture(scope="module")
def trained_gnmt():
    """A lightly trained GNMT so decoding is non-degenerate."""
    vocab = Vocab(12)
    task = TranslationTask(vocab, rng=0, fertility_fraction=0.0)
    pairs = make_translation_dataset(task, 200, rng=1, min_len=3, max_len=5)
    model = GNMT(vocab, rng=2, embed_dim=16, hidden=16, enc_layers=2, dec_layers=2)
    it = PaddedBatchIterator(pairs, 32, rng=3, pad_id=PAD, bos_id=BOS, eos_id=EOS)
    Trainer(model.loss, Adam(model, lr=0.02), ConstantLR(0.02), it, grad_clip=5.0).run(4)
    test_pairs = make_translation_dataset(task, 20, rng=4, min_len=3, max_len=5)
    return model, test_pairs


def hypothesis_logprob(model, src_row, src_len, tokens):
    """Model log-prob of a hypothesis (content tokens + EOS)."""
    with no_grad():
        memory, keys, mask = model.encode(src_row[None, :], np.array([src_len]))
        states = [c.zero_state(1) for c in model.decoder_cells]
        context = zeros(1, model.hidden)
        total = 0.0
        prev = BOS
        for tok in list(tokens) + [EOS]:
            emb = model.embedding(np.array([prev]))
            top, states = model._decoder_step(emb, context, states)
            context, _ = model.attention(top, keys, memory, mask=mask)
            logits = model.head(concat([top, context], axis=1))
            logp = log_softmax(logits).data[0]
            total += float(logp[tok])
            prev = tok
    return total


class TestBeamDecode:
    def test_beam_one_equals_greedy(self, trained_gnmt):
        model, pairs = trained_gnmt
        src, _ = pairs[0]
        greedy = model.greedy_decode(src[None, :], np.array([len(src)]), 12)[0]
        beam1 = beam_decode_sentence(
            model, src, len(src), 12, beam_size=1, length_alpha=0.0
        )
        assert beam1 == greedy

    def test_wider_beam_never_lowers_model_score(self, trained_gnmt):
        """Beam 4's chosen hypothesis scores >= greedy's under the model
        (with length penalty off, so scores are comparable)."""
        model, pairs = trained_gnmt
        for src, _ in pairs[:5]:
            greedy = beam_decode_sentence(
                model, src, len(src), 12, beam_size=1, length_alpha=0.0
            )
            beam = beam_decode_sentence(
                model, src, len(src), 12, beam_size=4, length_alpha=0.0
            )
            lp_g = hypothesis_logprob(model, src, len(src), greedy)
            lp_b = hypothesis_logprob(model, src, len(src), beam)
            assert lp_b >= lp_g - 1e-9

    def test_batch_wrapper_matches_per_sentence(self, trained_gnmt):
        model, pairs = trained_gnmt
        srcs = [s for s, _ in pairs[:3]]
        max_src = max(len(s) for s in srcs)
        src = np.full((3, max_src), PAD, dtype=np.int64)
        lens = np.zeros(3, dtype=np.int64)
        for i, s in enumerate(srcs):
            src[i, : len(s)] = s
            lens[i] = len(s)
        batch_out = beam_decode(model, src, lens, 12, beam_size=3)
        single_out = [
            beam_decode_sentence(model, src[i], int(lens[i]), 12, beam_size=3)
            for i in range(3)
        ]
        assert batch_out == single_out

    def test_outputs_are_content_tokens(self, trained_gnmt):
        model, pairs = trained_gnmt
        src, _ = pairs[0]
        out = beam_decode_sentence(model, src, len(src), 10, beam_size=4)
        assert all(model.vocab.is_content(t) for t in out)
        assert len(out) <= 10

    def test_evaluate_bleu_with_beam(self, trained_gnmt):
        model, pairs = trained_gnmt
        greedy = model.evaluate_bleu(pairs, batch_size=10)["bleu"]
        beam = model.evaluate_bleu(pairs, batch_size=10, beam_size=3)["bleu"]
        assert 0.0 <= beam <= 100.0
        # beam should not be dramatically worse than greedy
        assert beam >= 0.5 * greedy

    def test_invalid_beam_size(self, trained_gnmt):
        model, pairs = trained_gnmt
        src, _ = pairs[0]
        with pytest.raises(ValueError):
            beam_decode_sentence(model, src, len(src), 5, beam_size=0)


class TestBatchedDecode:
    """One beam loop for the whole batch, against the sentence oracle."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        vocab_size=st.integers(2, 10),
        scale=st.floats(0.5, 6.0),
        lengths=st.lists(st.integers(1, 7), min_size=1, max_size=6),
        beam_size=st.integers(1, 4),
        alpha=st.sampled_from([0.0, 0.6, 1.0, 2.0]),
        fused=st.booleans(),
        data=st.data(),
    )
    def test_matches_sentence_oracle(
        self, seed, vocab_size, scale, lengths, beam_size, alpha, fused, data
    ):
        """Random small GNMTs, their weights scaled for flat to peaky
        distributions; per-sentence horizons reach both the horizon
        close-out and the all-EOS stop."""
        horizons = data.draw(
            st.lists(st.integers(1, 14), min_size=len(lengths), max_size=len(lengths))
        )
        vocab = Vocab(vocab_size)
        model = GNMT(vocab, rng=seed, embed_dim=8, hidden=8)
        for p in model.parameters():
            p.data *= scale
        rng = np.random.default_rng(seed)
        srcs = [rng.integers(NUM_SPECIAL, vocab.size, size=n) for n in lengths]
        src, lens = pad_batch(srcs)
        with fused_kernels(fused):
            batched = beam_decode(
                model, src, lens, np.array(horizons), beam_size, alpha
            )
            alone = [
                reference_beam_decode_sentence(
                    model, s, len(s), h, beam_size, alpha
                )
                for s, h in zip(srcs, horizons)
            ]
        assert batched == alone

    def test_answer_does_not_depend_on_batch_mates(self, trained_gnmt):
        model, pairs = trained_gnmt
        engine = InferenceEngine(model, "gnmt", beam_size=3)
        srcs = [s for s, _ in pairs]
        alone = [engine.predict([s])[0]["tokens"] for s in srcs]
        rng = np.random.default_rng(0)
        for size in (2, 5, 11, len(srcs)):
            pick = rng.permutation(len(srcs))[:size]
            served = engine.predict([srcs[i] for i in pick])
            assert [r["tokens"] for r in served] == [alone[i] for i in pick]

    def test_steps_stop_at_horizon_or_earlier(self, trained_gnmt, monkeypatch):
        """Decode steps, counted as attention calls: a batch takes at
        most its longest horizon, and the early stop ends a sentence
        before its horizon."""
        model, pairs = trained_gnmt
        calls = []
        forward = BahdanauAttention.forward

        def counted(self, *args, **kwargs):
            calls.append(1)
            return forward(self, *args, **kwargs)

        monkeypatch.setattr(BahdanauAttention, "forward", counted)
        srcs = [s for s, _ in pairs]
        horizons = [int(len(s) * 2.5) + 2 for s in srcs]  # the serving rule
        steps = []
        for s, h in zip(srcs, horizons):
            calls.clear()
            beam_decode_sentence(model, s, len(s), h, beam_size=3)
            steps.append(len(calls))
        assert all(n <= h for n, h in zip(steps, horizons))
        assert any(n < h for n, h in zip(steps, horizons))
        calls.clear()
        beam_decode(model, *pad_batch(srcs), horizons, beam_size=3)
        assert len(calls) <= max(horizons)


class TableModel:
    """A stand-in GNMT whose next-token logits depend only on the previous
    token, read from ``table`` (rows may hold -inf or NaN), so a test can
    steer the search into paths a trained model does not take."""

    hidden = 1

    class _Cell:
        def zero_state(self, rows):
            return zeros(rows, 1), zeros(rows, 1)

    def __init__(self, table):
        self.table = np.asarray(table, dtype=np.float64)
        self.vocab = Vocab(len(self.table) - NUM_SPECIAL)
        self.decoder_cells = [self._Cell()]

    def encode(self, src, src_len):
        memory = zeros(src.shape[1], len(src), 1)
        return memory, memory, np.ones((src.shape[1], len(src)))

    def embedding(self, tokens):
        return Tensor(tokens[:, None])

    def _decoder_step(self, emb, context, states):
        return emb, states

    def attention(self, top, keys, memory, mask=None):
        return zeros(len(top.data), 1), None

    def head(self, x):
        return Tensor(self.table[x.data[:, 0].astype(np.int64)])


def row(*, eos=-np.inf, t3=-np.inf, t4=-np.inf, t5=-np.inf):
    """Table-model logits for EOS and content tokens 3-5 (PAD, BOS -inf)."""
    return [-np.inf, -np.inf, eos, t3, t4, t5]


NAN_ROW = [np.nan] * 6


class TestSteeredSearch:
    """Rare search paths, on the table model, against the oracle.

    The all-EOS stop needs every candidate to end or be non-finite, and
    a row with finite logits always offers a non-EOS candidate, so only
    a non-finite (here NaN) row reaches it.
    """

    @pytest.mark.parametrize(
        "after_bos, after_3, after_4, after_5, beam, alpha, expected",
        [
            # [4] is NaN, [3] offers only EOS: the stop closes out [4]
            # unextended, and that beats every finished hypothesis
            (row(eos=np.log(0.1), t3=np.log(0.3), t4=np.log(0.6)),
             row(eos=0.0), NAN_ROW, row(), 2, 2.0, [4]),
            # the close-out divides by lp of the length [4] had, 1
            (row(eos=np.log(0.4), t3=np.log(0.25), t4=np.log(0.35)),
             row(), NAN_ROW, row(), 1, 2.0, []),
            # exp(-800) underflows, so every log-prob here is exact: [3]
            # finishes at step 1 with the score [] finished with at step
            # 0, and the first of equal scores wins
            (row(eos=-800.0, t3=0.0, t4=-800.0), row(eos=-800.0, t5=0.0),
             row(t4=0.0), NAN_ROW, 3, 0.0, []),
        ],
    )
    def test_matches_oracle(
        self, after_bos, after_3, after_4, after_5, beam, alpha, expected
    ):
        model = TableModel([row(), after_bos, row(), after_3, after_4, after_5])
        src = np.array([3, 4])
        oracle = reference_beam_decode_sentence(model, src, 2, 5, beam, alpha)
        assert oracle == expected
        assert beam_decode_sentence(model, src, 2, 5, beam, alpha) == oracle


class TestDecodeSettings:
    """Bad decode settings are refused where they are set, with a reason."""

    def test_beam_decode_refuses_negative_alpha(self, trained_gnmt):
        # beam_size < 1: TestBeamDecode.test_invalid_beam_size
        model, pairs = trained_gnmt
        src, lens = pad_batch([s for s, _ in pairs[:2]])
        with pytest.raises(ValueError, match="length_alpha must be >= 0"):
            beam_decode(model, src, lens, 5, length_alpha=-0.5)

    @pytest.mark.parametrize(
        "setting, reason",
        [
            ({"beam_size": 0}, "beam_size must be >= 1"),
            ({"length_alpha": -0.5}, "length_alpha must be >= 0"),
            ({"max_len_factor": 0.0}, "max_len_factor must be > 0"),
        ],
    )
    def test_engine_refuses_at_construction(self, setting, reason):
        model = GNMT(Vocab(8), rng=0, embed_dim=8, hidden=8)
        with pytest.raises(ValueError, match=reason):
            InferenceEngine(model, "gnmt", **setting)


class TestLengthPenalty:
    def test_alpha_zero_is_identity(self):
        assert _length_penalty(7, 0.0) == 1.0

    def test_gnmt_formula(self):
        assert _length_penalty(7, 1.0) == pytest.approx(12 / 6)

    def test_monotone_in_length(self):
        penalties = [_length_penalty(n, 0.6) for n in range(1, 10)]
        assert all(a < b for a, b in zip(penalties, penalties[1:]))
