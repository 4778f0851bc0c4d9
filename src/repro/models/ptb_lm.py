"""The PTB language models (Section 5.1.2).

The model takes the paper's two configurations, scaled for the synthetic
corpus:

* **PTB-small**: embedding/hidden 200, seq len 20, uniform init 0.1
  (kernel per layer 400×800 in the paper) — trained with Momentum +
  exponential-after-hold decay.
* **PTB-large**: embedding/hidden 1500, seq len 35, uniform init 0.04
  (kernel 3000×6000) — trained with LARS + poly decay (power 2).

The ``ptb_small`` and ``ptb_large`` workloads in
:mod:`repro.experiments.common` set the scaled sizes (scale factors
documented in EXPERIMENTS.md).
"""

from __future__ import annotations

import math

import numpy as np

from repro.nn import Embedding, Linear, LSTM, Module
from repro.tensor import Tensor, cross_entropy, no_grad
from repro.data.dataset import ArrayDataset
from repro.utils.rng import spawn


class PTBLanguageModel(Module):
    """2-layer LSTM LM over integer token windows."""

    def __init__(
        self,
        vocab_size: int,
        rng,
        embed_dim: int = 200,
        hidden: int = 200,
        num_layers: int = 2,
        init_scale: float = 0.1,
    ) -> None:
        super().__init__()
        e_rng, l_rng, h_rng = spawn(rng, 3)
        self.vocab_size = vocab_size
        self.embedding = Embedding(vocab_size, embed_dim, e_rng, init_scale)
        self.lstm = LSTM(
            embed_dim,
            hidden,
            num_layers=num_layers,
            rng=l_rng,
            init_scale=init_scale,
        )
        self.head = Linear(hidden, vocab_size, h_rng, init_scale=init_scale)

    def forward(self, tokens: np.ndarray) -> Tensor:
        """Logits (T, B, vocab) for token windows (B, T)."""
        tokens = np.asarray(tokens, dtype=np.int64)
        x = self.embedding(tokens.T)  # (T, B, E)
        outputs, _ = self.lstm(x)
        return self.head(outputs)

    def loss(self, batch: tuple[np.ndarray, np.ndarray]) -> Tensor:
        """Per-token mean NLL — equal to log(perplexity) on this batch."""
        tokens, targets = batch
        logits = self.forward(tokens)
        return cross_entropy(logits, np.asarray(targets, dtype=np.int64).T)

    def evaluate(self, dataset: ArrayDataset, batch_size: int = 64) -> dict[str, float]:
        """Held-out perplexity (token-weighted)."""
        self.eval()
        total_nll = 0.0
        total_tokens = 0
        with no_grad():
            for start in range(0, len(dataset), batch_size):
                xs = dataset.inputs[start : start + batch_size]
                ys = dataset.targets[start : start + batch_size]
                nll = float(self.loss((xs, ys)).data)
                n_tok = xs.size
                total_nll += nll * n_tok
                total_tokens += n_tok
        self.train()
        mean_nll = total_nll / total_tokens
        return {"perplexity": math.exp(min(mean_nll, 50.0)), "nll": mean_nll}
