"""Fused neural-network primitives: softmax, cross-entropy, embedding.

These could all be composed from the arithmetic primitives in
:mod:`repro.tensor.tensor`, but fusing them buys two things that matter for
this reproduction:

* **numerical stability** — log-sum-exp shifting inside ``log_softmax`` and
  ``cross_entropy`` keeps large-batch, large-logit training (exactly the
  regime the paper probes) from overflowing; and
* **speed** — the LM and seq2seq losses dominate runtime, and a fused
  vjp is one vectorised expression instead of a chain of graph nodes.
"""

from __future__ import annotations

import numpy as np

from repro.tensor.tensor import Tensor, as_tensor


def _logsumexp(x: np.ndarray, axis: int) -> np.ndarray:
    m = x.max(axis=axis, keepdims=True)
    return m + np.log(np.exp(x - m).sum(axis=axis, keepdims=True))


def softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis`` with the standard ``y*(g - sum(g*y))`` vjp."""
    logits = as_tensor(logits)
    shifted = logits.data - logits.data.max(axis=axis, keepdims=True)
    expd = np.exp(shifted)
    probs = expd / expd.sum(axis=axis, keepdims=True)

    def vjp(g: np.ndarray):
        dot = (g * probs).sum(axis=axis, keepdims=True)
        return (probs * (g - dot),)

    return Tensor._make(probs, (logits,), vjp, "softmax")


def log_softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Log-softmax along ``axis``; vjp is ``g - softmax * sum(g)``."""
    logits = as_tensor(logits)
    out = logits.data - _logsumexp(logits.data, axis)
    probs = np.exp(out)

    def vjp(g: np.ndarray):
        return (g - probs * g.sum(axis=axis, keepdims=True),)

    return Tensor._make(out, (logits,), vjp, "log_softmax")


def cross_entropy(
    logits: Tensor,
    targets: np.ndarray,
    mask: np.ndarray | None = None,
    label_smoothing: float = 0.0,
) -> Tensor:
    """Mean softmax cross-entropy with integer targets.

    Parameters
    ----------
    logits:
        ``(..., num_classes)`` tensor.
    targets:
        Integer array broadcastable to ``logits.shape[:-1]``.
    mask:
        Optional 0/1 array of the same shape as ``targets``; masked-out
        positions (mask == 0) contribute neither loss nor gradient.  Used
        for padded sequence batches in the LM / seq2seq losses.
    label_smoothing:
        ε of standard label smoothing: the target distribution becomes
        ``(1-ε) * one_hot + ε / num_classes``.

    Returns a scalar tensor: the loss summed over unmasked positions and
    divided by the number of unmasked positions (i.e. a per-token mean,
    matching what TF's ``sparse_softmax_cross_entropy`` + mean does).

    When fused kernels are enabled (``repro.tensor.use_fused``) this
    dispatches to :func:`repro.tensor.fused.softmax_cross_entropy`, which
    computes the same loss with an in-place backward; the parity suite
    pins the two paths together.
    """
    from repro.tensor import fused

    if fused.fused_enabled():
        return fused.softmax_cross_entropy(
            logits, targets, mask=mask, label_smoothing=label_smoothing
        )
    logits = as_tensor(logits)
    targets = np.asarray(targets, dtype=np.int64)
    num_classes = logits.shape[-1]
    flat_logits = logits.data.reshape(-1, num_classes)
    flat_targets = targets.reshape(-1)
    if flat_targets.shape[0] != flat_logits.shape[0]:
        raise ValueError(
            f"targets shape {targets.shape} incompatible with logits "
            f"{logits.shape}"
        )
    if np.any(flat_targets < 0) or np.any(flat_targets >= num_classes):
        raise ValueError("target indices out of range")

    if mask is None:
        flat_mask = np.ones(flat_targets.shape[0], dtype=np.float64)
    else:
        flat_mask = np.asarray(mask, dtype=np.float64).reshape(-1)
        if flat_mask.shape[0] != flat_targets.shape[0]:
            raise ValueError("mask shape must match targets shape")
    denom = flat_mask.sum()
    if denom <= 0:
        raise ValueError("cross_entropy mask excludes every position")

    logp = flat_logits - _logsumexp(flat_logits, axis=1)
    rows = np.arange(flat_targets.shape[0])
    eps = float(label_smoothing)
    if eps == 0.0:
        per_pos = -logp[rows, flat_targets]
    else:
        nll_target = -logp[rows, flat_targets]
        nll_uniform = -logp.mean(axis=1)
        per_pos = (1.0 - eps) * nll_target + eps * nll_uniform
    loss = float((per_pos * flat_mask).sum() / denom)

    probs = np.exp(logp)

    def vjp(g: np.ndarray):
        # g is scalar
        target_dist = np.zeros_like(probs)
        target_dist[rows, flat_targets] = 1.0 - eps
        if eps != 0.0:
            target_dist += eps / num_classes
        grad = (probs - target_dist) * (flat_mask / denom)[:, None]
        return ((float(g) * grad).reshape(logits.shape),)

    return Tensor._make(np.asarray(loss), (logits,), vjp, "cross_entropy")


def embedding_lookup(table: Tensor, indices: np.ndarray) -> Tensor:
    """Row gather from an embedding ``table`` with scatter-add backward.

    ``indices`` may have any shape; the result has shape
    ``indices.shape + (embed_dim,)``.
    """
    table = as_tensor(table)
    indices = np.asarray(indices, dtype=np.int64)
    if np.any(indices < 0) or np.any(indices >= table.shape[0]):
        raise ValueError("embedding indices out of range")
    out_data = table.data[indices]

    def vjp(g: np.ndarray):
        grad = np.zeros_like(table.data)
        np.add.at(grad, indices.reshape(-1), g.reshape(-1, table.shape[1]))
        return (grad,)

    return Tensor._make(out_data, (table,), vjp, "embedding")
