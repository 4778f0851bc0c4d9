"""Gradient noise scale — the statistic behind batch-size scaling rules.

The Sqrt Scaling rule the paper builds LEGW on comes from keeping the
*variance of the gradient estimator* constant as batch grows; the
measurement-study literature the paper cites (Shallue et al. 2018)
formalises the useful summary as the **gradient noise scale**

    B_noise = tr(Σ) / ||G||²

where ``G`` is the true (full-data) gradient and ``Σ`` the per-example
gradient covariance.  Batches well below ``B_noise`` are noise-dominated
(linear speedup territory); batches above it waste data on redundant
averaging — exactly the crossover the paper's batch ladders probe.

The estimator here is the standard two-batch method: for two independent
mini-batches of sizes ``b_small < b_big`` with gradients ``g_s, g_b``,

    E||g_b||² = ||G||² + tr(Σ)/b_big       (and likewise for b_small)

gives unbiased estimates of ``||G||²`` and ``tr(Σ)`` by elimination:

    tr_sigma = (||g_s||² − ||g_b||²) / (1/b_small − 1/b_big)
    g_sq     = (b_big·||g_b||² − b_small·||g_s||²) / (b_big − b_small)

Averaging over several batch pairs stabilises both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.tensor.tensor import Tensor
from repro.utils.rng import as_generator


def _grad_sq_norm(
    loss_fn: Callable[[object], Tensor], batch, params: Sequence[Tensor]
) -> float:
    """Squared gradient norm of one probe batch, leaving ``p.grad`` as found.

    The estimator runs *between* training steps (the online adaptive-batch
    loop calls it mid-run), so any gradients already accumulated on the
    parameters are saved before the probe backward and restored after —
    a probe must never contaminate the next training ``backward()``.
    """
    saved = [p.grad for p in params]
    try:
        for p in params:
            p.grad = None
        loss_fn(batch).backward()
        total = 0.0
        for p in params:
            if p.grad is not None:
                total += float((p.grad * p.grad).sum())
        return total
    finally:
        for p, g in zip(params, saved):
            p.grad = g


def two_batch_elimination(
    small_sq: float, b_small: float, big_sq: float, b_big: float
) -> tuple[float, float]:
    """Unbiased ``(tr(Σ), ‖G‖²)`` from one (small, big) squared-norm pair.

    The one copy of the algebra above: :func:`estimate_noise_scale` and
    the online estimator (:class:`repro.adapt.OnlineNoiseScale`) both
    call it.  The raw values are *not* clamped — the online EMA wants
    unbiased (occasionally negative) samples; each caller clamps where
    it reads.
    """
    if not 0 < b_small < b_big:
        raise ValueError("need 0 < b_small < b_big")
    inv_diff = 1.0 / b_small - 1.0 / b_big
    trace_sigma = (small_sq - big_sq) / inv_diff
    g_sq = (b_big * big_sq - b_small * small_sq) / (b_big - b_small)
    return trace_sigma, g_sq


@dataclass
class NoiseScaleEstimate:
    """Output of :func:`estimate_noise_scale`."""

    noise_scale: float
    grad_sq_norm: float
    trace_sigma: float
    n_pairs: int

    def critical_batch(self) -> float:
        """Alias: the batch size where noise and signal balance."""
        return self.noise_scale


def estimate_noise_scale(
    loss_fn: Callable[[object], Tensor],
    make_batch: Callable[[int, np.random.Generator], object],
    params: Sequence[Tensor],
    b_small: int,
    b_big: int,
    rng,
    n_pairs: int = 8,
) -> NoiseScaleEstimate:
    """Estimate the gradient noise scale at the current parameters.

    Parameters
    ----------
    loss_fn:
        Mean loss over a batch (the library convention).
    make_batch:
        ``make_batch(size, generator) -> batch`` drawing an i.i.d.
        mini-batch of the requested size.
    b_small, b_big:
        The two probe batch sizes (``b_small < b_big``; a 1:8 or wider
        ratio keeps the elimination well-conditioned).
    n_pairs:
        Number of independent (small, big) probe pairs averaged.
    """
    if not 0 < b_small < b_big:
        raise ValueError("need 0 < b_small < b_big")
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    gen = as_generator(rng)
    small_sq = np.mean(
        [_grad_sq_norm(loss_fn, make_batch(b_small, gen), params) for _ in range(n_pairs)]
    )
    big_sq = np.mean(
        [_grad_sq_norm(loss_fn, make_batch(b_big, gen), params) for _ in range(n_pairs)]
    )
    trace_sigma, g_sq = two_batch_elimination(small_sq, b_small, big_sq, b_big)
    trace_sigma = max(0.0, trace_sigma)
    g_sq = max(1e-12, g_sq)
    return NoiseScaleEstimate(
        noise_scale=trace_sigma / g_sq,
        grad_sq_norm=g_sq,
        trace_sigma=trace_sigma,
        n_pairs=n_pairs,
    )
