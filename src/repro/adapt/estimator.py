"""Online gradient noise-scale estimation — the sensor of the adaptive loop.

The offline :func:`repro.analysis.estimate_noise_scale` freezes the model
and spends ``2 * n_pairs`` probe backwards to measure

    B_noise = tr(Σ) / ‖G‖²

at one point in training.  The adaptive-batch loop needs the same
statistic *continuously* and nearly for free, so this module reuses the
identical two-batch elimination on whatever gradient pairs training
already produces:

* **data-parallel**: every all-reduce step materialises ``p`` per-shard
  gradients (small batches) *and* their average (the big batch) — a
  :class:`~repro.parallel.cluster.NoiseTap` harvested from
  ``SimCluster``/``MultiprocessCluster`` feeds the elimination at zero
  extra backward passes;
* **serial**: a paired micro-batch probe (two independent batches of
  sizes ``b_small < b_big``) every ``noise_every`` iterations, through
  the grad-preserving :func:`repro.analysis.noise_scale._grad_sq_norm`.

Because single-step estimates of ``tr(Σ)`` and ``‖G‖²`` are individually
noisy (and their *ratio* is biased), the estimator EMA-smooths numerator
and denominator separately — the convention of the noise-scale
measurement literature — and only reports a ratio once ``min_updates``
samples have landed.  Gauges ``adapt/noise_scale``, ``adapt/trace_sigma``
and ``adapt/grad_sq_norm`` expose the smoothed values to the metrics
registry.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from repro.analysis.noise_scale import _grad_sq_norm, two_batch_elimination
from repro.parallel.cluster import NoiseTap

_EPS = 1e-12


class OnlineNoiseScale:
    """EMA-smoothed gradient noise scale, updated while training runs.

    Parameters
    ----------
    beta:
        EMA decay per update for the ``tr(Σ)`` and ``‖G‖²`` streams
        (bias-corrected, Adam-style, so early reads are not damped
        toward zero).
    min_updates:
        Updates required before :meth:`ready` — one pair is far too
        noisy to steer a controller.
    """

    def __init__(self, beta: float = 0.8, min_updates: int = 3) -> None:
        if not 0.0 < beta < 1.0:
            raise ValueError("beta must be in (0, 1)")
        if min_updates < 1:
            raise ValueError("min_updates must be >= 1")
        self.beta = float(beta)
        self.min_updates = int(min_updates)
        self._ema_trace = 0.0
        self._ema_gsq = 0.0
        self.updates = 0

    # -- update paths -------------------------------------------------------

    def _fold(self, trace_sigma: float, g_sq: float) -> None:
        if not (math.isfinite(trace_sigma) and math.isfinite(g_sq)):
            return  # a non-finite probe (diverging model) must not poison the EMA
        b = self.beta
        self._ema_trace = b * self._ema_trace + (1.0 - b) * trace_sigma
        self._ema_gsq = b * self._ema_gsq + (1.0 - b) * g_sq
        self.updates += 1

    def update_pair(
        self, small_sq: float, b_small: float, big_sq: float, b_big: float
    ) -> None:
        """Fold one (small, big) squared-norm observation into the EMA."""
        self._fold(*two_batch_elimination(small_sq, b_small, big_sq, b_big))

    def update_from_tap(self, tap: NoiseTap | None) -> bool:
        """Harvest a data-parallel step's shard gradients; True if used."""
        if tap is None or not tap.usable():
            return False
        self.update_pair(
            tap.small_sq_norm, tap.small_size, tap.big_sq_norm, tap.big_size
        )
        return True

    def update_from_probes(
        self,
        loss_fn: Callable[[object], object],
        make_batch: Callable[[int, np.random.Generator], object],
        params: Sequence[object],
        b_small: int,
        b_big: int,
        gen: np.random.Generator,
        n_pairs: int = 1,
    ) -> None:
        """Serial fallback: paired micro-batch probes at the current point.

        Uses the grad-preserving probe backward, so calling this between
        a training step's ``backward()`` and ``step()`` — or anywhere
        else — never contaminates the training gradients.
        """
        for _ in range(max(1, n_pairs)):
            small_sq = _grad_sq_norm(loss_fn, make_batch(b_small, gen), params)
            big_sq = _grad_sq_norm(loss_fn, make_batch(b_big, gen), params)
            self.update_pair(small_sq, b_small, big_sq, b_big)

    # -- readout ------------------------------------------------------------

    @property
    def ready(self) -> bool:
        return self.updates >= self.min_updates

    def _corrected(self, ema: float) -> float:
        if self.updates == 0:
            return 0.0
        return ema / (1.0 - self.beta**self.updates)

    @property
    def trace_sigma(self) -> float:
        return max(0.0, self._corrected(self._ema_trace))

    @property
    def grad_sq_norm(self) -> float:
        return max(_EPS, self._corrected(self._ema_gsq))

    @property
    def noise_scale(self) -> float:
        return self.trace_sigma / self.grad_sq_norm

    def critical_batch(self) -> float:
        """The batch size where gradient noise and signal balance."""
        return self.noise_scale

    def observe(self, registry) -> None:
        """Publish the smoothed statistics as ``adapt/*`` gauges."""
        if registry is None:
            return
        registry.gauge("adapt/noise_scale").set(self.noise_scale)
        registry.gauge("adapt/trace_sigma").set(self.trace_sigma)
        registry.gauge("adapt/grad_sq_norm").set(self.grad_sq_norm)

    # -- checkpoint coverage -------------------------------------------------

    def state_dict(self) -> dict[str, float]:
        return {
            "beta": self.beta,
            "min_updates": float(self.min_updates),
            "ema_trace": self._ema_trace,
            "ema_gsq": self._ema_gsq,
            "updates": float(self.updates),
        }

    def load_state_dict(self, state: dict[str, float]) -> None:
        self.beta = float(state["beta"])
        self.min_updates = int(state["min_updates"])
        self._ema_trace = float(state["ema_trace"])
        self._ema_gsq = float(state["ema_gsq"])
        self.updates = int(state["updates"])

    def __repr__(self) -> str:
        return (
            f"OnlineNoiseScale(B_noise={self.noise_scale:.3g}, "
            f"updates={self.updates}, beta={self.beta:g})"
        )


def probe_batch_fn(train_iter) -> Callable[[int, np.random.Generator], object]:
    """A ``make_batch(size, gen)`` sampler over a training iterator's data.

    Works for both library iterators: :class:`~repro.data.loader.
    BatchIterator` (indexable ``ArrayDataset``) and
    :class:`~repro.data.loader.PaddedBatchIterator` (pair list +
    ``collate``).  Probe draws are i.i.d. with replacement, matching the
    offline estimator's convention, and never touch the iterator's own
    shuffling RNG — bit-exact training resume stays intact.
    """
    dataset = getattr(train_iter, "dataset", None)
    if dataset is not None:

        def make_batch(size: int, gen: np.random.Generator):
            idx = gen.integers(0, len(dataset), size)
            return dataset.inputs[idx], dataset.targets[idx]

        return make_batch
    pairs = getattr(train_iter, "pairs", None)
    if pairs is not None:

        def make_batch(size: int, gen: np.random.Generator):
            idx = gen.integers(0, len(pairs), size)
            return train_iter.collate([pairs[int(i)] for i in idx])

        return make_batch
    raise TypeError(
        f"cannot build a probe sampler from {type(train_iter).__name__}: "
        "expected a BatchIterator (.dataset) or PaddedBatchIterator (.pairs)"
    )
