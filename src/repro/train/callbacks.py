"""Trainer callbacks: early stopping and best-metric tracking.

The bare :class:`~repro.train.trainer.Trainer` loop stays minimal (it is
the measured object in the paper's experiments, where nothing may
silently change the protocol); production conveniences hook in through
this callback interface instead.

A callback receives ``on_iteration(iteration, loss, lr)`` after every
optimizer step and ``on_epoch_end(epoch, metrics) -> bool`` after every
evaluation; returning ``True`` from ``on_epoch_end`` requests an early
stop (recorded in the result, never conflated with divergence).
``on_train_end(result)`` fires exactly once when the run finishes for any
reason — normal completion, early stop, or divergence.
"""

from __future__ import annotations

import math
from typing import Callable


class Callback:
    """Base class; default hooks do nothing."""

    def on_iteration(self, iteration: int, loss: float, lr: float) -> None:
        pass

    def on_epoch_end(self, epoch: int, metrics: dict[str, float]) -> bool:
        """Return True to request an early stop."""
        return False

    def on_train_end(self, result) -> None:
        """Called once when the run finishes (any exit path)."""


class BestMetric(Callback):
    """Track the best value of one eval metric across epochs."""

    def __init__(self, metric: str, mode: str = "max") -> None:
        if mode not in ("max", "min"):
            raise ValueError("mode must be 'max' or 'min'")
        self.metric = metric
        self.mode = mode
        self.best: float | None = None
        self.best_epoch: int | None = None

    def _improves(self, value: float) -> bool:
        if self.best is None:
            return True
        return value > self.best if self.mode == "max" else value < self.best

    def on_epoch_end(self, epoch: int, metrics: dict[str, float]) -> bool:
        value = metrics.get(self.metric)
        if value is not None and math.isfinite(value) and self._improves(value):
            self.best = float(value)
            self.best_epoch = epoch
        return False


class EarlyStopping(BestMetric):
    """Stop when the metric hasn't improved for ``patience`` epochs.

    ``min_delta`` sets the improvement threshold (mode-aware).
    """

    def __init__(
        self, metric: str, mode: str = "max", patience: int = 3,
        min_delta: float = 0.0,
    ) -> None:
        super().__init__(metric, mode)
        if patience < 1:
            raise ValueError("patience must be >= 1")
        self.patience = patience
        self.min_delta = float(min_delta)
        self.stale_epochs = 0
        self.stopped_epoch: int | None = None

    def _improves(self, value: float) -> bool:
        if self.best is None:
            return True
        if self.mode == "max":
            return value > self.best + self.min_delta
        return value < self.best - self.min_delta

    def on_epoch_end(self, epoch: int, metrics: dict[str, float]) -> bool:
        value = metrics.get(self.metric)
        if value is None or not math.isfinite(value):
            self.stale_epochs += 1
        elif self._improves(value):
            self.best = float(value)
            self.best_epoch = epoch
            self.stale_epochs = 0
        else:
            self.stale_epochs += 1
        if self.stale_epochs >= self.patience:
            self.stopped_epoch = epoch
            return True
        return False


class LambdaCallback(Callback):
    """Wrap plain functions as a callback."""

    def __init__(
        self,
        on_iteration: Callable[[int, float, float], None] | None = None,
        on_epoch_end: Callable[[int, dict[str, float]], bool] | None = None,
        on_train_end: Callable[[object], None] | None = None,
    ) -> None:
        self._on_iteration = on_iteration
        self._on_epoch_end = on_epoch_end
        self._on_train_end = on_train_end

    def on_iteration(self, iteration: int, loss: float, lr: float) -> None:
        if self._on_iteration is not None:
            self._on_iteration(iteration, loss, lr)

    def on_epoch_end(self, epoch: int, metrics: dict[str, float]) -> bool:
        if self._on_epoch_end is not None:
            return bool(self._on_epoch_end(epoch, metrics))
        return False

    def on_train_end(self, result) -> None:
        if self._on_train_end is not None:
            self._on_train_end(result)
