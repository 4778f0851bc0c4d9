"""Adadelta, the adaptive solver of Figure 9.

Adadelta is the second "no hyper-parameters to tune" baseline the paper
evaluates (Figure 9) before settling on Adam as the adaptive baseline.
"""

from __future__ import annotations

import numpy as np

from repro.optim.base import Optimizer
from repro.tensor.tensor import Tensor


class Adadelta(Optimizer):
    """Adadelta (Zeiler, 2012) — no learning rate needed (lr kept as an
    optional global multiplier, default 1.0, matching TF/PyTorch).

    Maintains EMAs of squared gradients and squared updates; the ratio of
    RMS values sets the per-coordinate step, so the method self-scales.
    """

    def __init__(
        self,
        params,
        lr: float = 1.0,
        rho: float = 0.95,
        eps: float = 1e-6,
        weight_decay: float = 0.0,
    ):
        super().__init__(params, lr, weight_decay)
        self.rho = rho
        self.eps = eps

    def _update(self, name: str, p: Tensor, grad: np.ndarray) -> np.ndarray:
        st = self._get_state(
            name, sq=np.zeros_like(p.data), du=np.zeros_like(p.data)
        )
        st["sq"] = self.rho * st["sq"] + (1.0 - self.rho) * grad * grad
        delta = grad * np.sqrt(st["du"] + self.eps) / np.sqrt(st["sq"] + self.eps)
        st["du"] = self.rho * st["du"] + (1.0 - self.rho) * delta * delta
        return self.lr * delta
