"""SGD-family solvers: vanilla and heavy-ball momentum.

Both dispatch to the fused in-place update kernels in
:mod:`repro.tensor.fused` when ``repro.tensor.use_fused`` is on: the step
then writes parameters and momentum state through preallocated scratch
buffers and allocates nothing.  The fused arithmetic only reorders
commutative additions, so parameter/velocity trajectories — and therefore
checkpoints — are bit-identical to the reference ``_update`` path (the
parity suite asserts exact equality).
"""

from __future__ import annotations

import numpy as np

from repro.optim.base import Optimizer
from repro.tensor import fused
from repro.tensor.tensor import Tensor


class SGD(Optimizer):
    """Plain mini-batch SGD: ``w <- w - lr * g`` (Equation 4 of the paper)."""

    def _update(self, name: str, p: Tensor, grad: np.ndarray) -> np.ndarray:
        return self.lr * grad

    def _fused_step(self, name: str, p: Tensor, grad: np.ndarray) -> bool:
        if not fused.fused_enabled():
            return False
        fused.sgd_update(
            p.data, grad, self.lr, self.weight_decay, self._get_scratch(name, p)
        )
        return True


class Momentum(Optimizer):
    """Heavy-ball momentum, the paper's workhorse baseline (momentum=0.9).

    ``v <- m*v + g;  w <- w - lr * v`` — the TensorFlow ``MomentumOptimizer``
    form, where the learning rate multiplies the velocity at application
    time.  This matters for warmup: changing lr mid-flight immediately
    rescales the whole accumulated velocity, exactly the behaviour the
    original LEGW experiments had.
    """

    def __init__(self, params, lr: float, momentum: float = 0.9, weight_decay: float = 0.0):
        super().__init__(params, lr, weight_decay)
        self.momentum = float(momentum)

    def _update(self, name: str, p: Tensor, grad: np.ndarray) -> np.ndarray:
        st = self._get_state(name, v=np.zeros_like(p.data))
        st["v"] = self.momentum * st["v"] + grad
        return self.lr * st["v"]

    def _fused_step(self, name: str, p: Tensor, grad: np.ndarray) -> bool:
        if not fused.fused_enabled():
            return False
        st = self._get_state(name, v=np.zeros_like(p.data))
        fused.momentum_update(
            p.data, grad, st["v"], self.lr, self.momentum,
            self.weight_decay, self._get_scratch(name, p),
        )
        return True
