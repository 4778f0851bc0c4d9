"""Optimizers: the solvers the paper's experiments train with.

SGD, Momentum, Adam, Adadelta (Figure 9), LAMB — and LARS (You, Gitman &
Ginsburg 2017), the layer-wise adaptive solver the paper pairs with LEGW
for PTB-large and ImageNet/ResNet-50.

All optimizers share the :class:`~repro.optim.base.Optimizer` interface:
the learning rate is a mutable attribute (``opt.lr``) that the trainer sets
from the schedule *every iteration* — the schedules, not the solvers, are
the paper's subject, so the division of labour is strict.
"""

from repro.optim.base import Optimizer
from repro.optim.sgd import SGD, Momentum
from repro.optim.adaptive import Adadelta
from repro.optim.adam import Adam
from repro.optim.lars import LARS
from repro.optim.lamb import LAMB
from repro.optim.loss_scaler import DynamicLossScaler
from repro.optim.clip import clip_grad_norm, global_grad_norm

SOLVERS = {
    "sgd": SGD,
    "momentum": Momentum,
    "adam": Adam,
    "adadelta": Adadelta,
    "lars": LARS,
    "lamb": LAMB,
}

__all__ = [
    "Optimizer",
    "SGD",
    "Momentum",
    "Adam",
    "Adadelta",
    "LARS",
    "LAMB",
    "DynamicLossScaler",
    "clip_grad_norm",
    "global_grad_norm",
    "SOLVERS",
]
