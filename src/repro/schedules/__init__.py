"""Learning-rate schedules — the paper's primary contribution lives here.

:class:`~repro.schedules.legw.LEGW` implements Linear-Epoch Gradual Warmup:
scale the batch by ``k`` ⇒ scale the peak LR by ``sqrt(k)`` (Sqrt Scaling,
Krizhevsky 2014) and the warmup length by ``k`` *epochs* — which, because
an epoch has ``k×`` fewer iterations at batch ``k·b``, keeps the warmup
*iteration* count constant (Table 2's "we set the warmup iterations as
200").

The rest of the package is the decay/warmup library the paper composes
with: multi-step decay (Figure 2.1), per-epoch exponential decay after a
hold (PTB-small), polynomial decay (Figure 2.2, PTB-large), plus the linear
and sqrt scaling rules used by the baselines of Figures 1 and 5.
"""

from repro.schedules.base import Schedule, ConstantLR
from repro.schedules.decay import (
    MultiStepDecay,
    ExponentialEpochDecay,
    PolynomialDecay,
)
from repro.schedules.warmup import GradualWarmup
from repro.schedules.scaling import sqrt_scaled_lr, linear_scaled_lr
from repro.schedules.legw import LEGW, legw_warmup_epochs, legw_peak_lr
from repro.schedules.batchsize import GrowBatchSchedule

__all__ = [
    "Schedule",
    "ConstantLR",
    "MultiStepDecay",
    "ExponentialEpochDecay",
    "PolynomialDecay",
    "GradualWarmup",
    "sqrt_scaled_lr",
    "linear_scaled_lr",
    "LEGW",
    "legw_warmup_epochs",
    "legw_peak_lr",
    "GrowBatchSchedule",
]
