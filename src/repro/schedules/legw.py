"""LEGW — Linear-Epoch Gradual Warmup (Section 3, the paper's contribution).

Given a *baseline* configuration ``(base_lr, base_batch, base_warmup_epochs)``
tuned once at a convenient batch size, LEGW derives the schedule for any
other batch size ``b = k · base_batch`` with **zero additional tuning**:

* peak learning rate  ``η = base_lr · sqrt(k)``      (Sqrt Scaling rule);
* warmup length       ``E_w = base_warmup_epochs · k``  (linear in epochs).

Because an epoch at batch ``k·b₀`` contains ``k×`` fewer iterations, the
warmup *iteration* count is invariant under scaling — the fixed "200 warmup
iterations" of Table 2 is a corollary, not an extra rule.  The intuition
(Section 3 / Figure 3): bigger batches need bigger LRs, bigger LRs diverge
in the high-curvature early phase, and the curvature peak moves later
(linearly, in iterations... in epochs at fixed iteration cost) as batch
grows — so the warmup must stretch to cover it.

The class composes with any decay schedule from
:mod:`repro.schedules.decay` via a factory that receives the scaled peak
LR, matching Figure 2's multi-step and poly variants.
"""

from __future__ import annotations

import math
from typing import Callable

from repro.schedules.base import ConstantLR, Schedule
from repro.schedules.scaling import sqrt_scaled_lr
from repro.schedules.warmup import GradualWarmup

DecayFactory = Callable[[float], Schedule]


def legw_peak_lr(base_lr: float, base_batch: int, batch: int) -> float:
    """LEGW's peak LR at ``batch``: the Sqrt Scaling rule applied to base."""
    return sqrt_scaled_lr(base_lr, base_batch, batch)


def legw_warmup_epochs(
    base_warmup_epochs: float, base_batch: int, batch: int
) -> float:
    """LEGW's warmup length at ``batch``: linear in the batch ratio."""
    if base_batch <= 0 or batch <= 0:
        raise ValueError("batch sizes must be positive")
    return base_warmup_epochs * (batch / base_batch)


class LEGW(Schedule):
    """The full LEGW schedule for one (batch size, dataset, decay) choice.

    Parameters
    ----------
    base_lr, base_batch, base_warmup_epochs:
        The tuned baseline triple.  Tuning may equally be done at the
        *largest* batch and scaled down (Section 3.3) — the rules are
        exact inverses of each other.
    batch:
        The batch size this schedule instance will train with.
    steps_per_epoch:
        Iterations per epoch *at this batch size* (``ceil(n / batch)``).
    decay:
        ``None`` for a flat post-warmup LR (MNIST), or a factory mapping
        the scaled peak LR to a decay schedule (multi-step, exponential,
        poly — Figure 2 shows the first and last).

    Attributes ``peak_lr``, ``warmup_epochs`` and ``warmup_iterations`` are
    exposed for the tables (Tables 2 and 3 print exactly these columns).
    """

    def __init__(
        self,
        base_lr: float,
        base_batch: int,
        base_warmup_epochs: float,
        batch: int,
        steps_per_epoch: int,
        decay: DecayFactory | None = None,
    ) -> None:
        if steps_per_epoch <= 0:
            raise ValueError("steps_per_epoch must be positive")
        self.base_lr = float(base_lr)
        self.base_batch = int(base_batch)
        self.base_warmup_epochs = float(base_warmup_epochs)
        self.batch = int(batch)
        self.steps_per_epoch = int(steps_per_epoch)

        self.scale = batch / base_batch
        self.peak_lr = legw_peak_lr(base_lr, base_batch, batch)
        self.warmup_epochs = legw_warmup_epochs(
            base_warmup_epochs, base_batch, batch
        )
        self.warmup_iterations = int(round(self.warmup_epochs * steps_per_epoch))

        inner: Schedule = (
            ConstantLR(self.peak_lr) if decay is None else decay(self.peak_lr)
        )
        self._schedule = GradualWarmup(inner, self.warmup_iterations)

    def lr_at(self, iteration: int) -> float:
        return self._schedule.lr_at(iteration)

    def __repr__(self) -> str:
        return (
            f"LEGW(batch={self.batch}, peak_lr={self.peak_lr:.4g}, "
            f"warmup={self.warmup_epochs:.4g} epochs "
            f"= {self.warmup_iterations} iters)"
        )
