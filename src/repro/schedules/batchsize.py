"""Dynamic batch-size schedules — the "don't decay the LR" extension.

The paper's related work (Smith, Kindermans & Le 2017; Devarakonda et
al.'s AdaBatch) replaces LR *decay* with batch *growth*: multiplying the
batch by ``1/gamma`` perturbs SGD's stationary noise the same way as
multiplying the LR by ``gamma``, but keeps step sizes large and hardware
increasingly well-utilised late in training.

:class:`GrowBatchSchedule` mirrors :class:`~repro.schedules.decay.MultiStepDecay`
on the batch axis: at each milestone epoch the batch grows by ``factor``
(capped by ``max_batch``), while the LR stays flat.  The extension bench
(`bench_extension_growbatch`) compares the two recipes head-to-head under
an equal epoch budget.
"""

from __future__ import annotations

from typing import Sequence


class GrowBatchSchedule:
    """Epoch-indexed batch-size schedule: grow at milestones, LR constant.

    Unlike LR schedules (pure functions of the iteration), batch schedules
    are a function of the *epoch* — the trainer rebuilds its loader when
    the value changes, and an epoch remains one pass over the data at
    whatever batch size is current.
    """

    def __init__(
        self,
        base_batch: int,
        milestones_epochs: Sequence[float],
        factor: float = 2.0,
        max_batch: int | None = None,
    ) -> None:
        if base_batch < 1:
            raise ValueError("base_batch must be >= 1")
        if factor <= 1.0:
            raise ValueError("growth factor must exceed 1")
        if sorted(milestones_epochs) != list(milestones_epochs):
            raise ValueError("milestones must be sorted ascending")
        if max_batch is not None and max_batch < base_batch:
            raise ValueError(
                f"max_batch ({max_batch}) must be >= base_batch "
                f"({base_batch}); a cap below the starting batch is a "
                "misconfiguration, not a schedule"
            )
        self.base_batch = int(base_batch)
        self.milestones = list(milestones_epochs)
        self.factor = float(factor)
        self.max_batch = max_batch

    def batch_at(self, epoch: float) -> int:
        passed = sum(1 for m in self.milestones if epoch >= m)
        batch = int(round(self.base_batch * self.factor**passed))
        if self.max_batch is not None:
            batch = min(batch, self.max_batch)
        return max(1, batch)

    def ladder(self, total_epochs: int) -> list[int]:
        """The batch size of every epoch in a run (for tests/plots)."""
        return [self.batch_at(e) for e in range(total_epochs)]

    def __repr__(self) -> str:
        return (
            f"GrowBatchSchedule(base={self.base_batch}, x{self.factor:g} at "
            f"epochs {self.milestones}, cap={self.max_batch})"
        )
