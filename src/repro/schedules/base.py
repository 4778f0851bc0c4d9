"""Schedule protocol.

A schedule is a pure function from the 0-based *iteration* index to a
learning rate.  Keeping schedules pure (no internal counters) makes them
trivially plottable (Figure 2 evaluates them on a grid) and property-
testable, and lets the trainer own the single source of truth for the
iteration count.
"""

from __future__ import annotations


class Schedule:
    """Base class: subclasses implement :meth:`lr_at`."""

    def lr_at(self, iteration: int) -> float:
        raise NotImplementedError

    def __call__(self, iteration: int) -> float:
        if iteration < 0:
            raise ValueError(f"iteration must be >= 0, got {iteration}")
        return float(self.lr_at(int(iteration)))


class ConstantLR(Schedule):
    """A flat learning rate (the MNIST baseline's schedule)."""

    def __init__(self, lr: float) -> None:
        if lr < 0:
            raise ValueError("learning rate must be non-negative")
        self.lr = float(lr)

    def lr_at(self, iteration: int) -> float:
        return self.lr

    def __repr__(self) -> str:
        return f"ConstantLR({self.lr})"
