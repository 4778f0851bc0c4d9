"""Deterministic, seeded fault injection for the training stack.

The paper's subject is surviving the unstable early phase of large-batch
training; the resilience layer exists to survive the *infrastructure*
failures that accompany it at scale.  Testing that layer requires faults
on demand, and reproducible ones — so every injection decision here is a
pure function of a seed and the coordinates of the event (step, shard,
attempt, iteration), never of wall-clock or global RNG state.  Two runs
with the same seed see byte-identical fault sequences; a retried shard
re-rolls with its attempt number, so bounded-retry recovery is testable
without flakiness.

Two injectors cover the fault model:

* :class:`FaultSpec` — worker-level faults for
  :class:`~repro.parallel.mp.MultiprocessCluster`: hard crashes
  (:class:`WorkerCrashError`), stragglers (sleep long enough to trip the
  per-shard timeout, or just to exercise slow-path tolerance), and
  NaN-poisoned gradients behind a finite loss (a worker fault the
  cluster retries);
* :class:`LossFaultInjector` — trainer-level NaN-poisoned losses, the
  divergence stand-in that drives
  :class:`~repro.train.resilience.ResilientTrainer`'s rollback path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FaultSpec",
    "LossFaultInjector",
    "WorkerCrashError",
    "WorkerFaultError",
]


class WorkerCrashError(RuntimeError):
    """A (simulated) hard worker crash while computing a shard."""


class WorkerFaultError(RuntimeError):
    """A shard failed every retry; the step cannot complete."""


@dataclass(frozen=True)
class FaultSpec:
    """Seeded worker-fault distribution for one cluster.

    The fault kind for a given ``(step, shard, attempt)`` is drawn from a
    generator seeded with exactly those coordinates, so injection is
    deterministic across runs and independent of scheduling order.  With
    ``first_attempt_only`` (the default) retries always succeed, which is
    the contract bounded-retry recovery needs to be testable; switch it
    off to exercise retry-budget exhaustion.
    """

    seed: int = 0
    crash_rate: float = 0.0
    straggle_rate: float = 0.0
    nan_rate: float = 0.0
    straggle_seconds: float = 0.02
    first_attempt_only: bool = True

    def __post_init__(self) -> None:
        rates = (self.crash_rate, self.straggle_rate, self.nan_rate)
        if any(r < 0 for r in rates) or sum(rates) > 1.0:
            raise ValueError("fault rates must be >= 0 and sum to <= 1")
        if self.straggle_seconds < 0:
            raise ValueError("straggle_seconds must be >= 0")

    def decide(self, step: int, shard: int, attempt: int = 0) -> str | None:
        """The fault for these coordinates: crash/straggle/nan or None."""
        if self.first_attempt_only and attempt > 0:
            return None
        u = np.random.default_rng(
            [self.seed, int(step), int(shard), int(attempt)]
        ).random()
        if u < self.crash_rate:
            return "crash"
        if u < self.crash_rate + self.straggle_rate:
            return "straggle"
        if u < self.crash_rate + self.straggle_rate + self.nan_rate:
            return "nan"
        return None

    def pre_compute(self, step: int, shard: int, attempt: int) -> str | None:
        """Apply pre-gradient faults inside a worker; returns the kind.

        Crashes raise immediately (the parent sees the pickled exception,
        or a timeout when the process died outright); stragglers sleep.
        ``"nan"`` is returned for the caller to poison its finished
        gradients with :meth:`poison`.
        """
        kind = self.decide(step, shard, attempt)
        if kind == "crash":
            raise WorkerCrashError(
                f"injected crash (step {step}, shard {shard}, attempt {attempt})"
            )
        if kind == "straggle":
            time.sleep(self.straggle_seconds)
        return kind

    @staticmethod
    def poison(grads: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """NaN-poison one gradient dict (in place), as a flaky reducer would."""
        for arr in grads.values():
            arr.fill(np.nan)
            break  # one poisoned tensor is enough to trip any finite gate
        return grads


class LossFaultInjector:
    """NaN-poison the training loss at seeded iterations, once each.

    ``rate`` is the per-iteration poisoning probability; each iteration's
    draw is seeded with ``(seed, iteration)`` so the fault schedule is a
    fixed property of the run.  An iteration fires at most once — after a
    divergence rollback replays it, the loss passes — which mirrors the
    transient faults (lost reductions, bad hosts) recovery is built for.
    ``max_faults`` optionally caps the total count (``max_faults=1`` is
    the acceptance demo's "one NaN-poisoned step").
    """

    def __init__(
        self, rate: float, seed: int = 0, max_faults: int | None = None
    ) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        if max_faults is not None and max_faults < 0:
            raise ValueError("max_faults must be >= 0")
        self.rate = float(rate)
        self.seed = int(seed)
        self.max_faults = max_faults
        self.fired: set[int] = set()

    def __call__(self, iteration: int, loss_val: float) -> float:
        if iteration in self.fired:
            return loss_val
        if self.max_faults is not None and len(self.fired) >= self.max_faults:
            return loss_val
        u = np.random.default_rng([self.seed, int(iteration)]).random()
        if u < self.rate:
            self.fired.add(iteration)
            return float("nan")
        return loss_val
