"""Distributed telemetry: metric deltas across processes + a health monitor.

Two halves, both built on the primitives in :mod:`repro.obs.metrics`:

**The child channel** — a child process that cannot share its parent's
registry (a :class:`~repro.parallel.mp.MultiprocessCluster` worker, a
serving replica) records into the registry and tracer of its own
:class:`ChildTelemetry` and ships the difference since its last shipment
over whatever response channel it already has.  The payload is
``{"pid", "metrics", "trace"}``: a :class:`DeltaExporter` export
(counters as increments, gauges as current values, histograms as
per-bucket count increments, with a monotonically increasing ``seq``)
and the spans recorded since the previous ship.  The parent hands each
payload to :func:`absorb_child`, which merges the metrics into the
active registry under a per-child label — ``(child, pid, seq)`` makes a
re-delivered delta a no-op — and the spans into its tracer as one lane
per child process.

**Health monitoring** — :class:`HealthMonitor` evaluates a set of rules
against the time series produced by
:meth:`~repro.obs.metrics.MetricsRegistry.sample`.  Rules see *derived*
per-interval scalars, not raw snapshots: a gauge contributes its value, a
counter its increment since the previous sample, a histogram the mean of
the observations that arrived in the interval.  Fired rules become
structured :class:`HealthEvent` records for the run report; the serving
loop also counts its critical events as alarms (the shed-rate alarm).
The trainers only record events: a non-finite loss, not the monitor, is
what triggers their fault policy.

The stock rule sets (:func:`default_training_rules`,
:func:`default_serving_rules`) watch exactly the signals the paper's
large-batch regime lives on: non-finite loss, grad-norm spikes,
trust-ratio collapse (the LARS λ of a layer whose gradient exploded),
per-worker straggler skew, and serving queue saturation / shedding.
"""

from __future__ import annotations

import fnmatch
import math
import os
from collections import deque
from dataclasses import dataclass
from typing import Iterable

from repro.obs.metrics import MetricsRegistry, get_active
from repro.obs.trace import Tracer

__all__ = [
    "ChildTelemetry",
    "absorb_child",
    "DeltaExporter",
    "HealthEvent",
    "HealthRule",
    "NonFiniteRule",
    "ThresholdRule",
    "SpikeRule",
    "HealthMonitor",
    "default_training_rules",
    "default_serving_rules",
]

#: Ordered severities, mildest first.
SEVERITIES = ("info", "warning", "critical")


# ---------------------------------------------------------------------------
# the child channel
# ---------------------------------------------------------------------------


class DeltaExporter:
    """Compute what changed in a registry since the previous export.

    Each :meth:`export` returns ``{"seq": n, "metrics": [snapshots]}``
    where the snapshots are *increments*: counters carry the value gained
    since the last export, histograms the per-bucket/count/sum gains
    (min/max stay cumulative — min-of-mins merging makes that exact), and
    gauges their current value (they are last-write-wins anyway).
    Unchanged instruments are omitted, so a quiet interval ships almost
    nothing.  ``seq`` increases by one per export; the receiving
    registry's :meth:`~repro.obs.metrics.MetricsRegistry.merge` uses it
    to drop re-deliveries.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self.seq = 0
        self._prev: dict[str, dict] = {}

    def export(self) -> dict:
        self.seq += 1
        deltas: list[dict] = []
        for snap in self.registry.snapshot():
            prev = self._prev.get(snap["name"])
            delta = self._delta(snap, prev)
            if delta is not None:
                deltas.append(delta)
            self._prev[snap["name"]] = snap
        return {"seq": self.seq, "metrics": deltas}

    @staticmethod
    def _delta(snap: dict, prev: dict | None) -> dict | None:
        kind = snap["type"]
        if kind == "counter":
            gained = snap["value"] - (prev["value"] if prev else 0.0)
            if gained == 0.0:
                return None
            return {**snap, "value": gained}
        if kind == "gauge":
            if prev is not None:
                a, b = prev["value"], snap["value"]
                if a == b or (
                    isinstance(a, float) and isinstance(b, float)
                    and math.isnan(a) and math.isnan(b)
                ):
                    return None
            return dict(snap)
        if kind == "histogram":
            prev_count = prev["count"] if prev else 0
            if snap["count"] == prev_count:
                return None
            prev_buckets = prev["buckets"] if prev else None
            buckets = [
                [bound, count - (prev_buckets[i][1] if prev_buckets else 0)]
                for i, (bound, count) in enumerate(snap["buckets"])
            ]
            return {
                **snap,
                "count": snap["count"] - prev_count,
                "sum": snap["sum"] - (prev["sum"] if prev else 0.0),
                "buckets": buckets,
            }
        raise ValueError(f"unknown instrument type {kind!r}")


class ChildTelemetry:
    """A child process's own registry and tracer, shipped as deltas.

    The child records into :attr:`registry` and :attr:`tracer`; each
    :meth:`ship` returns the payload its parent passes to
    :func:`absorb_child`: ``{"pid": ..., "metrics": ..., "trace": ...}``,
    the metric delta and the spans recorded since the previous ship.
    """

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.tracer = Tracer()
        self._exporter = DeltaExporter(self.registry)
        self._trace_sent = 0

    def ship(self) -> dict:
        trace = self.tracer.dump(self._trace_sent)
        self._trace_sent += len(trace["events"])
        return {
            "pid": os.getpid(),
            "metrics": self._exporter.export(),
            "trace": trace,
        }


def absorb_child(
    payload: dict,
    *,
    namespace: str,
    child: str,
    lane: str,
    tracer: Tracer | None,
) -> None:
    """Fold one :meth:`ChildTelemetry.ship` payload into the parent's view.

    Metric deltas land in the active registry (if any) as
    ``<namespace>/<child>/<name>``; a name already under ``<namespace>/``
    loses that head first, so a replica's ``serve/requests`` becomes
    ``serve/r0/requests``.  The ``(child, pid, seq)`` key makes a
    re-delivered delta a no-op while letting a respawned child (new pid,
    ``seq`` restarting at 1) through.  Spans go into ``tracer`` (unless
    it is ``None``) re-rooted under ``<child>/``, in a Chrome-trace lane
    labelled ``lane``.
    """
    reg = get_active()
    if reg is not None:
        head = f"{namespace}/"
        delta = payload["metrics"]
        reg.merge(
            [
                {**snap, "name": snap["name"].removeprefix(head)}
                for snap in delta["metrics"]
            ],
            prefix=f"{head}{child}/",
            source=f"{child}:{payload['pid']}",
            seq=delta["seq"],
        )
    if tracer is not None and payload["trace"]["events"]:
        tracer.absorb(payload["trace"], prefix=child, process_name=lane)


# ---------------------------------------------------------------------------
# health events and rules
# ---------------------------------------------------------------------------


@dataclass
class HealthEvent:
    """One fired rule: what tripped, on which signal, how badly."""

    rule: str
    severity: str  # "info" | "warning" | "critical"
    instrument: str
    value: float
    message: str
    step: int | None = None
    t: float | None = None

    @property
    def critical(self) -> bool:
        return self.severity == "critical"


@dataclass
class HealthRule:
    """Base rule: a name pattern plus a severity.

    ``pattern`` is an ``fnmatch`` glob over instrument names
    (``trust_ratio/*``, ``parallel/w*/step_ms``); subclasses implement
    :meth:`check` over the derived per-interval scalar.  ``cooldown``
    suppresses re-fires of the same (rule, instrument) pair for that many
    subsequent samples — an alarm, not a siren.
    """

    name: str
    pattern: str
    severity: str = "warning"
    cooldown: int = 0

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"severity must be one of {SEVERITIES}, got {self.severity!r}"
            )

    def matches(self, instrument: str) -> bool:
        return fnmatch.fnmatchcase(instrument, self.pattern)

    def check(
        self, instrument: str, value: float, history: "deque[float]"
    ) -> str | None:
        """A message when the rule fires on ``value``, else ``None``.

        ``history`` holds prior derived values for the instrument (most
        recent last), *excluding* ``value`` itself.
        """
        raise NotImplementedError


@dataclass
class NonFiniteRule(HealthRule):
    """Fires when the derived value is NaN or infinite (diverged loss)."""

    severity: str = "critical"

    def check(self, instrument, value, history):
        if not math.isfinite(value):
            return f"{instrument} is non-finite ({value})"
        return None


@dataclass
class ThresholdRule(HealthRule):
    """Fires when the derived value crosses a static bound.

    ``above`` / ``below`` are exclusive bounds; set either or both.  A
    counter's derived value is its per-interval increment, so
    ``ThresholdRule("shed-alarm", "serve/shed", above=0)`` means "any
    shedding since the last sample".
    """

    above: float | None = None
    below: float | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.above is None and self.below is None:
            raise ValueError("ThresholdRule needs at least one of above/below")

    def check(self, instrument, value, history):
        if not math.isfinite(value):
            return None  # NonFiniteRule's jurisdiction
        if self.above is not None and value > self.above:
            return f"{instrument} = {value:.6g} above {self.above:.6g}"
        if self.below is not None and value < self.below:
            return f"{instrument} = {value:.6g} below {self.below:.6g}"
        return None


@dataclass
class SpikeRule(HealthRule):
    """Fires when the value jumps ``factor``x over its recent median.

    A derivative-style rule: the baseline is the median of the last
    ``window`` derived values (needing at least ``min_history`` of them),
    so a grad-norm spike or one worker's step time blowing past its own
    history trips it without any absolute calibration.
    """

    factor: float = 10.0
    window: int = 8
    min_history: int = 4

    def check(self, instrument, value, history):
        if not math.isfinite(value) or len(history) < self.min_history:
            return None
        recent = sorted(list(history)[-self.window:])
        baseline = recent[len(recent) // 2]
        if baseline > 0 and value > self.factor * baseline:
            return (
                f"{instrument} = {value:.6g} spiked {value / baseline:.1f}x "
                f"over its median {baseline:.6g}"
            )
        return None


# ---------------------------------------------------------------------------
# the monitor
# ---------------------------------------------------------------------------


class HealthMonitor:
    """Evaluate rules over successive registry samples.

    Feed it every record :meth:`MetricsRegistry.sample` returns::

        events = monitor.observe(registry.sample(step=i))
        if any(ev.critical for ev in events):
            ...rollback...

    The monitor keeps per-instrument derived-value history (bounded) for
    the derivative rules and accumulates every fired event in
    :attr:`events` (also bounded) for the run report.
    """

    def __init__(
        self,
        rules: Iterable[HealthRule],
        history: int = 64,
        max_events: int = 1024,
    ) -> None:
        self.rules = list(rules)
        self.events: deque[HealthEvent] = deque(maxlen=max_events)
        self._history_len = history
        self._history: dict[str, deque[float]] = {}
        self._prev: dict[str, dict] = {}
        self._samples_seen = 0
        self._last_fired: dict[tuple[str, str], int] = {}

    # -- derived per-interval scalars ---------------------------------------

    def _derive(self, snap: dict, prev: dict | None) -> float | None:
        kind = snap["type"]
        if kind == "gauge":
            return float(snap["value"])
        if kind == "counter":
            return float(snap["value"] - (prev["value"] if prev else 0.0))
        if kind == "histogram":
            dcount = snap["count"] - (prev["count"] if prev else 0)
            if dcount <= 0:
                return None  # nothing observed this interval
            dsum = snap["sum"] - (prev["sum"] if prev else 0.0)
            return float(dsum / dcount)
        return None

    # -- the evaluation pass -------------------------------------------------

    def observe(self, sample: dict) -> list[HealthEvent]:
        """Evaluate all rules against one sample; returns what fired."""
        self._samples_seen += 1
        fired: list[HealthEvent] = []
        for snap in sample["instruments"]:
            name = snap["name"]
            value = self._derive(snap, self._prev.get(name))
            self._prev[name] = snap
            if value is None:
                continue
            history = self._history.get(name)
            if history is None:
                history = self._history[name] = deque(
                    maxlen=self._history_len
                )
            for rule in self.rules:
                if not rule.matches(name):
                    continue
                key = (rule.name, name)
                last = self._last_fired.get(key)
                if (
                    last is not None
                    and self._samples_seen - last <= rule.cooldown
                ):
                    continue
                message = rule.check(name, value, history)
                if message is None:
                    continue
                self._last_fired[key] = self._samples_seen
                event = HealthEvent(
                    rule=rule.name,
                    severity=rule.severity,
                    instrument=name,
                    value=value,
                    message=message,
                    step=sample.get("step"),
                    t=sample.get("t"),
                )
                fired.append(event)
                self.events.append(event)
            history.append(value)
        return fired

    @property
    def critical_count(self) -> int:
        return sum(1 for ev in self.events if ev.critical)


# ---------------------------------------------------------------------------
# stock rule sets
# ---------------------------------------------------------------------------


def default_training_rules() -> list[HealthRule]:
    """The large-batch training watchlist (PAPER.md's failure modes)."""
    return [
        NonFiniteRule("nonfinite-loss", "train/loss", severity="critical"),
        SpikeRule(
            "grad-norm-spike", "train/grad_norm", severity="warning",
            factor=20.0, window=8,
        ),
        ThresholdRule(
            "trust-ratio-collapse", "trust_ratio/*", severity="warning",
            below=1e-5, cooldown=8,
        ),
        SpikeRule(
            "straggler-skew", "parallel/w*/step_ms", severity="warning",
            factor=5.0, window=8,
        ),
        NonFiniteRule(
            "worker-nonfinite-loss", "parallel/w*/loss", severity="warning",
        ),
    ]


def default_serving_rules(queue_capacity: int = 256) -> list[HealthRule]:
    """The serving watchlist: queue saturation, shed rate, engine errors."""
    return [
        ThresholdRule(
            "queue-saturation", "serve/queue_depth", severity="warning",
            above=0.9 * queue_capacity, cooldown=4,
        ),
        ThresholdRule(
            "shed-alarm", "serve/shed", severity="critical", above=0.0,
        ),
        ThresholdRule(
            "error-alarm", "serve/errors", severity="critical", above=0.0,
        ),
        SpikeRule(
            "latency-spike", "serve/latency_ms", severity="warning",
            factor=10.0, window=8,
        ),
    ]
