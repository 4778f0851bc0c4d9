"""Lightweight run logging.

The training loop records per-iteration and per-epoch scalars into a
:class:`RunLog`; experiment drivers then read series out of it to build the
paper's figures.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class RunLog:
    """Append-only store of named scalar series.

    Each series is a list of ``(step, value)`` pairs.  ``step`` is whatever
    granularity the producer chooses (iteration index, epoch index); mixing
    granularities across *different* series is fine and expected.
    """

    series: dict[str, list[tuple[int, float]]] = field(
        default_factory=lambda: defaultdict(list)
    )

    def record(self, name: str, step: int, value: float) -> None:
        self.series[name].append((int(step), float(value)))

    def steps(self, name: str) -> list[int]:
        return [s for s, _ in self.series.get(name, [])]

    def values(self, name: str) -> list[float]:
        return [v for _, v in self.series.get(name, [])]
