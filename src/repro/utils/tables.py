"""Plain-text table rendering for experiment drivers.

Every bench target prints the same rows the paper reports; this module owns
the formatting so all tables in the reproduction look alike and are easy to
diff across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 1e-3:
            return f"{value:.3g}"
        return f"{value:.4g}"
    return str(value)


@dataclass
class Table:
    """An ASCII table with a title, matching the paper's table layout.

    >>> t = Table("Table 2", ["Batch Size", "Init LR", "BLEU"])
    >>> t.add_row([256, 0.0223, 22.7])
    >>> print(t.render())  # doctest: +SKIP
    """

    title: str
    columns: Sequence[str]
    rows: list[list[str]] = field(default_factory=list)

    def add_row(self, values: Iterable[Any]) -> None:
        row = [_fmt(v) for v in values]
        if len(row) != len(self.columns):
            raise ValueError(
                f"row has {len(row)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append(row)

    def render(self) -> str:
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        sep = "+".join("-" * (w + 2) for w in widths)
        lines = [self.title, sep]
        lines.append(" | ".join(c.ljust(w) for c, w in zip(self.columns, widths)))
        lines.append(sep)
        for row in self.rows:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
        lines.append(sep)
        return "\n".join(lines)

    def to_dicts(self) -> list[dict[str, str]]:
        """Rows as dictionaries keyed by column name (for tests)."""
        return [dict(zip(self.columns, row)) for row in self.rows]
