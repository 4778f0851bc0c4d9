"""Shared utilities: deterministic RNG handling, ASCII tables, run logging,
checkpoints."""

from repro.utils.rng import as_generator, spawn
from repro.utils.tables import Table
from repro.utils.log import RunLog
from repro.utils.checkpoint import (
    CheckpointCorruptError,
    CheckpointManager,
    load_checkpoint,
    read_checkpoint_extra,
    save_checkpoint,
)
from repro.utils.ascii_plot import line_chart, sparkline

__all__ = [
    "line_chart",
    "sparkline",
    "as_generator",
    "spawn",
    "Table",
    "RunLog",
    "save_checkpoint",
    "load_checkpoint",
    "read_checkpoint_extra",
    "CheckpointCorruptError",
    "CheckpointManager",
]
