"""Experiment drivers — one module per table/figure of the paper.

Every driver exposes ``run(preset="smoke") -> dict`` returning the rows or
series the paper reports plus a pre-rendered ``text`` field, and all
drivers are registered in :data:`repro.experiments.registry.EXPERIMENTS`.
Presets control the scaled-down sizes: ``smoke`` (seconds, used by the
benchmark suite and CI), ``small`` (minutes, closer dynamic range).
"""

from repro.experiments.common import (
    TrainConfig,
    Workload,
    build_workload,
    mnist_workload,
    ptb_small_workload,
    ptb_large_workload,
    gnmt_workload,
    resnet_workload,
    score_of,
)
from repro.experiments.registry import EXPERIMENTS, run_experiment

__all__ = [
    "TrainConfig",
    "Workload",
    "build_workload",
    "mnist_workload",
    "ptb_small_workload",
    "ptb_large_workload",
    "gnmt_workload",
    "resnet_workload",
    "score_of",
    "EXPERIMENTS",
    "run_experiment",
]
