"""Training harness: trainer loop, evaluation metrics, grid tuner."""

from repro.train.metrics import (
    accuracy,
    top_k_accuracy,
    corpus_bleu,
    ngram_counts,
)
from repro.train.trainer import Trainer, TrainResult
from repro.train.resilience import RecoverySchedule, ResilientTrainer
from repro.train.tuner import GridTuner, TuningOutcome

__all__ = [
    "accuracy",
    "top_k_accuracy",
    "corpus_bleu",
    "ngram_counts",
    "Trainer",
    "TrainResult",
    "ResilientTrainer",
    "RecoverySchedule",
    "GridTuner",
    "TuningOutcome",
]
