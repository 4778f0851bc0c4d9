"""Synthetic data substrates for the paper's five workloads.

Real MNIST/PTB/WMT'16/ImageNet are unavailable offline, so each dataset
here is a procedurally generated stand-in that preserves the input
geometry, task shape and metric of the original (see DESIGN.md §2 for the
substitution arguments).  Every generator is a pure function of its seed.
"""

from repro.data.dataset import ArrayDataset, train_test_split
from repro.data.loader import BatchIterator, PaddedBatchIterator, steps_per_epoch
from repro.data.vocab import Vocab, PAD, BOS, EOS
from repro.data.synthetic_mnist import make_sequential_mnist
from repro.data.synthetic_ptb import MarkovLanguageSource, make_ptb_corpus
from repro.data.synthetic_translation import TranslationTask, make_translation_dataset
from repro.data.synthetic_images import make_image_classification

__all__ = [
    "ArrayDataset",
    "train_test_split",
    "BatchIterator",
    "PaddedBatchIterator",
    "steps_per_epoch",
    "Vocab",
    "PAD",
    "BOS",
    "EOS",
    "make_sequential_mnist",
    "MarkovLanguageSource",
    "make_ptb_corpus",
    "TranslationTask",
    "make_translation_dataset",
    "make_image_classification",
]
