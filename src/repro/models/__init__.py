"""The paper's five applications (Table 1), scaled down per DESIGN.md.

| Paper model      | Here                                             |
|------------------|--------------------------------------------------|
| 1-layer LSTM / MNIST      | :class:`MnistLSTMClassifier`            |
| PTB-small / PTB-large LM  | :class:`PTBLanguageModel` (two presets) |
| GNMT seq2seq / WMT16      | :class:`GNMT`                           |
| ResNet50 / ImageNet       | :class:`MiniResNet`                     |

Every model exposes a ``loss(batch)`` closure for the trainer and an
``evaluate*`` method producing the paper's metric for that workload.
"""

from repro.models.mnist_lstm import MnistLSTMClassifier
from repro.models.ptb_lm import PTBLanguageModel
from repro.models.gnmt import GNMT
from repro.models.beam import beam_decode, beam_decode_sentence
from repro.models.resnet import MiniResNet, BasicBlock

__all__ = [
    "MnistLSTMClassifier",
    "PTBLanguageModel",
    "GNMT",
    "beam_decode",
    "beam_decode_sentence",
    "MiniResNet",
    "BasicBlock",
]
