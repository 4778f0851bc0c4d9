"""Neural-network layers built on :mod:`repro.tensor`.

The layer zoo covers exactly what the paper's five applications need:

* ``Linear``/``Embedding`` — common glue;
* ``LSTMCell``/``LSTM`` — the recurrent core (multi-layer, optional
  bidirectional first layer and residual connections, as in GNMT);
* ``BahdanauAttention`` — the normalized ``gnmt_v2`` attention mechanism;
* ``Conv2d``/``BatchNorm2d``/``GlobalAvgPool`` via
  :mod:`repro.models.resnet` — the CNN side.

Losses are :func:`repro.tensor.cross_entropy`, which the models call
directly.
"""

from repro.nn.module import Module, ModuleList, Parameter
from repro.nn import init
from repro.nn.linear import Linear
from repro.nn.embedding import Embedding
from repro.nn.recurrent import LSTMCell, LSTM
from repro.nn.attention import BahdanauAttention
from repro.nn.convnet import Conv2d, BatchNorm2d, GlobalAvgPool

__all__ = [
    "Module",
    "ModuleList",
    "Parameter",
    "init",
    "Linear",
    "Embedding",
    "LSTMCell",
    "LSTM",
    "BahdanauAttention",
    "Conv2d",
    "BatchNorm2d",
    "GlobalAvgPool",
]
