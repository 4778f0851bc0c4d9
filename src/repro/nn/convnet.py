"""Convolutional building blocks: Conv2d, BatchNorm2d, global pooling.

These feed the mini-ResNet in :mod:`repro.models.resnet` that stands in for
ResNet-50 in the ImageNet experiments (Table 3, Figure 1).
"""

from __future__ import annotations

import numpy as np

from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.tensor.conv import conv2d
from repro.tensor.tensor import Tensor


class Conv2d(Module):
    """2-D convolution (NCHW), He-initialised for ReLU stacks."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        rng,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
    ) -> None:
        super().__init__()
        self.stride = stride
        self.padding = padding
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(init.he_normal(shape, rng))
        self.bias = Parameter(np.zeros(out_channels)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return conv2d(
            x, self.weight, self.bias, stride=self.stride, padding=self.padding
        )


class BatchNorm2d(Module):
    """Batch normalisation over (N, H, W) per channel.

    Training mode normalises with batch statistics and maintains running
    estimates (momentum EMA); eval mode uses the running estimates.  Batch
    statistics are themselves differentiated (the normalisation is built
    from primitive ops), which is essential: the interaction between batch
    size and BN noise is part of the large-batch story the paper studies.
    """

    def __init__(self, channels: int, momentum: float = 0.9, eps: float = 1e-5):
        super().__init__()
        self.eps = eps
        self.momentum = momentum
        self.gamma = Parameter(np.ones(channels))
        self.beta = Parameter(np.zeros(channels))
        self._buffer_running_mean = np.zeros(channels)
        self._buffer_running_var = np.ones(channels)

    def forward(self, x: Tensor) -> Tensor:
        c = x.shape[1]
        if self.training:
            mu = x.mean(axis=(0, 2, 3), keepdims=True)
            var = ((x - mu) * (x - mu)).mean(axis=(0, 2, 3), keepdims=True)
            m = self.momentum
            self._buffer_running_mean = (
                m * self._buffer_running_mean + (1 - m) * mu.data.reshape(c)
            )
            self._buffer_running_var = (
                m * self._buffer_running_var + (1 - m) * var.data.reshape(c)
            )
            x_hat = (x - mu) / (var + self.eps).sqrt()
        else:
            mu = Tensor(self._buffer_running_mean.reshape(1, c, 1, 1))
            var = Tensor(self._buffer_running_var.reshape(1, c, 1, 1))
            x_hat = (x - mu) / (var + self.eps).sqrt()
        return x_hat * self.gamma.reshape(1, c, 1, 1) + self.beta.reshape(1, c, 1, 1)


class GlobalAvgPool(Module):
    """Average over all spatial positions: (N, C, H, W) -> (N, C)."""

    def forward(self, x: Tensor) -> Tensor:
        return x.mean(axis=(2, 3))
