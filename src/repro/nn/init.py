"""Weight initializers.

All take an explicit RNG (seed or Generator) and return plain NumPy arrays;
layers wrap them in :func:`repro.nn.module.Parameter`.  The schemes are the
ones the paper's reference code uses: Glorot/Xavier for dense & LSTM
kernels, He for ReLU convolutions, and unit-forget-gate bias for LSTMs.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import as_generator


def xavier_uniform(shape: tuple[int, ...], rng, gain: float = 1.0) -> np.ndarray:
    """Glorot uniform: U(-a, a) with a = gain * sqrt(6 / (fan_in + fan_out))."""
    gen = as_generator(rng)
    fan_in, fan_out = _fans(shape)
    a = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return gen.uniform(-a, a, shape)


def he_normal(shape: tuple[int, ...], rng) -> np.ndarray:
    """Kaiming/He normal for ReLU nets: N(0, 2 / fan_in)."""
    gen = as_generator(rng)
    fan_in, _ = _fans(shape)
    return gen.standard_normal(shape) * np.sqrt(2.0 / fan_in)


def uniform(shape: tuple[int, ...], rng, scale: float) -> np.ndarray:
    """U(-scale, scale) — the classic LSTM-LM initialisation from the PTB
    tutorial the paper cites (scale 0.1 small / 0.04 large)."""
    gen = as_generator(rng)
    return gen.uniform(-scale, scale, shape)


def _fans(shape: tuple[int, ...]) -> tuple[int, int]:
    if len(shape) == 1:
        return shape[0], shape[0]
    if len(shape) == 2:
        return shape[0], shape[1]
    # conv kernels (C_out, C_in, k, k): receptive field multiplies channel fans
    receptive = int(np.prod(shape[2:]))
    return shape[1] * receptive, shape[0] * receptive
