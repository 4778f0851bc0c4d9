"""Convolution and global pooling: gradchecks, shape law, independent references."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import signal

from repro.nn import GlobalAvgPool
from repro.tensor import Tensor, conv2d, gradcheck


def t(rng, *shape, scale=1.0):
    return Tensor(rng.standard_normal(shape) * scale, requires_grad=True)


class TestConvForward:
    def test_matches_scipy_single_channel(self, rng):
        x = rng.standard_normal((1, 1, 8, 8))
        w = rng.standard_normal((1, 1, 3, 3))
        out = conv2d(Tensor(x), Tensor(w)).data
        ref = signal.correlate2d(x[0, 0], w[0, 0], mode="valid")
        assert np.allclose(out[0, 0], ref)

    def test_matches_scipy_multi_channel(self, rng):
        x = rng.standard_normal((2, 3, 6, 6))
        w = rng.standard_normal((4, 3, 3, 3))
        out = conv2d(Tensor(x), Tensor(w)).data
        for n in range(2):
            for o in range(4):
                ref = sum(
                    signal.correlate2d(x[n, c], w[o, c], mode="valid")
                    for c in range(3)
                )
                assert np.allclose(out[n, o], ref)

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1)])
    def test_output_shape_law(self, rng, stride, padding):
        x = Tensor(rng.standard_normal((1, 2, 9, 9)))
        w = Tensor(rng.standard_normal((3, 2, 3, 3)))
        out = conv2d(x, w, stride=stride, padding=padding)
        expected = (9 + 2 * padding - 3) // stride + 1
        assert out.shape == (1, 3, expected, expected)

    def test_bias_broadcast(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 4, 4)))
        w = Tensor(np.zeros((2, 1, 3, 3)))
        b = Tensor(np.array([1.5, -2.0]))
        out = conv2d(x, w, b).data
        assert np.allclose(out[0, 0], 1.5) and np.allclose(out[0, 1], -2.0)

    def test_incompatible_channels_raise(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 4, 4)))
        w = Tensor(rng.standard_normal((1, 3, 3, 3)))
        with pytest.raises(ValueError):
            conv2d(x, w)

    def test_empty_output_raises(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 2, 2)))
        w = Tensor(rng.standard_normal((1, 1, 3, 3)))
        with pytest.raises(ValueError):
            conv2d(x, w)


class TestConvBackward:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1)])
    def test_gradcheck(self, rng, stride, padding):
        x = t(rng, 2, 2, 5, 5)
        w = t(rng, 3, 2, 3, 3, scale=0.5)
        b = t(rng, 3, scale=0.1)
        assert gradcheck(
            lambda x, w, b: (
                conv2d(x, w, b, stride=stride, padding=padding) ** 2
            ).sum(),
            [x, w, b],
            atol=1e-4,
        )

    def test_gradcheck_no_bias(self, rng):
        x = t(rng, 1, 1, 4, 4)
        w = t(rng, 2, 1, 2, 2)
        assert gradcheck(
            lambda x, w: conv2d(x, w).tanh().sum(), [x, w], atol=1e-5
        )


class TestPooling:
    def test_global_avg_pool_equals_mean(self, rng):
        x = rng.standard_normal((2, 3, 5, 5))
        out = GlobalAvgPool()(Tensor(x)).data
        assert np.allclose(out, x.mean(axis=(2, 3)))
