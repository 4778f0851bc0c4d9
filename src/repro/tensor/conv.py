"""2-D convolution and pooling via im2col/col2im.

The mini-ResNet used for the ImageNet/ResNet-50 substitution needs conv,
max-pool and average-pool.  Following the HPC guides, the inner loops are
expressed as one big matmul over an im2col patch matrix built with
``stride_tricks`` (a view, no copy on the forward extract), which keeps the
Python overhead at one graph node per layer.

Layout convention: NCHW (batch, channels, height, width), stride and padding
symmetric in both spatial dims — sufficient for the residual stacks here.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.tensor.tensor import Tensor, as_tensor


def _out_size(size: int, k: int, stride: int, pad: int) -> int:
    return (size + 2 * pad - k) // stride + 1


def _im2col(x: np.ndarray, k: int, stride: int, pad: int) -> np.ndarray:
    """Extract (N, C, k, k, H_out, W_out) patches from an NCHW array."""
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    windows = sliding_window_view(x, (k, k), axis=(2, 3))
    # windows: (N, C, H_out_full, W_out_full, k, k) -> stride
    windows = windows[:, :, ::stride, ::stride, :, :]
    # reorder to (N, C, k, k, H_out, W_out)
    return np.ascontiguousarray(windows.transpose(0, 1, 4, 5, 2, 3))


def _col2im(
    cols: np.ndarray,
    x_shape: tuple[int, ...],
    k: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Scatter-add patch gradients back to input layout (inverse of im2col)."""
    n, c, h, w = x_shape
    hp, wp = h + 2 * pad, w + 2 * pad
    out = np.zeros((n, c, hp, wp))
    h_out = _out_size(h, k, stride, pad)
    w_out = _out_size(w, k, stride, pad)
    for ki in range(k):
        for kj in range(k):
            out[:, :, ki : ki + stride * h_out : stride,
                kj : kj + stride * w_out : stride] += cols[:, :, ki, kj]
    if pad:
        out = out[:, :, pad:-pad, pad:-pad]
    return out


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """Cross-correlation of NCHW ``x`` with OIKK ``weight`` (+ optional bias).

    Shapes: ``x (N, C_in, H, W)``, ``weight (C_out, C_in, k, k)``, output
    ``(N, C_out, H_out, W_out)``.
    """
    x, weight = as_tensor(x), as_tensor(weight)
    n, c_in, h, w = x.shape
    c_out, c_in_w, k, k2 = weight.shape
    if c_in != c_in_w or k != k2:
        raise ValueError(
            f"weight shape {weight.shape} incompatible with input {x.shape}"
        )
    h_out = _out_size(h, k, stride, padding)
    w_out = _out_size(w, k, stride, padding)
    if h_out <= 0 or w_out <= 0:
        raise ValueError("convolution output would be empty")

    cols = _im2col(x.data, k, stride, padding)  # (N, C, k, k, Ho, Wo)
    cols_mat = cols.reshape(n, c_in * k * k, h_out * w_out)
    w_mat = weight.data.reshape(c_out, c_in * k * k)
    # (o, K) @ (n, K, P) -> (n, o, P): a broadcast batched GEMM.  Direct
    # matmul rather than einsum — einsum's Python-side path/parse machinery
    # costs more than these small contractions do.
    out = np.matmul(w_mat, cols_mat).reshape(n, c_out, h_out, w_out)
    if bias is not None:
        out = out + bias.data.reshape(1, c_out, 1, 1)

    parents: tuple[Tensor, ...] = (x, weight) if bias is None else (x, weight, bias)

    def vjp(g: np.ndarray):
        g_mat = g.reshape(n, c_out, h_out * w_out)
        # dW: per-sample g @ patchᵀ, then reduced over the batch
        dw = np.matmul(g_mat, cols_mat.transpose(0, 2, 1)).sum(axis=0)
        dw = dw.reshape(weight.shape)
        # dX: Wᵀ @ g scattered back through col2im
        dcols = np.matmul(w_mat.T, g_mat)
        dcols = dcols.reshape(n, c_in, k, k, h_out, w_out)
        dx = _col2im(dcols, x.shape, k, stride, padding)
        if bias is None:
            return (dx, dw)
        db = g.sum(axis=(0, 2, 3))
        return (dx, dw, db)

    return Tensor._make(out, parents, vjp, "conv2d")


def max_pool2d(x: Tensor, k: int, stride: int | None = None) -> Tensor:
    """Max pooling over non-overlapping (or strided) k×k windows."""
    x = as_tensor(x)
    stride = stride or k
    n, c, h, w = x.shape
    h_out = _out_size(h, k, stride, 0)
    w_out = _out_size(w, k, stride, 0)
    cols = _im2col(x.data, k, stride, 0)  # (N, C, k, k, Ho, Wo)
    flat = cols.reshape(n, c, k * k, h_out, w_out)
    arg = flat.argmax(axis=2)
    out = np.take_along_axis(flat, arg[:, :, None], axis=2)[:, :, 0]

    def vjp(g: np.ndarray):
        dflat = np.zeros_like(flat)
        np.put_along_axis(dflat, arg[:, :, None], g[:, :, None], axis=2)
        dcols = dflat.reshape(n, c, k, k, h_out, w_out)
        return (_col2im(dcols, x.shape, k, stride, 0),)

    return Tensor._make(out, (x,), vjp, "max_pool2d")


def avg_pool2d(x: Tensor, k: int, stride: int | None = None) -> Tensor:
    """Average pooling; with ``k == H`` acts as global average pooling."""
    x = as_tensor(x)
    stride = stride or k
    n, c, h, w = x.shape
    h_out = _out_size(h, k, stride, 0)
    w_out = _out_size(w, k, stride, 0)
    cols = _im2col(x.data, k, stride, 0)
    out = cols.mean(axis=(2, 3))

    def vjp(g: np.ndarray):
        dcols = np.broadcast_to(
            g[:, :, None, None] / (k * k), (n, c, k, k, h_out, w_out)
        ).copy()
        return (_col2im(dcols, x.shape, k, stride, 0),)

    return Tensor._make(out, (x,), vjp, "avg_pool2d")
