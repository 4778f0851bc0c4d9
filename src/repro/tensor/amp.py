"""Emulated mixed-precision (AMP) support for the float64 engine.

The engine computes in float64 everywhere (see :mod:`repro.tensor.tensor`),
so "fp16 training" here is an *emulation*: values are rounded to the
float16 grid at op boundaries while still travelling in float64
containers.  That reproduces the numerics that matter — limited mantissa,
gradual underflow to zero below ~6e-8, overflow to inf above 65504 — on
top of the existing graph, fused-kernel, and checkpoint machinery, which
all keep working unchanged.

Three pieces live here:

* **Quantizers** — :func:`fp16_roundtrip` / :func:`bf16_roundtrip` round
  float64 arrays to the fp16/bf16 value grid (returning float64), and
  :func:`quantize_fp16_stochastic` produces real ``np.float16`` arrays
  with unbiased stochastic rounding (used by the wire-compression
  ablation in :mod:`repro.parallel.buckets`).

* **The global AMP switch** — mirrors the fused-kernel switch:
  ``REPRO_AMP=1`` in the environment, :func:`use_amp` to flip it at
  runtime, :func:`amp_enabled` to read it, and the
  :func:`mixed_precision` context manager for scoped tests.  The switch
  is the *default* for ``Trainer(amp=...)``; it does not by itself
  change any computation.

* **Autocast** — :func:`autocast` quantizes every op output produced
  inside the block to the fp16 grid (out of place; view ops are exempt
  so they remain views of their parents).  The training loop wraps only
  the *forward* pass in autocast: backward runs through the saved vjp
  closures in float64, which is exactly the "fp16 storage, wider math"
  split real tensor cores give you.  The exemption is the private
  ``view`` flag of ``Tensor._make``, set by reshape (when it does not
  copy), transpose, squeeze, expand_dims, swapaxes, basic indexing and
  the fused LSTM's output slices.
"""

from __future__ import annotations

import contextlib
import os

import numpy as np

__all__ = [
    "fp16_roundtrip",
    "bf16_roundtrip",
    "quantize_fp16_stochastic",
    "use_amp",
    "amp_enabled",
    "mixed_precision",
    "autocast",
    "autocast_active",
    "FP16_MAX",
]

# largest finite float16 value; anything beyond becomes inf on the grid
FP16_MAX = float(np.finfo(np.float16).max)


# --------------------------------------------------------------------------
# quantizers
# --------------------------------------------------------------------------


def fp16_roundtrip(x: np.ndarray) -> np.ndarray:
    """Round ``x`` to the float16 value grid, returned as float64.

    Round-to-nearest-even via NumPy's native cast.  Values above
    ``FP16_MAX`` become ``inf`` (the overflow the loss scaler exists to
    catch); magnitudes below the smallest subnormal flush to zero.
    """
    with np.errstate(over="ignore"):  # overflow→inf is the intended grid
        return (
            np.asarray(x, dtype=np.float64)
            .astype(np.float16)
            .astype(np.float64)
        )


def bf16_roundtrip(x: np.ndarray) -> np.ndarray:
    """Round ``x`` to the bfloat16 value grid, returned as float64.

    NumPy has no bfloat16 dtype, so the grid is built by truncating a
    float32 view to its top 16 bits with round-to-nearest-even on the
    dropped mantissa half — the same 8-bit exponent / 7-bit mantissa
    layout real bf16 hardware uses (fp32 range, ~2 decimal digits).
    """
    f32 = np.asarray(x, dtype=np.float32)
    bits = f32.view(np.uint32)
    # round-to-nearest-even: add 0x7FFF + lsb of the surviving half
    lsb = (bits >> 16) & np.uint32(1)
    rounded = bits + np.uint32(0x7FFF) + lsb
    out = (rounded & np.uint32(0xFFFF0000)).view(np.float32)
    # NaNs must stay NaNs (the rounding add can walk a NaN payload to inf)
    out = np.where(np.isnan(f32), f32, out)
    return out.astype(np.float64)


def quantize_fp16_stochastic(
    x: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Quantize to real ``np.float16`` with unbiased stochastic rounding.

    Each element rounds to one of its two neighbouring fp16 grid points
    with probability proportional to proximity, so ``E[q(x)] == x`` —
    the property that makes low-precision gradient accumulation unbiased
    (the wire-compression ablation measures what this buys vs plain
    round-to-nearest).  Non-finite values pass through unchanged.
    """
    x64 = np.asarray(x, dtype=np.float64)
    near = x64.astype(np.float16)
    near64 = near.astype(np.float64)
    # the neighbouring grid point on the far side of x from `near`
    direction = np.where(x64 > near64, np.float16(np.inf), np.float16(-np.inf))
    neigh = np.nextafter(near, direction)
    neigh64 = neigh.astype(np.float64)
    gap = neigh64 - near64
    with np.errstate(invalid="ignore", divide="ignore"):
        frac = np.where(gap != 0.0, (x64 - near64) / gap, 0.0)
    frac = np.where(np.isfinite(frac), frac, 0.0)
    take = rng.random(x64.shape) < frac
    out = np.where(take, neigh, near)
    # values already on the grid (or non-finite) keep their nearest cast
    return np.where(np.isfinite(x64), out, near).astype(np.float16)


# --------------------------------------------------------------------------
# the global AMP switch (mirrors REPRO_FUSED)
# --------------------------------------------------------------------------

_AMP_ENABLED = os.environ.get("REPRO_AMP", "").strip().lower() not in (
    "",
    "0",
    "false",
    "no",
)


def use_amp(enabled: bool = True) -> bool:
    """Set the process-wide AMP default; returns the previous value."""
    global _AMP_ENABLED
    previous = _AMP_ENABLED
    _AMP_ENABLED = bool(enabled)
    return previous


def amp_enabled() -> bool:
    """Whether mixed-precision training is the process-wide default."""
    return _AMP_ENABLED


@contextlib.contextmanager
def mixed_precision(enabled: bool = True):
    """Scoped override of the AMP default (tests, ablation sweeps)."""
    previous = use_amp(enabled)
    try:
        yield
    finally:
        use_amp(previous)


# --------------------------------------------------------------------------
# autocast: quantize op outputs to the fp16 grid
# --------------------------------------------------------------------------

_AUTOCAST = False


def autocast_active() -> bool:
    """Whether op outputs are currently being quantized to fp16."""
    return _AUTOCAST


@contextlib.contextmanager
def autocast(enabled: bool = True):
    """Quantize every op output created inside the block to the fp16 grid.

    Quantization is out of place (a fresh float64 array on the fp16
    grid), and view-producing ops (reshape/transpose/slice) are exempt
    so they keep sharing their parent's buffer.  Wrap the *forward* pass
    only — backward runs the saved vjp closures in float64.
    """
    global _AUTOCAST
    previous = _AUTOCAST
    _AUTOCAST = bool(enabled)
    try:
        yield
    finally:
        _AUTOCAST = previous
