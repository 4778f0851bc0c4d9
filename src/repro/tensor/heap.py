"""Keep freed NumPy buffers in the process heap (glibc only).

A training step allocates and frees the same few megabytes of gate,
state, matmul-output, gradient and optimizer arrays every step.  Under
glibc's defaults the freed memory goes back to the OS (the heap top is
trimmed past a threshold that tracks the largest array seen, and arrays
past the mmap threshold are unmapped outright), so the next step faults
every page in again.  Measured with ``getrusage`` on a 2-core VM
(glibc 2.36): 1,600-1,800 minor faults per MNIST-LSTM batch-128 step,
about 2.7 ms of system time in a 9.8 ms step, spent inside the numpy
calls where no span can see it; about 4,000 per step of the 2-worker
batch-256 run and 140-725 per PTB batch-20 step.

Two constants, set once when :mod:`repro.tensor` is imported, stop that
(either one alone pins the other at its 128 KiB default, and the faults
stay):

* ``M_MMAP_THRESHOLD`` = 32 MiB, glibc's 64-bit maximum: arrays below
  it come from the heap instead of a fresh ``mmap``;
* ``M_TRIM_THRESHOLD`` = 64 MiB: the heap top goes back to the OS only
  once more than that is free.  The largest per-step working set
  measured here is 15 MiB (the ``tracemalloc`` peak of an MNIST-LSTM
  batch-256 step).

So up to 64 MiB of freed memory stays with the process.  The arithmetic
is untouched.  Forked worker processes and serving replicas inherit the
setting; spawned ones re-import this module.  Where the C library has no
``mallopt`` (not glibc) nothing is set, and :data:`HEAP_POLICY_APPLIED`
is False.
"""

from __future__ import annotations

import ctypes

__all__ = ["HEAP_POLICY_APPLIED"]

# glibc's <malloc.h> parameter numbers
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

_MMAP_THRESHOLD_BYTES = 32 << 20  # glibc's 64-bit maximum
_TRIM_THRESHOLD_BYTES = 64 << 20  # 4x the largest step working set seen


def _keep_freed_buffers() -> bool:
    """Apply both thresholds; True when the C library took them."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # mallopt returns 1 on success.  The trim threshold alone would pin
    # the mmap threshold at 128 KiB, so it is set only once the mmap
    # threshold took (a 32-bit glibc rejects 32 MiB).
    return (
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES) == 1
        and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES) == 1
    )


#: whether the heap policy applied in this process (read-only)
HEAP_POLICY_APPLIED: bool = _keep_freed_buffers()
