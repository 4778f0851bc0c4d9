"""A reverse-mode automatic-differentiation engine on NumPy arrays.

This package is the foundational substrate of the reproduction: the paper
trains LSTMs and ResNets with TensorFlow on TPUs; offline we rebuild the
differentiable-programming layer from scratch.  The design follows the
classic tape-free graph approach:

* :class:`Tensor` wraps a ``numpy.ndarray`` plus a ``grad`` slot and, for
  non-leaf tensors, a vector-Jacobian-product closure referencing its parent
  tensors.
* ``Tensor.backward()`` topologically sorts the graph and accumulates
  gradients — exact, broadcasting-aware reverse mode.
* All heavy math is delegated to vectorised NumPy (matmul, einsum, im2col),
  per the HPC guidance that Python-level loops are reserved for graph
  bookkeeping only.

Correctness of every op is established against central finite differences
by :func:`repro.tensor.gradcheck.gradcheck` in the test suite.

The hot paths (LSTM cell step and layer, softmax cross-entropy, SGD
updates) additionally have fused single-node kernels in
:mod:`repro.tensor.fused`.  They are the default; :func:`use_fused` (or
``REPRO_FUSED=0`` in the environment) switches globally to the reference
graphs, which ``tests/test_fused_parity.py`` property-tests them
against.

Emulated mixed precision (:mod:`repro.tensor.amp`) rounds op outputs to
the float16 grid inside :func:`autocast`; view ops are exempt, so a
reshape or slice keeps sharing its parent's buffer.

Importing the package sets glibc's allocator, once, to keep freed arrays
in the process heap (:mod:`repro.tensor.heap`); without it every training
step faults its buffers in again.  :data:`HEAP_POLICY_APPLIED` says
whether the setting took.
"""

from repro.tensor.heap import HEAP_POLICY_APPLIED

from repro.tensor.tensor import (
    Tensor,
    as_tensor,
    no_grad,
    is_grad_enabled,
    zeros,
    ones,
    full,
    randn,
    uniform,
    arange,
    concat,
    stack,
    where,
    maximum,
    minimum,
)
from repro.tensor.nnops import (
    softmax,
    log_softmax,
    cross_entropy,
    embedding_lookup,
)
from repro.tensor.conv import conv2d
from repro.tensor.fused import use_fused, fused_enabled, fused_kernels
from repro.tensor.amp import (
    use_amp,
    amp_enabled,
    mixed_precision,
    autocast,
    fp16_roundtrip,
    bf16_roundtrip,
    quantize_fp16_stochastic,
)
from repro.tensor.gradcheck import gradcheck, numeric_grad, GradcheckReport

__all__ = [
    "HEAP_POLICY_APPLIED",
    "Tensor",
    "as_tensor",
    "no_grad",
    "is_grad_enabled",
    "zeros",
    "ones",
    "full",
    "randn",
    "uniform",
    "arange",
    "concat",
    "stack",
    "where",
    "maximum",
    "minimum",
    "softmax",
    "log_softmax",
    "cross_entropy",
    "embedding_lookup",
    "conv2d",
    "use_fused",
    "fused_enabled",
    "fused_kernels",
    "use_amp",
    "amp_enabled",
    "mixed_precision",
    "autocast",
    "fp16_roundtrip",
    "bf16_roundtrip",
    "quantize_fp16_stochastic",
    "gradcheck",
    "numeric_grad",
    "GradcheckReport",
]
