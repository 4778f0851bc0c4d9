"""Finite-difference gradient validation.

``gradcheck`` is the ground truth for the entire engine: every op and layer
in the test suite is checked against central differences.  The paper's
Figure 3 analysis (:mod:`repro.analysis.lipschitz`) also builds on the same
perturb-and-diff machinery, so keeping it exact here does double duty.

``gradcheck`` returns a :class:`GradcheckReport` carrying the per-input
maximum absolute and relative errors (always truthy, so the historical
``assert gradcheck(...)`` idiom keeps working).  The fused-kernel parity
suite uses those numbers directly: each fused kernel's backward is
reported against an explicit relative tolerance rather than a
one-size-fits-all atol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.tensor.tensor import Tensor


def numeric_grad(
    fn: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    wrt: int,
    eps: float = 1e-6,
) -> np.ndarray:
    """Central-difference gradient of scalar ``fn(*inputs)`` w.r.t. one input.

    ``fn`` must return a scalar Tensor.  The input is perturbed in place and
    restored, so callers can reuse the same tensors for the analytic pass.
    """
    target = inputs[wrt]
    flat = target.data.reshape(-1)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = float(fn(*inputs).data)
        flat[i] = orig - eps
        f_minus = float(fn(*inputs).data)
        flat[i] = orig
        grad[i] = (f_plus - f_minus) / (2.0 * eps)
    return grad.reshape(target.shape)


@dataclass
class GradcheckReport:
    """Per-input error summary of one :func:`gradcheck` run.

    ``max_abs_err`` / ``max_rel_err`` map the index of each checked input
    (those with ``requires_grad``) to ``max |analytic - numeric|`` and to
    the same deviation divided by ``max(|numeric|, 1)`` respectively.
    ``noise_floor`` is the rounding noise of the central differences,
    ``eps_mach * |f| / eps``, which the check added to ``atol``.  Always
    truthy — a failed check raises instead of returning — so
    ``assert gradcheck(...)`` remains a valid idiom.
    """

    max_abs_err: dict[int, float] = field(default_factory=dict)
    max_rel_err: dict[int, float] = field(default_factory=dict)
    noise_floor: float = 0.0

    def __bool__(self) -> bool:  # report of a *passed* check
        return True

    @property
    def worst_abs(self) -> float:
        """The largest absolute error over all checked inputs (0 if none)."""
        return max(self.max_abs_err.values(), default=0.0)

    @property
    def worst_rel(self) -> float:
        """The largest relative error over all checked inputs (0 if none)."""
        return max(self.max_rel_err.values(), default=0.0)


def gradcheck(
    fn: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    eps: float = 1e-6,
    atol: float = 1e-6,
    rtol: float = 1e-4,
) -> GradcheckReport:
    """Check analytic gradients of scalar ``fn`` against finite differences.

    An input passes when
    ``|analytic - numeric| <= atol + noise_floor + rtol * |numeric|``
    elementwise (the ``np.allclose`` contract, with ``rtol`` scaling by the
    finite-difference magnitude).  ``noise_floor = eps_mach * |f| / eps``:
    each evaluation of ``f`` is rounded to about ``eps_mach * |f|``, and
    central differences divide two of them by ``2 * eps``, so on a large
    ``|f|`` (``x**16`` is 4e7 at ``x = 3``) a smaller deviation is noise
    of the oracle, not an error of the gradient.  Raises ``AssertionError``
    with a diagnostic naming the offending input on mismatch; otherwise
    returns a :class:`GradcheckReport` with each input's max
    absolute/relative error and the noise floor.
    """
    inputs = list(inputs)
    for t in inputs:
        t.zero_grad()
    out = fn(*inputs)
    if out.size != 1:
        raise ValueError("gradcheck requires a scalar-valued function")
    out.backward()
    noise_floor = float(np.finfo(np.float64).eps * abs(float(out.data)) / eps)
    report = GradcheckReport(noise_floor=noise_floor)
    for i, t in enumerate(inputs):
        if not t.requires_grad:
            continue
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        numeric = numeric_grad(fn, inputs, i, eps=eps)
        abs_err = np.abs(analytic - numeric)
        max_abs = float(abs_err.max()) if abs_err.size else 0.0
        scale = np.maximum(np.abs(numeric), 1.0)
        max_rel = float((abs_err / scale).max()) if abs_err.size else 0.0
        report.max_abs_err[i] = max_abs
        report.max_rel_err[i] = max_rel
        if not np.allclose(analytic, numeric, atol=atol + noise_floor, rtol=rtol):
            raise AssertionError(
                f"gradient mismatch on input {i}: max abs err {max_abs:.3e}, "
                f"max rel err {max_rel:.3e} (atol={atol:g}, rtol={rtol:g}, "
                f"noise floor={noise_floor:.3e})\n"
                f"analytic:\n{analytic}\nnumeric:\n{numeric}"
            )
    return report
