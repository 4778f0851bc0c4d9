"""Optimizer base class."""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.nn.module import Module
from repro.obs.metrics import TRUST_RATIO_BUCKETS, get_active
from repro.tensor.amp import fp16_roundtrip
from repro.tensor.tensor import Tensor


def _named_params(
    params: "Module | Sequence[tuple[str, Tensor]] | Sequence[Tensor]",
) -> list[tuple[str, Tensor]]:
    if isinstance(params, Module):
        return list(params.named_parameters())
    params = list(params)
    if params and isinstance(params[0], Tensor):
        return [(f"param{i}", p) for i, p in enumerate(params)]
    return list(params)  # type: ignore[return-value]


class Optimizer:
    """Common machinery: parameter registry, lr attribute, weight decay.

    Subclasses implement :meth:`_update` returning the step (to be
    subtracted) for one parameter.  Per-parameter state lives in
    ``self.state[name]`` dictionaries created lazily.

    ``weight_decay`` here is coupled L2 regularisation — the decay term is
    added to the gradient before any adaptive scaling, matching the
    implementations the paper compares (and what LARS's trust ratio
    expects).
    """

    def __init__(self, params, lr: float, weight_decay: float = 0.0) -> None:
        self.params = _named_params(params)
        if not self.params:
            raise ValueError("optimizer got an empty parameter list")
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)
        self.state: dict[str, dict[str, np.ndarray]] = {}
        # per-parameter scratch for fused in-place updates; deliberately
        # *outside* ``self.state`` so checkpoints never carry it
        self._scratch: dict[str, np.ndarray] = {}
        self.iteration = 0
        # layer-wise solvers (LARS/LAMB) deposit their λ per parameter here
        # while metrics are active; plain solvers apply no layer-wise
        # rescaling, i.e. λ = 1
        self._trust_ratios: dict[str, float] = {}
        # emulated-AMP master-weight mode (see use_master_weights)
        self._master_mode = False
        self._quantize = fp16_roundtrip

    def use_master_weights(self, enabled: bool = True, quantize=None) -> None:
        """Toggle fp16-storage / float64-master parameter mode.

        With the mode on, each parameter keeps a full-precision *master*
        copy in ``self.state[name]["master"]`` (so it rides the existing
        ``opt/<name>/<key>`` checkpoint flow unchanged).  Updates apply
        to the master; ``p.data`` is then refreshed with the master
        rounded to the storage grid (``quantize``, default
        :func:`repro.tensor.amp.fp16_roundtrip`).  Repeated tiny updates
        therefore accumulate in the master instead of vanishing under
        the storage format's rounding — the standard mixed-precision
        master-weight scheme.
        """
        self._master_mode = bool(enabled)
        if quantize is not None:
            self._quantize = quantize

    # -- main entry ---------------------------------------------------------

    def step(self, lr: float | None = None) -> None:
        """Apply one update using ``lr`` (or the stored ``self.lr``)."""
        if lr is not None:
            self.lr = float(lr)
        self.iteration += 1
        reg = get_active()
        for name, p in self.params:
            if p.grad is None:
                continue
            if self._master_mode:
                # master mode bypasses the fused in-place kernels: those
                # update p.data directly, which would round the update
                # through the storage grid before the master ever saw it
                st = self._get_state(name, master=p.data)
                master = st["master"]
                grad = np.asarray(p.grad, dtype=np.float64)
                if self.weight_decay != 0.0:
                    grad = grad + self.weight_decay * master
                master -= self._update(name, p, grad)
                p.data[...] = self._quantize(master)
            elif not self._fused_step(name, p, p.grad):
                grad = p.grad
                if self.weight_decay != 0.0:
                    grad = grad + self.weight_decay * p.data
                p.data -= self._update(name, p, grad)
            if reg is not None:
                lam = self._trust_ratios.get(name, 1.0)
                reg.gauge(f"trust_ratio/{name}").set(lam)
                reg.histogram("trust_ratio", TRUST_RATIO_BUCKETS).observe(lam)

    def zero_grad(self) -> None:
        for _, p in self.params:
            p.grad = None

    # -- subclass API ----------------------------------------------------------

    def _update(self, name: str, p: Tensor, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _fused_step(self, name: str, p: Tensor, grad: np.ndarray) -> bool:
        """Apply one parameter update in place; return ``True`` if handled.

        The default declines, keeping the allocate-and-subtract reference
        path.  The SGD family overrides this to run the fused in-place
        kernels from :mod:`repro.tensor.fused` when fusion is enabled;
        the update arithmetic (and therefore every checkpointed state
        array) is bit-identical on both paths.
        """
        return False

    def _get_scratch(self, name: str, p: Tensor) -> np.ndarray:
        buf = self._scratch.get(name)
        if buf is None:
            buf = self._scratch[name] = np.empty_like(p.data)
        return buf

    def _get_state(self, name: str, **arrays: np.ndarray) -> dict[str, np.ndarray]:
        # merge missing keys rather than create-all-or-nothing: master
        # weights seed state[name] before the solver's own arrays exist,
        # and a later _get_state(name, velocity=...) must still add them
        st = self.state.setdefault(name, {})
        for k, v in arrays.items():
            if k not in st:
                st[k] = v.copy()
        return st
