"""Module system: parameter registration, traversal, train/eval mode.

Deliberately minimal but structurally faithful to the PyTorch conventions
the paper's reference implementations assume: parameters are discovered by
attribute walking, submodules nest arbitrarily, ``named_parameters`` yields
stable dotted names (the LARS optimizer keys its per-layer trust ratios on
them, and checkpoints round-trip through ``state_dict``).
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.tensor.tensor import Tensor


def Parameter(data) -> Tensor:
    """A trainable leaf tensor (sugar for ``Tensor(data, requires_grad=True)``)."""
    return Tensor(data, requires_grad=True)


class Module:
    """Base class for all layers and models.

    Subclasses assign :func:`Parameter` tensors and child ``Module`` s as
    attributes; discovery is automatic.  ``forward`` is the single abstract
    method; ``__call__`` dispatches to it.
    """

    def __init__(self) -> None:
        self.training: bool = True

    # -- traversal ----------------------------------------------------------

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        """Yield ``(dotted_name, parameter)`` pairs in deterministic order."""
        for name, value in vars(self).items():
            if name.startswith("_buffer_"):
                continue
            full = f"{prefix}{name}"
            if isinstance(value, Tensor) and value.requires_grad:
                yield full, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{full}.")

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        """Yield this module and all descendants (pre-order)."""
        yield self
        for value in vars(self).values():
            if isinstance(value, Module):
                yield from value.modules()

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    # -- gradient & mode management ------------------------------------------

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None

    def train(self, mode: bool = True) -> "Module":
        for m in self.modules():
            m.training = mode
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # -- (de)serialisation -----------------------------------------------------

    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of every parameter array keyed by dotted name."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load arrays produced by :meth:`state_dict` (strict matching)."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, arr in state.items():
            param = own[name]
            arr = np.asarray(arr, dtype=np.float64)
            if arr.shape != param.shape:
                raise ValueError(
                    f"shape mismatch for {name}: {arr.shape} vs {param.shape}"
                )
            param.data[...] = arr

    # -- call protocol ------------------------------------------------------------

    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class ModuleList(Module):
    """A list of submodules that participates in parameter traversal."""

    def __init__(self, modules: Iterable[Module] = ()) -> None:
        super().__init__()
        self._items: list[Module] = list(modules)

    def append(self, module: Module) -> None:
        self._items.append(module)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, i: int) -> Module:
        return self._items[i]

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        for i, module in enumerate(self._items):
            yield from module.named_parameters(prefix=f"{prefix}{i}.")

    def modules(self) -> Iterator[Module]:
        yield self
        for module in self._items:
            yield from module.modules()

    def forward(self, *args, **kwargs):  # pragma: no cover - containers don't forward
        raise RuntimeError("ModuleList is a container; call its items instead")
