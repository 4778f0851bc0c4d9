"""Core reverse-mode autodiff: the :class:`Tensor` class and primitive ops.

Implementation notes
--------------------
* The graph is built eagerly: every primitive op returns a new ``Tensor``
  carrying ``_parents`` (the input tensors) and ``_vjp``, a closure that maps
  the upstream gradient array to one gradient array per parent (or ``None``
  for parents that do not require grad).
* Broadcasting is handled once, centrally, by :func:`unbroadcast`: forward
  passes lean on NumPy's native broadcasting, and each vjp reduces the
  upstream gradient back to the parent's shape by summing the broadcast
  axes.  This mirrors how JAX/PyTorch implement it and is the single most
  bug-prone part of a hand-rolled engine, hence the dedicated hypothesis
  test battery.
* Gradients are always dense ``float64`` arrays.  At the model sizes used in
  this reproduction (≤ a few million parameters) float64 keeps the
  finite-difference validation tight without a performance cliff.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.tensor import amp as _amp

# --------------------------------------------------------------------------
# global grad-mode switch
# --------------------------------------------------------------------------

_GRAD_ENABLED = True


def is_grad_enabled() -> bool:
    """Whether newly created ops will record the autodiff graph."""
    return _GRAD_ENABLED


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph construction (evaluation mode).

    Inside the block every op behaves like plain NumPy: outputs are leaf
    tensors with ``requires_grad=False``, so evaluation passes cost no graph
    bookkeeping and hold no references to activations.
    """
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


# --------------------------------------------------------------------------
# broadcasting helpers
# --------------------------------------------------------------------------


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` (shape of a broadcast result) back to ``shape``.

    Sums over axes that were added by broadcasting and over axes where the
    original dimension was 1 but the broadcast dimension is larger.
    """
    if grad.shape == shape:
        return grad
    # sum away leading axes NumPy prepended
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # sum axes that were stretched from 1
    squeeze_axes = tuple(
        i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1
    )
    if squeeze_axes:
        grad = grad.sum(axis=squeeze_axes, keepdims=True)
    return grad.reshape(shape)


def _asarray(value) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    return arr


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic on a plain array.

    Shared by :meth:`Tensor.sigmoid` and the fused LSTM kernel so both
    paths produce bit-identical forward values.
    """
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ez = np.exp(x[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


# --------------------------------------------------------------------------
# Tensor
# --------------------------------------------------------------------------


class Tensor:
    """A NumPy array with reverse-mode gradient tracking.

    Parameters
    ----------
    data:
        Anything ``np.asarray`` accepts; stored as ``float64``.
    requires_grad:
        Leaf flag.  Non-leaf tensors (op outputs) derive their flag from
        their parents and the global grad mode.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp", "_op")

    def __init__(self, data, requires_grad: bool = False):
        self.data: np.ndarray = _asarray(data)
        self.grad: np.ndarray | None = None
        self.requires_grad: bool = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None = None
        self._op: str = "leaf"

    # -- construction of op outputs ---------------------------------------

    @staticmethod
    def _make(
        data: np.ndarray,
        parents: tuple["Tensor", ...],
        vjp: Callable[[np.ndarray], Sequence[np.ndarray | None]],
        op: str,
        view: bool = False,
    ) -> "Tensor":
        if _amp._AUTOCAST and not view:
            # emulated fp16 storage: op outputs round to the float16 grid,
            # out of place; a ``view`` (``data`` is a NumPy view of a
            # parent's buffer) is exempt so it keeps sharing that buffer
            data = _amp.fp16_roundtrip(data)
        out = Tensor(data)
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._vjp = vjp
            out._op = op
        return out

    # -- basic introspection ----------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, threshold=8)}{grad_flag})"

    def item(self) -> float:
        return float(self.data)

    def numpy(self) -> np.ndarray:
        """The underlying array (not a copy — do not mutate in graph code)."""
        return self.data

    def detach(self) -> "Tensor":
        """A new leaf tensor sharing this tensor's data, outside the graph."""
        t = Tensor(self.data)
        return t

    def zero_grad(self) -> None:
        self.grad = None

    # -- backward ----------------------------------------------------------

    def backward(self, grad: np.ndarray | float | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        ``grad`` defaults to 1 for scalar outputs (the common loss case).
        Gradients accumulate into ``.grad`` of every reachable leaf with
        ``requires_grad=True``; intermediate gradients are discarded once
        consumed to bound peak memory.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError(
                    "backward() without an explicit gradient requires a scalar output"
                )
            grad = np.ones_like(self.data)
        else:
            grad = _asarray(grad)
            if grad.shape != self.data.shape:
                raise ValueError(
                    f"gradient shape {grad.shape} does not match tensor shape "
                    f"{self.data.shape}"
                )

        topo = self._topological_order()
        pending: dict[int, np.ndarray] = {id(self): grad}
        for node in topo:
            node_grad = pending.pop(id(node), None)
            if node_grad is None:
                continue
            if node._vjp is None:
                # leaf: accumulate into .grad
                if node.grad is None:
                    node.grad = node_grad.copy()
                else:
                    node.grad = node.grad + node_grad
                continue
            parent_grads = node._vjp(node_grad)
            for parent, pgrad in zip(node._parents, parent_grads):
                if pgrad is None or not parent.requires_grad:
                    continue
                key = id(parent)
                if key in pending:
                    pending[key] = pending[key] + pgrad
                else:
                    pending[key] = pgrad

    def _topological_order(self) -> list["Tensor"]:
        """Reverse topological order (self first) via iterative DFS."""
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))
        order.reverse()
        return order

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = as_tensor(other)
        a, b = self, other
        out = Tensor._make(
            a.data + b.data,
            (a, b),
            lambda g: (unbroadcast(g, a.shape), unbroadcast(g, b.shape)),
            "add",
        )
        return out

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        other = as_tensor(other)
        a, b = self, other
        return Tensor._make(
            a.data - b.data,
            (a, b),
            lambda g: (unbroadcast(g, a.shape), unbroadcast(-g, b.shape)),
            "sub",
        )

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other).__sub__(self)

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other)
        a, b = self, other
        return Tensor._make(
            a.data * b.data,
            (a, b),
            lambda g: (
                unbroadcast(g * b.data, a.shape),
                unbroadcast(g * a.data, b.shape),
            ),
            "mul",
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = as_tensor(other)
        a, b = self, other
        return Tensor._make(
            a.data / b.data,
            (a, b),
            lambda g: (
                unbroadcast(g / b.data, a.shape),
                unbroadcast(-g * a.data / (b.data * b.data), b.shape),
            ),
            "div",
        )

    def __rtruediv__(self, other) -> "Tensor":
        return as_tensor(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        a = self
        return Tensor._make(-a.data, (a,), lambda g: (-g,), "neg")

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("Tensor ** only supports scalar exponents")
        a = self
        p = float(exponent)
        return Tensor._make(
            a.data**p,
            (a,),
            lambda g: (g * p * a.data ** (p - 1),),
            "pow",
        )

    def __matmul__(self, other) -> "Tensor":
        return self.matmul(other)

    def matmul(self, other) -> "Tensor":
        """Matrix product supporting 1-D, 2-D and batched (≥3-D) operands.

        Gradients follow the standard rules ``dA = g @ B^T``, ``dB = A^T @ g``
        with batch axes summed back via :func:`unbroadcast` on the batch
        dimensions.
        """
        other = as_tensor(other)
        a, b = self, other
        out_data = a.data @ b.data

        def vjp(g: np.ndarray):
            ad, bd = a.data, b.data
            if ad.ndim == 1 and bd.ndim == 1:
                # inner product: g is scalar
                return (g * bd, g * ad)
            if ad.ndim == 1:
                # (k,) @ (..., k, n) -> (..., n)
                ga = (g[..., None, :] * bd).sum(axis=-1)
                ga = unbroadcast(ga, (ad.shape[0],))
                gb = ad[:, None] * g[..., None, :]
                return (ga, unbroadcast(gb, bd.shape))
            if bd.ndim == 1:
                # (..., m, k) @ (k,) -> (..., m)
                ga = g[..., :, None] * bd
                gb = (ad * g[..., :, None]).sum(axis=tuple(range(ad.ndim - 1)))
                return (unbroadcast(ga, ad.shape), unbroadcast(gb, bd.shape))
            ga = g @ np.swapaxes(bd, -1, -2)
            gb = np.swapaxes(ad, -1, -2) @ g
            return (unbroadcast(ga, ad.shape), unbroadcast(gb, bd.shape))

        return Tensor._make(out_data, (a, b), vjp, "matmul")

    # -- elementwise functions ----------------------------------------------

    def exp(self) -> "Tensor":
        a = self
        out_data = np.exp(a.data)
        return Tensor._make(out_data, (a,), lambda g: (g * out_data,), "exp")

    def log(self) -> "Tensor":
        a = self
        return Tensor._make(np.log(a.data), (a,), lambda g: (g / a.data,), "log")

    def sqrt(self) -> "Tensor":
        a = self
        out_data = np.sqrt(a.data)
        return Tensor._make(
            out_data, (a,), lambda g: (g * 0.5 / out_data,), "sqrt"
        )

    def tanh(self) -> "Tensor":
        a = self
        out_data = np.tanh(a.data)
        return Tensor._make(
            out_data, (a,), lambda g: (g * (1.0 - out_data * out_data),), "tanh"
        )

    def sigmoid(self) -> "Tensor":
        a = self
        out_data = stable_sigmoid(a.data)
        return Tensor._make(
            out_data,
            (a,),
            lambda g: (g * out_data * (1.0 - out_data),),
            "sigmoid",
        )

    def relu(self) -> "Tensor":
        a = self
        mask = a.data > 0
        return Tensor._make(
            np.where(mask, a.data, 0.0), (a,), lambda g: (g * mask,), "relu"
        )

    def abs(self) -> "Tensor":
        a = self
        return Tensor._make(
            np.abs(a.data), (a,), lambda g: (g * np.sign(a.data),), "abs"
        )

    def clip(self, low: float | None = None, high: float | None = None) -> "Tensor":
        """Clamp values; gradient is passed through only inside the window."""
        a = self
        out_data = np.clip(a.data, low, high)
        inside = np.ones_like(a.data, dtype=bool)
        if low is not None:
            inside &= a.data >= low
        if high is not None:
            inside &= a.data <= high
        return Tensor._make(out_data, (a,), lambda g: (g * inside,), "clip")

    # -- reductions -----------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self
        out_data = a.data.sum(axis=axis, keepdims=keepdims)

        def vjp(g: np.ndarray):
            if axis is not None:
                axes = axis if isinstance(axis, tuple) else (axis,)
                axes = tuple(ax % a.ndim for ax in axes)
                if not keepdims:
                    g = np.expand_dims(g, axes)
            return (np.broadcast_to(g, a.shape).copy(),)

        return Tensor._make(out_data, (a,), vjp, "sum")

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self
        out_data = a.data.mean(axis=axis, keepdims=keepdims)
        if axis is None:
            count = a.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = 1
            for ax in axes:
                count *= a.shape[ax % a.ndim]

        def vjp(g: np.ndarray):
            if axis is not None:
                axes = axis if isinstance(axis, tuple) else (axis,)
                axes = tuple(ax % a.ndim for ax in axes)
                if not keepdims:
                    g = np.expand_dims(g, axes)
            return (np.broadcast_to(g / count, a.shape).copy(),)

        return Tensor._make(out_data, (a,), vjp, "mean")

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Maximum reduction; ties split gradient equally (subgradient)."""
        a = self
        out_data = a.data.max(axis=axis, keepdims=keepdims)

        def vjp(g: np.ndarray):
            if axis is None:
                full_out = out_data
                gg = g
            else:
                axes = axis if isinstance(axis, tuple) else (axis,)
                axes = tuple(ax % a.ndim for ax in axes)
                if keepdims:
                    full_out, gg = out_data, g
                else:
                    full_out = np.expand_dims(out_data, axes)
                    gg = np.expand_dims(g, axes)
            mask = (a.data == full_out).astype(np.float64)
            mask /= mask.sum(
                axis=axis, keepdims=True
            ) if axis is not None else mask.sum()
            return (mask * gg,)

        return Tensor._make(out_data, (a,), vjp, "max")

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Minimum reduction; ties split gradient equally (subgradient)."""
        return -((-self).max(axis=axis, keepdims=keepdims))

    def argmax(self, axis=None) -> np.ndarray:
        """Index of the maximum (plain ndarray — argmax has no gradient)."""
        return self.data.argmax(axis=axis)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Population variance, built from differentiable primitives."""
        mu = self.mean(axis=axis, keepdims=True)
        centered = self - mu
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    def norm(self) -> "Tensor":
        """Frobenius / L2 norm as a scalar tensor."""
        return (self * self).sum().sqrt()

    # -- shape manipulation ----------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        out_data = a.data.reshape(shape)
        return Tensor._make(
            out_data,
            (a,),
            lambda g: (g.reshape(a.shape),),
            "reshape",
            # reshape of a non-contiguous buffer copies
            view=np.shares_memory(out_data, a.data),
        )

    def transpose(self, axes: tuple[int, ...] | None = None) -> "Tensor":
        a = self
        if axes is None:
            axes = tuple(reversed(range(a.ndim)))
        inverse = tuple(np.argsort(axes))
        return Tensor._make(
            a.data.transpose(axes),
            (a,),
            lambda g: (g.transpose(inverse),),
            "transpose",
            view=True,
        )

    def squeeze(self, axis: int) -> "Tensor":
        """Remove a size-1 axis."""
        if self.shape[axis] != 1:
            raise ValueError(
                f"cannot squeeze axis {axis} of size {self.shape[axis]}"
            )
        a = self
        return Tensor._make(
            np.squeeze(a.data, axis=axis),
            (a,),
            lambda g: (np.expand_dims(g, axis),),
            "squeeze",
            view=True,
        )

    def expand_dims(self, axis: int) -> "Tensor":
        """Insert a size-1 axis."""
        a = self
        return Tensor._make(
            np.expand_dims(a.data, axis),
            (a,),
            lambda g: (np.squeeze(g, axis=axis),),
            "expand_dims",
            view=True,
        )

    def split(self, sections: int, axis: int = 0) -> list["Tensor"]:
        """Split into ``sections`` equal parts along ``axis``.

        Each part is an independent graph node; gradients flow back to the
        corresponding slice of the parent (via the slicing backward).
        """
        size = self.shape[axis]
        if size % sections != 0:
            raise ValueError(
                f"axis of size {size} not divisible into {sections} sections"
            )
        step = size // sections
        out = []
        for start in range(0, size, step):
            index = [slice(None)] * self.ndim
            index[axis] = slice(start, start + step)
            out.append(self[tuple(index)])
        return out

    def swapaxes(self, ax1: int, ax2: int) -> "Tensor":
        a = self
        return Tensor._make(
            np.swapaxes(a.data, ax1, ax2),
            (a,),
            lambda g: (np.swapaxes(g, ax1, ax2),),
            "swapaxes",
            view=True,
        )

    def __getitem__(self, index) -> "Tensor":
        """Basic and integer-array indexing with scatter-add backward."""
        a = self
        out_data = a.data[index]

        def vjp(g: np.ndarray):
            grad = np.zeros_like(a.data)
            np.add.at(grad, index, g)
            return (grad,)

        # basic indexing yields a view; advanced (integer-array) indexing copies
        view = np.shares_memory(out_data, a.data)
        return Tensor._make(out_data, (a,), vjp, "getitem", view=view)

    def pad2d(self, pad: int) -> "Tensor":
        """Zero-pad the trailing two (spatial) axes symmetrically."""
        if pad == 0:
            return self
        a = self
        width = [(0, 0)] * (a.ndim - 2) + [(pad, pad), (pad, pad)]
        out_data = np.pad(a.data, width)
        sl = (Ellipsis, slice(pad, -pad), slice(pad, -pad))
        return Tensor._make(out_data, (a,), lambda g: (g[sl],), "pad2d")


# --------------------------------------------------------------------------
# free functions
# --------------------------------------------------------------------------


def as_tensor(value) -> Tensor:
    """Coerce a value into a :class:`Tensor` (no copy if already one)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def zeros(*shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


def ones(*shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=requires_grad)


def full(shape, value: float, requires_grad: bool = False) -> Tensor:
    return Tensor(np.full(shape, float(value)), requires_grad=requires_grad)


def randn(*shape, rng, scale: float = 1.0, requires_grad: bool = False) -> Tensor:
    """Gaussian tensor from an explicit generator (no global RNG)."""
    from repro.utils.rng import as_generator

    gen = as_generator(rng)
    return Tensor(gen.standard_normal(shape) * scale, requires_grad=requires_grad)


def uniform(
    *shape, rng, low: float = -1.0, high: float = 1.0, requires_grad: bool = False
) -> Tensor:
    from repro.utils.rng import as_generator

    gen = as_generator(rng)
    return Tensor(gen.uniform(low, high, shape), requires_grad=requires_grad)


def arange(n: int) -> Tensor:
    return Tensor(np.arange(n, dtype=np.float64))


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate along ``axis``; backward slices the gradient back apart."""
    tensors = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def vjp(g: np.ndarray):
        grads = []
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(start, stop)
            grads.append(g[tuple(sl)])
        return grads

    return Tensor._make(data, tuple(tensors), vjp, "concat")


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack along a new axis; backward unstacks."""
    tensors = [as_tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def vjp(g: np.ndarray):
        return list(np.moveaxis(g, axis, 0))

    return Tensor._make(data, tuple(tensors), vjp, "stack")


def where(condition: np.ndarray, a, b) -> Tensor:
    """Elementwise select; ``condition`` is a plain boolean array."""
    a, b = as_tensor(a), as_tensor(b)
    cond = np.asarray(condition, dtype=bool)
    data = np.where(cond, a.data, b.data)

    def vjp(g: np.ndarray):
        return (
            unbroadcast(np.where(cond, g, 0.0), a.shape),
            unbroadcast(np.where(cond, 0.0, g), b.shape),
        )

    return Tensor._make(data, (a, b), vjp, "where")


def maximum(a, b) -> Tensor:
    """Elementwise max; ties send the full gradient to the first operand."""
    a, b = as_tensor(a), as_tensor(b)
    take_a = a.data >= b.data
    data = np.where(take_a, a.data, b.data)

    def vjp(g: np.ndarray):
        return (
            unbroadcast(np.where(take_a, g, 0.0), a.shape),
            unbroadcast(np.where(take_a, 0.0, g), b.shape),
        )

    return Tensor._make(data, (a, b), vjp, "maximum")


def minimum(a, b) -> Tensor:
    """Elementwise min; ties send the full gradient to the first operand."""
    a, b = as_tensor(a), as_tensor(b)
    take_a = a.data <= b.data
    data = np.where(take_a, a.data, b.data)

    def vjp(g: np.ndarray):
        return (
            unbroadcast(np.where(take_a, g, 0.0), a.shape),
            unbroadcast(np.where(take_a, 0.0, g), b.shape),
        )

    return Tensor._make(data, (a, b), vjp, "minimum")
