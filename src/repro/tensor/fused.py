"""Fused hot-path kernels: hand-derived forward + VJP pairs for the ops
that dominate every LEGW training step.

The reference engine builds the LSTM cell's per-timestep graph out of ~14
primitive nodes (concat, matmul, bias add, four gate slices, three
sigmoids, two tanhs, three elementwise combines), each carrying its own
closure, its own temporaries, and — for the gate slices — an
``np.add.at`` scatter in the backward pass.  At the model sizes the paper
trains (hidden 128–1024) that bookkeeping is a large fraction of step
time.  This module collapses each hot path into O(1) graph nodes with a
single hand-derived vector-Jacobian product:

* :func:`lstm_cell_step` — the full cell update (one matmul on the
  concatenated ``[x, h]`` against the packed gate kernel, gate
  nonlinearities and state update inside one node; 3 nodes total instead
  of ~14).  Forward values are **bit-identical** to the reference cell:
  both paths share :func:`repro.tensor.tensor.stable_sigmoid` and apply
  the same operations in the same order.
* :func:`lstm_layer` — a whole direction over a ``(T, B, D)`` sequence,
  padded batches included (an optional ``(T, B)`` mask), in one node;
  forward values agree with the reference stack to round-off.
* :func:`softmax_cross_entropy` — logits straight to scalar loss with the
  stable ``softmax - onehot`` backward materialised in-place on a single
  probability buffer (the reference allocates a dense target distribution
  plus three more logits-sized temporaries — which hurts at LM vocab
  sizes).
* :func:`sgd_update` / :func:`momentum_update` — in-place parameter
  updates writing through preallocated scratch, no per-step temporaries.
  Bit-identical to the reference optimizer arithmetic (only commutative
  reorderings).

Dispatch
--------
Nothing imports these kernels directly: ``repro.nn.LSTMCell``,
``repro.nn.LSTM``, ``repro.tensor.cross_entropy`` and the SGD-family
optimizers all consult :func:`fused_enabled` and fall back to their
reference implementations when fusion is off.  Fusion is
the default; the reference engine stays as the differential oracle the
parity suite checks every kernel against.  Flip globally with
``repro.tensor.use_fused``::

    from repro import tensor
    tensor.use_fused(False)      # returns the previous setting
    ...
    with tensor.fused_kernels(False):   # scoped override
        ...

or set ``REPRO_FUSED=0`` in the environment (how the CI reference leg
runs the whole tier-1 suite on the reference engine), or pass
``--no-fused`` to the CLI.  Checkpoints are path-agnostic — parameter
names, optimizer state keys and values are identical either way — and
the profiler sees the fused ops under the stable names
``fused_lstm_cell`` / ``fused_lstm_layer`` / ``fused_lstm_out`` /
``fused_softmax_xent``.

Correctness story: :mod:`tests.test_fused_parity` property-checks fused
against reference forward values and gradients (finite differences plus
fused-vs-reference backward), and :mod:`tests.test_golden_run` pins both
paths to a committed 30-step MNIST-LSTM loss/grad-norm trajectory.
"""

from __future__ import annotations

import contextlib

import numpy as np

from repro.tensor.env import env_flag
from repro.tensor.tensor import Tensor, as_tensor, is_grad_enabled

__all__ = [
    "use_fused",
    "fused_enabled",
    "fused_kernels",
    "lstm_cell_step",
    "lstm_layer",
    "softmax_cross_entropy",
    "sgd_update",
    "momentum_update",
]


def _fast_sigmoid(x: np.ndarray) -> np.ndarray:
    """Branch-free stable logistic, bit-identical to ``Tensor.sigmoid``.

    The reference :func:`repro.tensor.tensor.stable_sigmoid` partitions the
    input with boolean masks (fancy gather/scatter, slow at LSTM gate
    sizes).  This evaluates the same two expressions —
    ``1 / (1 + exp(-x))`` for ``x >= 0`` and ``e / (1 + e)`` with
    ``e = exp(x)`` otherwise — on the whole array via ``exp(-|x|)``, so
    every element goes through exactly the arithmetic the reference
    applies to it (the parity suite asserts ``array_equal``).
    """
    return _sigmoid_into(x, np.empty_like(x), np.empty_like(x))


def _sigmoid_into(x: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """:func:`_fast_sigmoid` writing into ``out`` via scratch ``tmp``.

    The numerator is ``max(x >= 0, exp(-|x|))``: 1.0 where ``x >= 0`` and
    ``exp(x)`` elsewhere, since ``exp(-|x|) <= 1``; a NaN propagates.
    Two in-place ufuncs, where a ``where`` select would allocate a
    temporary and take about 4× as long at (128, 128).  The two buffers
    let the LSTM layer loop run its gate math allocation-free; ``tmp``
    may be reused across calls.
    """
    np.abs(x, out=tmp)
    np.negative(tmp, out=tmp)
    np.exp(tmp, out=tmp)  # tmp = exp(-|x|)
    np.greater_equal(x, 0.0, out=out)
    np.maximum(out, tmp, out=out)
    tmp += 1.0
    np.divide(out, tmp, out=out)
    return out

# --------------------------------------------------------------------------
# the global switch
# --------------------------------------------------------------------------

_FUSED_ENABLED = env_flag("REPRO_FUSED", default=True)


def use_fused(enabled: bool = True) -> bool:
    """Globally enable/disable fused kernels; returns the previous setting.

    The returned flag makes save/restore one-liners::

        prev = use_fused(True)
        try: ...
        finally: use_fused(prev)
    """
    global _FUSED_ENABLED
    prev = _FUSED_ENABLED
    _FUSED_ENABLED = bool(enabled)
    return prev


def fused_enabled() -> bool:
    """Whether dispatching call sites should take the fused path."""
    return _FUSED_ENABLED


@contextlib.contextmanager
def fused_kernels(enabled: bool = True):
    """Context manager scoping :func:`use_fused` to a block."""
    prev = use_fused(enabled)
    try:
        yield
    finally:
        use_fused(prev)


# --------------------------------------------------------------------------
# LSTM cell step
# --------------------------------------------------------------------------


def lstm_cell_step(
    x: Tensor,
    h: Tensor,
    c: Tensor,
    kernel: Tensor,
    bias: Tensor,
    hidden_size: int,
) -> tuple[Tensor, Tensor]:
    """One fused LSTM cell step; returns ``(h_new, c_new)``.

    Gate order along the kernel's output dimension is ``i, f, g, o``,
    matching :class:`repro.nn.LSTMCell`.  The two outputs are thin slice
    views of one packed ``(2, B, H)`` graph node, so the whole step costs
    three graph nodes and the backward runs as a single pass: upstream
    ``dh`` and ``dc`` arrive together and one matmul against the kernel
    recovers ``dx``/``dh_prev`` jointly.
    """
    x, h, c = as_tensor(x), as_tensor(h), as_tensor(c)
    kernel, bias = as_tensor(kernel), as_tensor(bias)
    hs = int(hidden_size)
    in_size = x.shape[1]

    xh = np.concatenate((x.data, h.data), axis=1)
    z = xh @ kernel.data
    z += bias.data
    i = _fast_sigmoid(z[:, 0 * hs : 1 * hs])
    f = _fast_sigmoid(z[:, 1 * hs : 2 * hs])
    g_ = np.tanh(z[:, 2 * hs : 3 * hs])
    o = _fast_sigmoid(z[:, 3 * hs : 4 * hs])
    c_new = f * c.data + i * g_
    tanh_c = np.tanh(c_new)
    packed = np.empty((2,) + c_new.shape)
    np.multiply(o, tanh_c, out=packed[0])  # h_new
    packed[1] = c_new
    c_prev = c.data

    def vjp(gpack: np.ndarray):
        gh, gc = gpack[0], gpack[1]
        do = gh * tanh_c
        dc = gc + gh * o * (1.0 - tanh_c * tanh_c)
        dz = np.empty((xh.shape[0], 4 * hs))
        dz[:, 0 * hs : 1 * hs] = dc * g_ * (i * (1.0 - i))
        dz[:, 1 * hs : 2 * hs] = dc * c_prev * (f * (1.0 - f))
        dz[:, 2 * hs : 3 * hs] = dc * i * (1.0 - g_ * g_)
        dz[:, 3 * hs : 4 * hs] = do * (o * (1.0 - o))
        dxh = dz @ kernel.data.T
        dkernel = xh.T @ dz
        dbias = dz.sum(axis=0)
        dc_prev = dc * f
        return (
            dxh[:, :in_size],
            dxh[:, in_size:],
            dc_prev,
            dkernel,
            dbias,
        )

    out = Tensor._make(packed, (x, h, c, kernel, bias), vjp, "fused_lstm_cell")
    return _packed_slice(out, 0), _packed_slice(out, 1)


def _packed_slice(packed: Tensor, index: int) -> Tensor:
    """Slice ``packed[index]`` out of a stacked fused output.

    The backward writes the upstream gradient into its slot of a fresh
    zero buffer (plain assignment — each slice is a distinct node, so no
    scatter-add is needed; accumulation across slices happens upstream in
    ``Tensor.backward``'s pending table).
    """

    def vjp(g: np.ndarray):
        gp = np.zeros(packed.shape)
        gp[index] = g
        return (gp,)

    return Tensor._make(
        packed.data[index], (packed,), vjp, "fused_lstm_out", view=True
    )


def _packed_range(packed: Tensor, stop: int) -> Tensor:
    """Slice ``packed[:stop]`` out of a stacked fused output (see above)."""

    def vjp(g: np.ndarray):
        gp = np.zeros(packed.shape)
        gp[:stop] = g
        return (gp,)

    return Tensor._make(
        packed.data[:stop], (packed,), vjp, "fused_lstm_out", view=True
    )


# --------------------------------------------------------------------------
# LSTM layer (whole time loop in one node)
# --------------------------------------------------------------------------


def lstm_layer(
    x: Tensor,
    h0: Tensor,
    c0: Tensor,
    kernel: Tensor,
    bias: Tensor,
    hidden_size: int,
    reverse: bool = False,
    mask: np.ndarray | None = None,
) -> tuple[Tensor, Tensor, Tensor]:
    """One LSTM direction over a full ``(T, B, D)`` sequence in one node.

    Returns ``(outputs, h_final, c_final)`` where ``outputs`` is the
    ``(T, B, H)`` hidden-state sequence (time order preserved even when
    ``reverse=True``).

    ``mask`` is an optional ``(T, B)`` array marking the valid positions
    of a padded batch, with the reference stack's semantics
    (:meth:`repro.nn.LSTM._run_direction`): at every step the carried
    state is ``new·m + old·(1−m)`` and the output is ``h_new·m``.  With a
    0/1 mask a padded position emits exactly 0 and leaves the state as
    it was, so the final state is the state after the last valid step.
    Both rules run inside the time loop and the single VJP.

    This is the cuDNN-style amortisation of the cell step: the input
    projection ``x @ Wx`` runs as a single batched matmul over all
    timesteps (with the bias folded in), so the Python-level time loop
    only performs the small recurrent ``h @ Wh`` matmul plus the gate
    nonlinearities per step.  The backward mirrors it — the sequential
    part carries ``dh``/``dc`` through the loop, then ``dx``, ``dWx``,
    ``dWh`` and ``dbias`` each batch into one large matmul over the
    stacked per-step gate gradients.  The whole direction costs 4 graph
    nodes (packed output plus three slices) instead of ~14·T, and no
    ``np.add.at`` scatter ever runs.

    The backward history (gates, ``tanh(c)`` and the carried states: seven
    ``(T, B, H)`` buffers) is kept only when the call records a graph.
    Under :func:`repro.tensor.no_grad`, or when no input requires grad,
    the loop runs through one step of scratch instead, with bit-identical
    outputs.

    Unlike :func:`lstm_cell_step` (bit-identical to the reference cell),
    summing ``x @ Wx + h @ Wh`` as two matmuls reorders the reduction
    relative to the reference's single concatenated matmul, so forward
    values agree with the reference stack only to floating-point
    round-off (~1e-15 relative); the parity suite pins the tolerance.
    """
    x, h0, c0 = as_tensor(x), as_tensor(h0), as_tensor(c0)
    kernel, bias = as_tensor(kernel), as_tensor(bias)
    hs = int(hidden_size)
    seq_len, batch, in_size = x.shape
    if mask is not None:
        mask = np.asarray(mask, dtype=np.float64)
        if mask.shape != (seq_len, batch):
            raise ValueError(
                f"mask shape {mask.shape} != (T, B) = {(seq_len, batch)}"
            )
        keep = mask.reshape(seq_len, batch, 1)
        drop = 1.0 - keep
    record = is_grad_enabled() and any(
        t.requires_grad for t in (x, h0, c0, kernel, bias)
    )
    w_x = kernel.data[:in_size]
    w_h = kernel.data[in_size:]

    x_flat = x.data.reshape(seq_len * batch, in_size)
    z_all = x_flat @ w_x
    z_all += bias.data
    z_steps = z_all.reshape(seq_len, batch, 4 * hs)

    # per-step history for the backward, or one reused step of scratch
    kept = seq_len if record else 1
    gate_i, gate_f, gate_g, gate_o, tanh_c = (
        np.empty((kept, batch, hs)) for _ in range(5)
    )
    if record:
        h_prev = np.empty((seq_len, batch, hs))
        c_prev = np.empty((seq_len, batch, hs))
    packed = np.empty((seq_len + 2, batch, hs))

    # The time loops below run entirely through preallocated scratch —
    # in-place ufuncs, no per-step temporaries — because at (B, H) =
    # (256, 128) allocator churn costs as much as the arithmetic.
    order = range(seq_len - 1, -1, -1) if reverse else range(seq_len)
    h, c = h0.data, c0.data
    rec = np.empty((batch, 4 * hs))
    tmp = np.empty((batch, hs))
    c_buf = np.empty((batch, hs))
    if mask is not None:
        h_buf = np.empty((batch, hs))
        c_new = np.empty((batch, hs))
    for t in order:
        s = t if record else 0
        if record:
            h_prev[t] = h
            c_prev[t] = c
        z = z_steps[t]
        np.matmul(h, w_h, out=rec)
        z += rec
        i = _sigmoid_into(z[:, 0 * hs : 1 * hs], gate_i[s], tmp)
        f = _sigmoid_into(z[:, 1 * hs : 2 * hs], gate_f[s], tmp)
        g_ = np.tanh(z[:, 2 * hs : 3 * hs], out=gate_g[s])
        o = _sigmoid_into(z[:, 3 * hs : 4 * hs], gate_o[s], tmp)
        np.multiply(i, g_, out=tmp)
        if mask is None:
            np.multiply(f, c, out=c_buf)  # aliasing-safe when c is c_buf
            c_buf += tmp
            c = c_buf
            tc = np.tanh(c, out=tanh_c[s])
            h = np.multiply(o, tc, out=packed[t])
        else:
            np.multiply(f, c, out=c_new)
            c_new += tmp
            tc = np.tanh(c_new, out=tanh_c[s])
            np.multiply(o, tc, out=tmp)  # h_new
            np.multiply(tmp, keep[t], out=packed[t])
            # carried state new·m + old·(1−m), written over the old state
            h = np.multiply(h, drop[t], out=h_buf)
            h += packed[t]
            c_new *= keep[t]
            c = np.multiply(c, drop[t], out=c_buf)
            c += c_new
    packed[seq_len] = h
    packed[seq_len + 1] = c

    def vjp(gpack: np.ndarray):
        g_out = gpack[:seq_len]
        gh = gpack[seq_len].copy()
        gc = gpack[seq_len + 1].copy()
        dz_all = np.empty((seq_len, batch, 4 * hs))
        dh = np.empty((batch, hs))
        dc = np.empty((batch, hs))
        t1 = np.empty((batch, hs))
        gh_buf = np.empty((batch, hs))
        gc_buf = np.empty((batch, hs))
        if mask is not None:
            gh_old = np.empty((batch, hs))
            gc_old = np.empty((batch, hs))
        for t in reversed(order):
            i, f, g_, o = gate_i[t], gate_f[t], gate_g[t], gate_o[t]
            tc = tanh_c[t]
            np.add(g_out[t], gh, out=dh)
            if mask is not None:
                # the old state's (1 - m) share bypasses the cell
                np.multiply(gh, drop[t], out=gh_old)
                np.multiply(gc, drop[t], out=gc_old)
                dh *= keep[t]
                gc *= keep[t]  # gc is this vjp's own buffer
            dz = dz_all[t]
            # dc = gc + dh * o * (1 - tc^2)
            np.multiply(tc, tc, out=t1)
            np.subtract(1.0, t1, out=t1)
            t1 *= o
            t1 *= dh
            np.add(gc, t1, out=dc)
            # output gate: dh * tc * o * (1 - o)
            np.subtract(1.0, o, out=t1)
            t1 *= o
            t1 *= tc
            t1 *= dh
            dz[:, 3 * hs : 4 * hs] = t1
            # input gate: dc * g * i * (1 - i)
            np.subtract(1.0, i, out=t1)
            t1 *= i
            t1 *= g_
            t1 *= dc
            dz[:, 0 * hs : 1 * hs] = t1
            # forget gate: dc * c_prev * f * (1 - f)
            np.subtract(1.0, f, out=t1)
            t1 *= f
            t1 *= c_prev[t]
            t1 *= dc
            dz[:, 1 * hs : 2 * hs] = t1
            # candidate: dc * i * (1 - g^2)
            np.multiply(g_, g_, out=t1)
            np.subtract(1.0, t1, out=t1)
            t1 *= i
            t1 *= dc
            dz[:, 2 * hs : 3 * hs] = t1
            gh = np.matmul(dz, w_h.T, out=gh_buf)
            gc = np.multiply(dc, f, out=gc_buf)
            if mask is not None:
                gh += gh_old
                gc += gc_old
        dz_flat = dz_all.reshape(seq_len * batch, 4 * hs)
        dx = (dz_flat @ w_x.T).reshape(x.shape)
        dkernel = np.empty_like(kernel.data)
        np.matmul(x_flat.T, dz_flat, out=dkernel[:in_size])
        np.matmul(h_prev.reshape(seq_len * batch, hs).T, dz_flat,
                  out=dkernel[in_size:])
        dbias = dz_flat.sum(axis=0)
        return (dx, gh, gc, dkernel, dbias)

    out = Tensor._make(
        packed, (x, h0, c0, kernel, bias), vjp, "fused_lstm_layer"
    )
    return (
        _packed_range(out, seq_len),
        _packed_slice(out, seq_len),
        _packed_slice(out, seq_len + 1),
    )


# --------------------------------------------------------------------------
# softmax cross-entropy
# --------------------------------------------------------------------------


def softmax_cross_entropy(
    logits: Tensor,
    targets: np.ndarray,
    mask: np.ndarray | None = None,
    label_smoothing: float = 0.0,
) -> Tensor:
    """Fused mean softmax cross-entropy (drop-in for
    :func:`repro.tensor.cross_entropy`).

    Two wins over the reference node: the forward never materialises the
    full log-probability matrix (it gathers the target logits and
    subtracts the log-sum-exp directly), and the backward builds the
    ``softmax - target_dist`` gradient in place on one freshly-allocated
    probability buffer instead of a dense one-hot distribution plus
    scaling temporaries.  Probabilities are only exponentiated when the
    backward actually runs, so evaluation passes skip that work entirely.
    """
    logits = as_tensor(logits)
    targets = np.asarray(targets, dtype=np.int64)
    num_classes = logits.shape[-1]
    flat_logits = logits.data.reshape(-1, num_classes)
    flat_targets = targets.reshape(-1)
    if flat_targets.shape[0] != flat_logits.shape[0]:
        raise ValueError(
            f"targets shape {targets.shape} incompatible with logits "
            f"{logits.shape}"
        )
    if np.any(flat_targets < 0) or np.any(flat_targets >= num_classes):
        raise ValueError("target indices out of range")

    if mask is None:
        flat_mask = np.ones(flat_targets.shape[0], dtype=np.float64)
    else:
        flat_mask = np.asarray(mask, dtype=np.float64).reshape(-1)
        if flat_mask.shape[0] != flat_targets.shape[0]:
            raise ValueError("mask shape must match targets shape")
    denom = flat_mask.sum()
    if denom <= 0:
        raise ValueError("cross_entropy mask excludes every position")

    m = flat_logits.max(axis=1, keepdims=True)
    shifted = flat_logits - m
    lse = (m + np.log(np.exp(shifted).sum(axis=1, keepdims=True))).ravel()
    rows = np.arange(flat_targets.shape[0])
    eps = float(label_smoothing)
    per_pos = lse - flat_logits[rows, flat_targets]
    if eps != 0.0:
        per_pos = (1.0 - eps) * per_pos + eps * (lse - flat_logits.mean(axis=1))
    loss = float((per_pos * flat_mask).sum() / denom)

    def vjp(g: np.ndarray):
        # grad = (softmax(logits) - target_dist) * g * mask / denom,
        # built in place on the freshly exponentiated probability buffer
        grad = np.exp(flat_logits - lse[:, None])
        scale = (float(g) / denom) * flat_mask
        grad *= scale[:, None]
        if eps != 0.0:
            grad -= (eps / num_classes) * scale[:, None]
        grad[rows, flat_targets] -= (1.0 - eps) * scale
        return (grad.reshape(logits.shape),)

    return Tensor._make(np.asarray(loss), (logits,), vjp, "fused_softmax_xent")


# --------------------------------------------------------------------------
# fused parameter updates (SGD family)
# --------------------------------------------------------------------------
#
# Each update writes the parameter in place through a caller-provided
# scratch buffer, so a step allocates nothing.  The arithmetic only
# reorders commutative additions relative to the reference optimizers, so
# parameter and momentum state trajectories are bit-identical — the
# parity suite asserts exact equality.


def _decayed_grad(
    p: np.ndarray, grad: np.ndarray, weight_decay: float, scratch: np.ndarray
) -> np.ndarray:
    """``grad + weight_decay * p`` into ``scratch`` (or ``grad`` when wd=0)."""
    if weight_decay == 0.0:
        return grad
    np.multiply(p, weight_decay, out=scratch)
    scratch += grad
    return scratch


def sgd_update(
    p: np.ndarray,
    grad: np.ndarray,
    lr: float,
    weight_decay: float,
    scratch: np.ndarray,
) -> None:
    """In-place ``p -= lr * (grad + wd * p)``."""
    gw = _decayed_grad(p, grad, weight_decay, scratch)
    np.multiply(gw, lr, out=scratch)
    np.subtract(p, scratch, out=p)


def momentum_update(
    p: np.ndarray,
    grad: np.ndarray,
    v: np.ndarray,
    lr: float,
    momentum: float,
    weight_decay: float,
    scratch: np.ndarray,
) -> None:
    """In-place heavy-ball step: ``v <- m*v + g; p -= lr * v``."""
    gw = _decayed_grad(p, grad, weight_decay, scratch)
    np.multiply(v, momentum, out=v)
    v += gw
    np.multiply(v, lr, out=scratch)
    np.subtract(p, scratch, out=p)
