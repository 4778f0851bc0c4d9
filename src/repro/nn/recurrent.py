"""LSTM cell and multi-layer LSTM stack.

The cell follows the paper's description exactly: for MNIST the "cell kernel
of [the] LSTM layer is a 256-by-512 matrix", i.e. a single fused kernel of
shape ``(input_size + hidden, 4 * hidden)`` producing the four gates in one
matmul — the same layout TensorFlow's ``BasicLSTMCell`` uses.  Time loops
run in Python (graph bookkeeping only); each step is one fused matmul, per
the HPC guidance.

The :class:`LSTM` stack supports the two structural features GNMT needs:
a bidirectional first layer (outputs concatenated) and residual connections
starting at a configurable layer index.
"""

from __future__ import annotations

import numpy as np

from repro.nn import init
from repro.nn.module import Module, ModuleList, Parameter
from repro.tensor.fused import fused_enabled, lstm_cell_step, lstm_layer
from repro.tensor.tensor import Tensor, concat, stack, zeros
from repro.utils.rng import spawn


class LSTMCell(Module):
    """Fused-kernel LSTM cell.

    Gate order along the kernel's output dimension is ``i, f, g, o``
    (input, forget, candidate, output).  The forget-gate bias is initialised
    to ``forget_bias`` (default 1.0, the TF convention) so early training
    retains memory, which matters for the warmup-sensitivity experiments.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        rng,
        init_scale: float | None = None,
        forget_bias: float = 1.0,
    ) -> None:
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        (k_rng,) = spawn(rng, 1)
        shape = (input_size + hidden_size, 4 * hidden_size)
        if init_scale is None:
            kernel = init.xavier_uniform(shape, k_rng)
        else:
            kernel = init.uniform(shape, k_rng, init_scale)
        self.kernel = Parameter(kernel)
        bias = np.zeros(4 * hidden_size)
        bias[hidden_size : 2 * hidden_size] = forget_bias
        self.bias = Parameter(bias)

    def forward(
        self, x: Tensor, state: tuple[Tensor, Tensor]
    ) -> tuple[Tensor, tuple[Tensor, Tensor]]:
        """One step: ``x`` is (B, input_size); returns (h', (h', c')).

        Dispatches to the fused kernel (3 graph nodes, single-pass
        backward) when ``repro.tensor.use_fused`` is on; the reference
        graph below is the correctness baseline the parity suite checks
        against.  Forward values are bit-identical on both paths.
        """
        h, c = state
        hs = self.hidden_size
        if fused_enabled():
            h_new, c_new = lstm_cell_step(x, h, c, self.kernel, self.bias, hs)
            return h_new, (h_new, c_new)
        z = concat([x, h], axis=1) @ self.kernel + self.bias
        i = z[:, 0 * hs : 1 * hs].sigmoid()
        f = z[:, 1 * hs : 2 * hs].sigmoid()
        g = z[:, 2 * hs : 3 * hs].tanh()
        o = z[:, 3 * hs : 4 * hs].sigmoid()
        c_new = f * c + i * g
        h_new = o * c_new.tanh()
        return h_new, (h_new, c_new)

    def zero_state(self, batch: int) -> tuple[Tensor, Tensor]:
        return zeros(batch, self.hidden_size), zeros(batch, self.hidden_size)


class LSTM(Module):
    """Stack of LSTM layers over a time-major sequence.

    Parameters
    ----------
    input_size, hidden_size, num_layers:
        Stack geometry.  All hidden layers share ``hidden_size``.
    rng:
        Seed / generator for parameter init.
    bidirectional_first:
        If set, layer 0 runs in both directions and its outputs are
        concatenated (giving ``2 * hidden_size`` features into layer 1) —
        the GNMT encoder topology.
    residual_start:
        Layer index (0-based) from which ``output += input`` residual
        connections apply (GNMT uses the 3rd layer, index 2).  Residual
        layers require matching input/output sizes.
    init_scale:
        Uniform init half-width (PTB convention); ``None`` selects Xavier.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        num_layers: int,
        rng,
        bidirectional_first: bool = False,
        residual_start: int | None = None,
        init_scale: float | None = None,
    ) -> None:
        super().__init__()
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        self.bidirectional_first = bidirectional_first
        self.residual_start = residual_start
        # one stream per layer, one for the backward cell and one unused:
        # the count fixes how far ``rng``'s spawn counter advances, so a
        # shared generator's later children stay as they are
        rngs = spawn(rng, num_layers + 2)

        cells: list[Module] = []
        in_size = input_size
        for layer in range(num_layers):
            cells.append(
                LSTMCell(in_size, hidden_size, rngs[layer], init_scale=init_scale)
            )
            in_size = hidden_size * (2 if bidirectional_first and layer == 0 else 1)
        self.cells = ModuleList(cells)
        if bidirectional_first:
            self.backward_cell = LSTMCell(
                input_size, hidden_size, rngs[num_layers], init_scale=init_scale
            )
        else:
            self.backward_cell = None

        if residual_start is not None:
            for layer in range(residual_start, num_layers):
                # a layer's input width must equal its (cell) output width
                if layer == 0:
                    in_width = input_size
                elif layer == 1 and bidirectional_first:
                    in_width = 2 * hidden_size
                else:
                    in_width = hidden_size
                out_width = hidden_size * (
                    2 if bidirectional_first and layer == 0 else 1
                )
                if in_width != out_width:
                    raise ValueError(
                        f"residual connection at layer {layer} requires input "
                        f"width {out_width}, got {in_width}"
                    )

    def _run_direction(
        self,
        cell: LSTMCell,
        steps: list[Tensor],
        state: tuple[Tensor, Tensor],
        reverse: bool,
        mask: np.ndarray | None = None,
    ) -> tuple[list[Tensor], tuple[Tensor, Tensor]]:
        """Run one direction; ``mask`` (T, B) freezes state at padded steps.

        At a masked-out step the cell's state update is discarded (the
        previous state carries through unchanged) and the emitted output is
        zeroed — the standard dynamic-RNN semantics for ragged batches.
        """
        order = range(len(steps) - 1, -1, -1) if reverse else range(len(steps))
        outputs: list[Tensor | None] = [None] * len(steps)
        for t in order:
            out, (h_new, c_new) = cell(steps[t], state)
            if mask is not None:
                m = mask[t].reshape(-1, 1)
                h_old, c_old = state
                state = (
                    h_new * m + h_old * (1.0 - m),
                    c_new * m + c_old * (1.0 - m),
                )
                out = out * m
            else:
                state = (h_new, c_new)
            outputs[t] = out
        return outputs, state  # type: ignore[return-value]

    def _forward_fused(
        self,
        x: Tensor,
        initial_states: list[tuple[Tensor, Tensor]] | None,
        mask: np.ndarray | None,
    ) -> tuple[Tensor, list[tuple[Tensor, Tensor]]]:
        """Full-sequence fused path: one ``fused_lstm_layer`` node per
        direction per layer, padded batches included (the kernel applies
        ``mask`` inside its time loop), with residual connections applied
        to whole ``(T, B, H)`` tensors.
        """
        batch = x.shape[1]
        seq = x
        final_states: list[tuple[Tensor, Tensor]] = []
        for layer, cell in enumerate(self.cells):
            if initial_states is not None:
                h0, c0 = initial_states[layer]
            else:
                h0, c0 = cell.zero_state(batch)
            layer_input = seq
            out, h_f, c_f = lstm_layer(
                seq, h0, c0, cell.kernel, cell.bias, self.hidden_size,
                mask=mask,
            )
            if layer == 0 and self.backward_cell is not None:
                bwd = self.backward_cell
                bh0, bc0 = bwd.zero_state(batch)
                bwd_out, _, _ = lstm_layer(
                    seq, bh0, bc0, bwd.kernel, bwd.bias, self.hidden_size,
                    reverse=True, mask=mask,
                )
                out = concat([out, bwd_out], axis=2)
            if self.residual_start is not None and layer >= self.residual_start:
                out = out + layer_input
            final_states.append((h_f, c_f))
            seq = out
        return seq, final_states

    def forward(
        self,
        x: Tensor,
        initial_states: list[tuple[Tensor, Tensor]] | None = None,
        mask: np.ndarray | None = None,
    ) -> tuple[Tensor, list[tuple[Tensor, Tensor]]]:
        """Run the stack over ``x`` of shape (T, B, input_size).

        ``mask`` is an optional (T, B) 0/1 array marking valid positions of
        a padded batch; state updates and outputs at masked positions are
        suppressed in *both* directions, so padding never contaminates
        valid states (the property the GNMT attention tests pin down).

        With ``repro.tensor.use_fused`` on (the default), every batch,
        masked or not, runs through :func:`repro.tensor.fused.lstm_layer`:
        one graph node per direction per layer.  The per-step loop below
        is the reference engine's path.

        Returns the top layer's output sequence (T, B, H·dirs) and the final
        ``(h, c)`` per layer (forward-direction state for the bidirectional
        layer).
        """
        seq_len, batch = x.shape[0], x.shape[1]
        if mask is not None:
            mask = np.asarray(mask, dtype=np.float64)
            if mask.shape != (seq_len, batch):
                raise ValueError(
                    f"mask shape {mask.shape} != (T, B) = {(seq_len, batch)}"
                )
        if fused_enabled():
            return self._forward_fused(x, initial_states, mask)
        steps = [x[t] for t in range(seq_len)]
        final_states: list[tuple[Tensor, Tensor]] = []
        for layer, cell in enumerate(self.cells):
            if initial_states is not None:
                state = initial_states[layer]
            else:
                state = cell.zero_state(batch)
            layer_inputs = steps
            outputs, state = self._run_direction(
                cell, steps, state, reverse=False, mask=mask
            )
            if layer == 0 and self.backward_cell is not None:
                bwd_state = self.backward_cell.zero_state(batch)
                bwd_out, _ = self._run_direction(
                    self.backward_cell, steps, bwd_state, reverse=True, mask=mask
                )
                outputs = [
                    concat([f, b], axis=1) for f, b in zip(outputs, bwd_out)
                ]
            if self.residual_start is not None and layer >= self.residual_start:
                outputs = [o + inp for o, inp in zip(outputs, layer_inputs)]
            final_states.append(state)
            steps = outputs
        return stack(steps, axis=0), final_states
