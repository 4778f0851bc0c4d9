"""Inference execution: eval-mode, no-grad, fused-kernel model serving.

:class:`InferenceEngine` is the compute half of the serving stack — it
owns a model, pins it into inference configuration (``model.eval()``,
every forward under :func:`repro.tensor.no_grad`, on the engine path the
process-wide fused switch selects), and exposes one task-specific head
per application family:

* ``classify``  — MNIST-LSTM: label + logits per image;
* ``score``     — PTB LM: next-token log-probabilities for each window;
* ``translate`` — GNMT: beam search over the whole coalesced batch at
  once, each request to its own horizon, so a request gets the tokens
  it would get alone.

``predict(payloads, lengths)`` is the uniform entry point the
:class:`~repro.serve.server.Server` drives: it stacks/pads the payloads,
runs the head, and returns one result dict per request.

Weights come from the training side through
:mod:`repro.utils.checkpoint`: :meth:`from_checkpoint` loads a single
archive, :meth:`from_manager` the newest one in a directory, and
:meth:`load_version` loads a checkpoint into the live model in place
(the server calls it between batches for hot-swap — see
``docs/serving.md``); :meth:`swap_state` does the same from an
in-memory state dict.  Every engine carries a monotonically increasing
``version`` (the checkpoint step it serves) so swap staleness is a cheap
integer comparison.
"""

from __future__ import annotations

import pathlib
import time
from typing import Any, Sequence

import numpy as np

from repro.models.beam import beam_decode, check_decode_settings
from repro.tensor import no_grad
from repro.tensor.nnops import log_softmax
from repro.utils.checkpoint import CheckpointManager, load_checkpoint

__all__ = ["InferenceEngine", "PacedEngine", "TASKS"]

TASKS = ("mnist", "ptb", "gnmt")


class InferenceEngine:
    """A model pinned into inference mode, with task-specific heads.

    Parameters
    ----------
    model:
        The trained module (architecture must match the checkpoints this
        engine will load).
    task:
        One of :data:`TASKS`; selects the head ``predict`` dispatches to.
        Forwards run on the fused hot-path kernels unless the
        process-wide switch (``REPRO_FUSED=0``, ``use_fused(False)``)
        selects the reference engine; the two agree to float64 round-off,
        padded GNMT batches included (docs/fused_kernels.md).
    version:
        The checkpoint step these weights correspond to (0 for a fresh
        model).
    beam_size / length_alpha / max_len_factor:
        GNMT decoding knobs (ignored by the other tasks).  A request's
        horizon is ``int(source length * max_len_factor) + 2``.  Bad
        values are refused here (see
        :func:`~repro.models.beam.check_decode_settings`).
    quantize:
        ``"int8"`` serves the classify head through an int8
        post-training-quantized float32 executor
        (:class:`~repro.serve.quantize.QuantizedMnistRunner`) instead of
        the full-precision model — currently ``mnist`` only.  Hot-swaps
        requantize automatically.  ``None`` (default) serves full
        precision.
    """

    def __init__(
        self,
        model,
        task: str,
        *,
        version: int = 0,
        beam_size: int = 2,
        length_alpha: float = 0.6,
        max_len_factor: float = 2.5,
        quantize: str | None = None,
    ) -> None:
        if task not in TASKS:
            raise ValueError(f"unknown task {task!r}; expected one of {TASKS}")
        if quantize not in (None, "int8"):
            raise ValueError(f"unknown quantize mode {quantize!r}")
        if quantize is not None and task != "mnist":
            raise ValueError(
                "quantize='int8' is only supported for the mnist task"
            )
        check_decode_settings(beam_size, length_alpha, max_len_factor)
        self.model = model
        self.task = task
        self.version = int(version)
        self.beam_size = beam_size
        self.length_alpha = length_alpha
        self.max_len_factor = max_len_factor
        self.quantize = quantize
        self._quantized = None
        if quantize is not None:
            from repro.serve.quantize import QuantizedMnistRunner

            self._quantized = QuantizedMnistRunner(model)
        self.model.eval()

    # -- construction from checkpoints -------------------------------------

    @classmethod
    def from_checkpoint(
        cls, path: str | pathlib.Path, model, task: str, **kwargs: Any
    ) -> "InferenceEngine":
        """Load one checkpoint archive into ``model`` and wrap it."""
        iteration = load_checkpoint(path, model)
        step = CheckpointManager.step_of(path)
        version = step if step is not None else iteration
        return cls(model, task, version=version, **kwargs)

    @classmethod
    def from_manager(
        cls, manager: CheckpointManager, model, task: str, **kwargs: Any
    ) -> "InferenceEngine":
        """Load the newest loadable checkpoint in ``manager``'s directory."""
        loaded = manager.load_latest(model)
        if loaded is None:
            raise FileNotFoundError(
                f"no loadable checkpoint in {manager.directory}"
            )
        iteration, path = loaded
        step = CheckpointManager.step_of(path)
        version = step if step is not None else iteration
        return cls(model, task, version=version, **kwargs)

    # -- hot-swap ----------------------------------------------------------

    def swap_state(self, state: dict[str, np.ndarray], version: int) -> None:
        """Replace the weights in place and bump :attr:`version`.

        Not thread-safe against a concurrent forward: call it between
        batches, the drain-then-swap discipline the server keeps for
        :meth:`load_version`.
        """
        self.model.load_state_dict(state)
        self.model.eval()
        self.version = int(version)
        if self._quantized is not None:
            self._quantized.refresh(dict(self.model.named_parameters()))

    def load_version(self, path: str | pathlib.Path) -> int:
        """Load ``path`` into the model; returns the new version."""
        iteration = load_checkpoint(path, self.model)
        self.model.eval()
        step = CheckpointManager.step_of(path)
        self.version = step if step is not None else iteration
        if self._quantized is not None:
            self._quantized.refresh(dict(self.model.named_parameters()))
        return self.version

    # -- task heads --------------------------------------------------------

    def classify(self, images: np.ndarray) -> list[dict[str, Any]]:
        """MNIST-LSTM head: images ``(B, T, D)`` -> label + logits each."""
        if self._quantized is not None:
            logits = self._quantized.logits(np.asarray(images))
        else:
            with no_grad():
                logits = self.model(np.asarray(images)).data
        labels = logits.argmax(axis=1)
        return [
            {"label": int(labels[i]), "logits": logits[i].copy()}
            for i in range(len(logits))
        ]

    def score(self, tokens: np.ndarray) -> list[dict[str, Any]]:
        """PTB head: windows ``(B, T)`` -> next-token log-probs each."""
        tokens = np.asarray(tokens, dtype=np.int64)
        with no_grad():
            logits = self.model(tokens)  # (T, B, V)
            logp = log_softmax(logits[logits.shape[0] - 1]).data  # (B, V)
        preds = logp.argmax(axis=1)
        return [
            {"next_token": int(preds[i]), "logp": logp[i].copy()}
            for i in range(len(logp))
        ]

    def translate(
        self, src: np.ndarray, src_len: np.ndarray
    ) -> list[dict[str, Any]]:
        """GNMT head: padded sources -> beam-decoded content tokens each.

        The batch decodes in one beam loop, each request to its own
        horizon, so a request's tokens do not depend on its batch mates.
        """
        src = np.asarray(src, dtype=np.int64)
        src_len = np.asarray(src_len, dtype=np.int64)
        max_len = [int(n * self.max_len_factor) + 2 for n in src_len]
        with no_grad():
            hyps = beam_decode(
                self.model,
                src,
                src_len,
                max_len,
                beam_size=self.beam_size,
                length_alpha=self.length_alpha,
            )
        return [{"tokens": hyp} for hyp in hyps]

    # -- the uniform entry point the server drives -------------------------

    def predict(
        self,
        payloads: Sequence[np.ndarray],
        lengths: Sequence[int | None] | None = None,
    ) -> list[dict[str, Any]]:
        """Run one coalesced batch; returns one result dict per payload.

        ``payloads`` are single-request arrays (no batch axis); sequence
        tasks pad them to the batch maximum here, which is cheap because
        the batcher only mixes lengths within one bucket.
        """
        if not payloads:
            return []
        if self.task == "mnist":
            return self.classify(np.stack([np.asarray(p) for p in payloads]))
        if self.task == "ptb":
            return self.score(np.stack([np.asarray(p) for p in payloads]))
        # gnmt: pad variable-length sources up to the batch maximum
        from repro.data.vocab import PAD

        if lengths is None:
            lengths = [len(p) for p in payloads]
        lens = np.asarray(
            [len(p) if n is None else n for p, n in zip(payloads, lengths)],
            dtype=np.int64,
        )
        width = int(max(int(l) for l in lens))
        src = np.full((len(payloads), width), PAD, dtype=np.int64)
        for i, p in enumerate(payloads):
            p = np.asarray(p, dtype=np.int64)[: lens[i]]
            src[i, : len(p)] = p
        return self.translate(src, lens)


class PacedEngine:
    """An engine wrapper that pads batch service time to a device model.

    The fleet benchmark must measure the *router's* scaling behaviour —
    dispatch, IPC, policy quality — not how many LSTM forwards one host
    can run, so replica compute is paced by a fixed-plus-per-sample
    device model, the shape of :class:`~repro.parallel.perfmodel.
    DeviceModel`: every ``predict`` runs the real engine, then sleeps
    until the batch has taken

        ``t_fixed_ms + len(batch) * t_sample_ms``

    milliseconds wall-clock.  The fixed term models per-dispatch
    overhead (kernel launch, host sync), the per-sample term the
    batch-axis work.  Because sleeping threads overlap freely across
    processes, N paced replicas on one core scale near-linearly exactly
    when the routing machinery lets them — which is the property under
    test.  Results are the wrapped engine's real results; only timing is
    simulated.

    Everything not overridden here (``version``, ``load_version``,
    ``swap_state``, the task heads) delegates to the wrapped engine, so
    a :class:`PacedEngine` drops into :class:`~repro.serve.server.Server`
    and the replica harness unchanged.
    """

    def __init__(
        self,
        engine: InferenceEngine,
        *,
        t_fixed_ms: float = 50.0,
        t_sample_ms: float = 1.0,
    ) -> None:
        if t_fixed_ms < 0 or t_sample_ms < 0:
            raise ValueError("pacing terms must be >= 0")
        self.engine = engine
        self.t_fixed_ms = float(t_fixed_ms)
        self.t_sample_ms = float(t_sample_ms)

    def __getattr__(self, name: str) -> Any:
        # delegate everything the wrapper does not define (version,
        # load_version, swap_state, task, classify, ...)
        return getattr(self.engine, name)

    def service_time_s(self, batch_size: int) -> float:
        """The modelled wall-clock seconds for a ``batch_size`` batch."""
        return (self.t_fixed_ms + batch_size * self.t_sample_ms) / 1e3

    def predict(
        self,
        payloads: Sequence[np.ndarray],
        lengths: Sequence[int | None] | None = None,
    ) -> list[dict[str, Any]]:
        start = time.perf_counter()
        results = self.engine.predict(payloads, lengths)
        budget = self.service_time_s(len(payloads))
        remaining = budget - (time.perf_counter() - start)
        if remaining > 0:
            time.sleep(remaining)
        return results
