"""Checkpointing: save/restore model + optimizer + schedule position.

Long large-batch runs (Figure 8 trains 3-4x the normal budget) want
resumability, and the fault-tolerance layer (:mod:`repro.train.resilience`)
wants it to be *trustworthy*.  Checkpoints are a single ``.npz`` holding
every model parameter, every optimizer state array, and the scalar
bookkeeping — restoring is bit-exact, which the tests verify by comparing
a resumed run against an uninterrupted one.

Hardening guarantees:

* **atomic writes** — the archive is written to a temporary file in the
  same directory and moved into place with :func:`os.replace`, so a crash
  mid-save never leaves a partially-written file under the final name;
* **corruption detection** — a SHA-256 digest over every array (name,
  dtype, shape and bytes) is stored inside the archive; any bit flip or
  truncation surfaces as :class:`CheckpointCorruptError` at load time
  instead of silently restoring garbage;
* **full state coverage** — beyond model and optimizer arrays, a
  checkpoint can carry the optimizer's current ``lr``, a
  :class:`~repro.optim.loss_scaler.DynamicLossScaler`, a NumPy
  :class:`~numpy.random.Generator` state (the data iterator's shuffling
  stream) and arbitrary scalar ``extra`` entries — enough for *every*
  solver to resume bit-exactly;
* **retention** — :class:`CheckpointManager` names checkpoints by step,
  keeps the last ``k``, and falls back to the previous file when the
  newest is corrupt.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import re
from typing import TYPE_CHECKING, Any

import numpy as np

if TYPE_CHECKING:  # imported lazily to avoid a utils <-> nn import cycle
    from repro.nn.module import Module
    from repro.optim.base import Optimizer
    from repro.optim.loss_scaler import DynamicLossScaler

_META_PREFIX = "__meta__"
_MODEL_PREFIX = "model/"
_OPT_PREFIX = "opt/"
_SCALER_PREFIX = "__scaler__"
_EXTRA_PREFIX = "__extra__"
_RNG_KEY = f"{_META_PREFIX}rng_state"
_CHECKSUM_KEY = "__checksum__"


class CheckpointCorruptError(RuntimeError):
    """The checkpoint file is unreadable or fails its integrity check."""


def _digest(arrays: dict[str, np.ndarray]) -> np.ndarray:
    """SHA-256 over every array's name, dtype, shape and raw bytes."""
    h = hashlib.sha256()
    for name in sorted(arrays):
        if name == _CHECKSUM_KEY:
            continue
        arr = np.ascontiguousarray(arrays[name])
        h.update(name.encode())
        h.update(str(arr.dtype).encode())
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    return np.frombuffer(h.digest(), dtype=np.uint8).copy()


def _encode_rng(rng: np.random.Generator) -> np.ndarray:
    state = json.dumps(rng.bit_generator.state)
    return np.frombuffer(state.encode(), dtype=np.uint8).copy()


def _decode_rng(arr: np.ndarray, rng: np.random.Generator) -> None:
    rng.bit_generator.state = json.loads(bytes(arr.tobytes()).decode())


def save_checkpoint(
    path: str | pathlib.Path,
    model: "Module",
    optimizer: "Optimizer | None" = None,
    iteration: int = 0,
    *,
    loss_scaler: "DynamicLossScaler | None" = None,
    rng: np.random.Generator | None = None,
    extra: dict[str, float] | None = None,
) -> None:
    """Write a checkpoint file (``.npz``) atomically.

    The archive always covers the model (and optimizer, when given);
    ``loss_scaler``, ``rng`` and scalar ``extra`` entries are optional
    add-ons so mixed-precision and shuffled-data runs resume bit-exactly
    too.
    """
    path = pathlib.Path(path)
    arrays: dict[str, np.ndarray] = {
        f"{_MODEL_PREFIX}{name}": arr for name, arr in model.state_dict().items()
    }
    if optimizer is not None:
        for pname, state in optimizer.state.items():
            for key, arr in state.items():
                arrays[f"{_OPT_PREFIX}{pname}/{key}"] = arr
        arrays[f"{_META_PREFIX}opt_iteration"] = np.asarray(optimizer.iteration)
        arrays[f"{_META_PREFIX}opt_lr"] = np.asarray(optimizer.lr)
    if loss_scaler is not None:
        for key, value in loss_scaler.state_dict().items():
            arrays[f"{_SCALER_PREFIX}{key}"] = np.asarray(value)
    if rng is not None:
        arrays[_RNG_KEY] = _encode_rng(rng)
    for key, value in (extra or {}).items():
        arrays[f"{_EXTRA_PREFIX}{key}"] = np.asarray(float(value))
    arrays[f"{_META_PREFIX}iteration"] = np.asarray(iteration)
    arrays[_CHECKSUM_KEY] = _digest(arrays)

    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **arrays)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _read_arrays(path: str | pathlib.Path) -> dict[str, np.ndarray]:
    """Load and integrity-check every array in a checkpoint archive."""
    try:
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
    except Exception as exc:  # BadZipFile, EOFError, OSError, ValueError ...
        raise CheckpointCorruptError(f"cannot read checkpoint {path}: {exc}") from exc
    stored = arrays.get(_CHECKSUM_KEY)
    if stored is None:
        raise CheckpointCorruptError(f"checkpoint {path} carries no checksum")
    if not np.array_equal(stored, _digest(arrays)):
        raise CheckpointCorruptError(f"checkpoint {path} failed its checksum")
    return arrays


def load_checkpoint(
    path: str | pathlib.Path,
    model: "Module",
    optimizer: "Optimizer | None" = None,
    *,
    loss_scaler: "DynamicLossScaler | None" = None,
    rng: np.random.Generator | None = None,
) -> int:
    """Restore a checkpoint in place; returns the saved iteration count.

    The model's parameter names must match exactly (same architecture);
    optimizer state entries are restored for whichever parameters have
    saved state — parameters that never received gradients before the
    save legitimately have none.  Raises :class:`CheckpointCorruptError`
    when the file is unreadable or fails its integrity check.
    """
    data = _read_arrays(path)
    model_state = {
        name[len(_MODEL_PREFIX):]: data[name]
        for name in data
        if name.startswith(_MODEL_PREFIX)
    }
    model.load_state_dict(model_state)
    if optimizer is not None:
        optimizer.state.clear()
        for name in data:
            if not name.startswith(_OPT_PREFIX):
                continue
            pname, key = name[len(_OPT_PREFIX):].rsplit("/", 1)
            optimizer.state.setdefault(pname, {})[key] = data[name].copy()
        meta = f"{_META_PREFIX}opt_iteration"
        if meta in data:
            optimizer.iteration = int(data[meta])
        lr_key = f"{_META_PREFIX}opt_lr"
        if lr_key in data:
            optimizer.lr = float(data[lr_key])
    if loss_scaler is not None:
        scaler_state = {
            name[len(_SCALER_PREFIX):]: float(data[name])
            for name in data
            if name.startswith(_SCALER_PREFIX)
        }
        if scaler_state:
            loss_scaler.load_state_dict(scaler_state)
    if rng is not None and _RNG_KEY in data:
        _decode_rng(data[_RNG_KEY], rng)
    return int(data[f"{_META_PREFIX}iteration"])


def read_checkpoint_extra(path: str | pathlib.Path) -> dict[str, float]:
    """The scalar ``extra`` entries of a checkpoint, integrity-checked."""
    data = _read_arrays(path)
    return {
        name[len(_EXTRA_PREFIX):]: float(data[name])
        for name in data
        if name.startswith(_EXTRA_PREFIX)
    }


class CheckpointManager:
    """Step-named checkpoints in one directory, keeping the last ``k``.

    ``save`` writes ``ckpt_<step>.npz`` atomically and prunes everything
    older than the newest ``keep_last`` files; ``load_latest`` walks the
    surviving files newest-first and transparently falls back past
    corrupted ones (recording them in :attr:`corrupt_skipped`), so one
    torn or bit-rotted file never strands a run.
    """

    def __init__(
        self, directory: str | pathlib.Path, keep_last: int | None = 3
    ) -> None:
        if keep_last is not None and keep_last < 1:
            raise ValueError("keep_last must be >= 1 (or None to keep all)")
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.keep_last = keep_last
        self.corrupt_skipped: list[pathlib.Path] = []

    _STEP_RE = re.compile(r"ckpt_(\d+)\.npz$")

    def path_for(self, step: int) -> pathlib.Path:
        return self.directory / f"ckpt_{int(step):010d}.npz"

    @staticmethod
    def step_of(path: "str | pathlib.Path") -> int | None:
        """The step encoded in a manager-named checkpoint path.

        ``None`` for paths that don't follow the ``ckpt_<step>.npz``
        convention (hand-named checkpoints).
        """
        match = CheckpointManager._STEP_RE.search(pathlib.Path(path).name)
        return int(match.group(1)) if match else None

    def checkpoints(self) -> list[pathlib.Path]:
        """All checkpoint files, oldest first."""
        return sorted(self.directory.glob("ckpt_*.npz"))

    def latest(self) -> pathlib.Path | None:
        files = self.checkpoints()
        return files[-1] if files else None

    def save(
        self,
        model: "Module",
        optimizer: "Optimizer | None" = None,
        iteration: int = 0,
        *,
        step: int | None = None,
        **kwargs: Any,
    ) -> pathlib.Path:
        """Save one checkpoint (named by ``step``, default ``iteration``)."""
        path = self.path_for(iteration if step is None else step)
        save_checkpoint(path, model, optimizer, iteration, **kwargs)
        self._prune()
        return path

    def _prune(self) -> None:
        if self.keep_last is None:
            return
        files = self.checkpoints()
        for path in files[: max(0, len(files) - self.keep_last)]:
            path.unlink(missing_ok=True)

    def load_latest(
        self,
        model: "Module",
        optimizer: "Optimizer | None" = None,
        **kwargs: Any,
    ) -> tuple[int, pathlib.Path] | None:
        """Restore the newest loadable checkpoint.

        Returns ``(iteration, path)``, or ``None`` when no checkpoint in
        the directory is loadable.  Corrupted files are skipped (and
        appended to :attr:`corrupt_skipped`) rather than raised, because
        the whole point of retention is surviving a bad newest file.
        """
        for path in reversed(self.checkpoints()):
            try:
                iteration = load_checkpoint(path, model, optimizer, **kwargs)
            except CheckpointCorruptError:
                self.corrupt_skipped.append(path)
                continue
            return iteration, path
        return None
