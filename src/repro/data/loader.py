"""Mini-batch iteration.

``BatchIterator`` is the plain path (images, fixed-length sequences);
``PaddedBatchIterator`` handles the variable-length translation batches
(pad to the longest source/target in the batch, emit masks).

Epoch accounting matters to this reproduction more than usual: LEGW's
warmup is specified in epochs and every comparison in the paper runs "the
same number of epochs", so :func:`steps_per_epoch` is the single shared
definition (`ceil(n / batch)` with ``drop_last=False``, ``floor``
otherwise).
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.utils.rng import as_generator


def steps_per_epoch(n_examples: int, batch_size: int, drop_last: bool = False) -> int:
    """Iterations per epoch for a dataset of ``n_examples``."""
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    if n_examples <= 0:
        raise ValueError("n_examples must be positive")
    if drop_last:
        steps = n_examples // batch_size
        if steps == 0:
            raise ValueError(
                f"batch_size {batch_size} larger than dataset ({n_examples}) "
                "with drop_last"
            )
        return steps
    return math.ceil(n_examples / batch_size)


class BatchIterator:
    """Shuffled mini-batch iterator over an :class:`ArrayDataset`.

    Reshuffles each epoch from its own generator, so two iterators built
    from equal seeds visit identical batch sequences — baseline-vs-LEGW
    runs differ only in their schedule.
    """

    def __init__(
        self,
        dataset: ArrayDataset,
        batch_size: int,
        rng,
        shuffle: bool = True,
        drop_last: bool = False,
    ) -> None:
        self.dataset = dataset
        self.batch_size = int(batch_size)
        self.shuffle = shuffle
        self.drop_last = drop_last
        self._rng = as_generator(rng)
        self.steps_per_epoch = steps_per_epoch(
            len(dataset), self.batch_size, drop_last
        )

    @property
    def rng(self) -> np.random.Generator:
        """The shuffling stream — checkpointable for bit-exact resume."""
        return self._rng

    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        n = len(self.dataset)
        order = self._rng.permutation(n) if self.shuffle else np.arange(n)
        limit = self.steps_per_epoch * self.batch_size if self.drop_last else n
        for start in range(0, limit, self.batch_size):
            idx = order[start : start + self.batch_size]
            yield self.dataset.inputs[idx], self.dataset.targets[idx]

    def __len__(self) -> int:
        return self.steps_per_epoch


class PaddedBatchIterator:
    """Batches of variable-length (source, target) token sequences.

    The dataset is a list of ``(src, tgt)`` int arrays.  Each batch pads to
    the in-batch maxima with ``pad_id`` and yields
    ``(src (B, S), src_len (B,), tgt_in (B, T), tgt_out (B, T), tgt_mask)``
    where ``tgt_in``/``tgt_out`` are the BOS-shifted decoder input and the
    EOS-terminated target, teacher-forcing style.
    """

    def __init__(
        self,
        pairs: list[tuple[np.ndarray, np.ndarray]],
        batch_size: int,
        rng,
        pad_id: int,
        bos_id: int,
        eos_id: int,
        shuffle: bool = True,
        bucket_by_length: bool = False,
    ) -> None:
        if not pairs:
            raise ValueError("empty dataset")
        self.pairs = pairs
        self.batch_size = int(batch_size)
        self.pad_id, self.bos_id, self.eos_id = pad_id, bos_id, eos_id
        self.shuffle = shuffle
        self.bucket_by_length = bucket_by_length
        self._rng = as_generator(rng)
        self.steps_per_epoch = steps_per_epoch(len(pairs), self.batch_size)

    @property
    def rng(self) -> np.random.Generator:
        """The shuffling stream — checkpointable for bit-exact resume."""
        return self._rng

    def __len__(self) -> int:
        return self.steps_per_epoch

    def _epoch_order(self) -> np.ndarray:
        n = len(self.pairs)
        order = self._rng.permutation(n) if self.shuffle else np.arange(n)
        if not self.bucket_by_length:
            return order
        # bucketing: sort the (possibly shuffled) order by source length so
        # batches group similar lengths — less padding, less wasted compute
        # — then shuffle the *batch blocks* so epoch order stays stochastic.
        lengths = np.array([len(self.pairs[i][0]) for i in order])
        order = order[np.argsort(lengths, kind="stable")]
        blocks = [
            order[s : s + self.batch_size]
            for s in range(0, n, self.batch_size)
        ]
        if self.shuffle:
            self._rng.shuffle(blocks)
        return np.concatenate(blocks)

    def __iter__(self):
        order = self._epoch_order()
        for start in range(0, len(order), self.batch_size):
            idx = order[start : start + self.batch_size]
            batch = [self.pairs[i] for i in idx]
            yield self.collate(batch)

    def collate(self, batch: list[tuple[np.ndarray, np.ndarray]]):
        b = len(batch)
        max_src = max(len(s) for s, _ in batch)
        max_tgt = max(len(t) for _, t in batch) + 1  # room for BOS/EOS shift
        src = np.full((b, max_src), self.pad_id, dtype=np.int64)
        src_len = np.zeros(b, dtype=np.int64)
        tgt_in = np.full((b, max_tgt), self.pad_id, dtype=np.int64)
        tgt_out = np.full((b, max_tgt), self.pad_id, dtype=np.int64)
        tgt_mask = np.zeros((b, max_tgt), dtype=np.float64)
        for i, (s, t) in enumerate(batch):
            src[i, : len(s)] = s
            src_len[i] = len(s)
            tgt_in[i, 0] = self.bos_id
            tgt_in[i, 1 : len(t) + 1] = t
            tgt_out[i, : len(t)] = t
            tgt_out[i, len(t)] = self.eos_id
            tgt_mask[i, : len(t) + 1] = 1.0
        return src, src_len, tgt_in, tgt_out, tgt_mask
