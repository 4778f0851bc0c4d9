"""All-reduce collectives, simulated numerically over per-worker buffers.

Each algorithm takes ``buffers`` — one 1-D array per worker — and
returns the list of per-worker results, every one equal to the elementwise
sum (bit-for-bit identical across workers, like a real deterministic
all-reduce).  The implementations follow the classic communication
schedules step by step (ring reduce-scatter + all-gather; recursive
halving/doubling; gather-to-root + broadcast) rather than calling
``np.sum`` directly, so the tests can count rounds and verify the
schedules, and the ablation bench can relate algorithm structure to the
cost model's predictions.

Dtype contract: the result dtype is the NumPy promotion of the input
buffers' dtypes (identical buffers round-trip their dtype exactly).
Accumulation happens in float64 internally for numerical stability, but
the returned arrays are cast back — a float32 gradient all-reduce returns
float32, like a real fp32 collective.

For gradient averaging the clusters use :func:`allreduce_mean_single`,
which runs the same schedule but materialises only one result array
instead of ``p`` identical replicas (a synchronous parent installing one
averaged gradient has no use for the other ``p − 1`` copies).  Each
schedule is written once (``_ring``, ``_tree``, ``_naive``) and both
entry points call it, so the counters and values cannot drift apart.

When an observability metrics registry is active (see
:mod:`repro.obs.metrics`), every call records per-algorithm counters:
``allreduce/<algo>/calls``, ``allreduce/<algo>/rounds`` (sequential
communication steps of the schedule) and ``allreduce/<algo>/bytes``
(total payload moved across all workers, in the buffers' own dtype).
With no registry active the accounting is skipped entirely.
"""

from __future__ import annotations

import numpy as np

from repro.obs.metrics import get_active


def _record(algo: str, rounds: int, bytes_moved: float) -> None:
    reg = get_active()
    if reg is None:
        return
    reg.counter(f"allreduce/{algo}/calls").inc()
    reg.counter(f"allreduce/{algo}/rounds").inc(rounds)
    reg.counter(f"allreduce/{algo}/bytes").inc(bytes_moved)


def _validate(buffers: list[np.ndarray]) -> tuple[int, int, np.dtype]:
    if not buffers:
        raise ValueError("need at least one worker buffer")
    n = buffers[0].size
    for b in buffers:
        if b.ndim != 1 or b.size != n:
            raise ValueError("all buffers must be 1-D and equally sized")
    return len(buffers), n, np.result_type(*buffers)


def _ring(buffers: list[np.ndarray], replicas: bool) -> list[np.ndarray]:
    """The ring schedule; the sum on every worker, or on worker 0 only."""
    p, n, dtype = _validate(buffers)
    if p == 1:
        _record("ring", 0, 0)
        return [buffers[0].copy()]
    # each of the 2(p-1) rounds circulates every chunk index exactly once,
    # i.e. n elements of payload per round across the ring
    _record("ring", 2 * (p - 1), 2 * (p - 1) * n * dtype.itemsize)
    chunks = [np.array_split(b.astype(np.float64).copy(), p) for b in buffers]
    # reduce-scatter: at step s, worker w sends chunk (w - s) to worker w+1
    for step in range(p - 1):
        transfers = []
        for w in range(p):
            src_chunk = (w - step) % p
            dst = (w + 1) % p
            transfers.append((dst, src_chunk, chunks[w][src_chunk]))
        for dst, c, data in transfers:
            chunks[dst][c] = chunks[dst][c] + data
    # all-gather: circulate the finalised chunks
    for step in range(p - 1):
        transfers = []
        for w in range(p):
            src_chunk = (w + 1 - step) % p
            dst = (w + 1) % p
            transfers.append((dst, src_chunk, chunks[w][src_chunk]))
        for dst, c, data in transfers:
            chunks[dst][c] = data.copy()
    return [
        np.concatenate(chunks[w]).astype(dtype, copy=False)
        for w in range(p if replicas else 1)
    ]


def _tree(buffers: list[np.ndarray], replicas: bool) -> list[np.ndarray]:
    """The recursive-doubling schedule; the sum on every worker, or on
    worker 0 only."""
    p, n, dtype = _validate(buffers)
    pow2 = 1
    while pow2 * 2 <= p:
        pow2 *= 2
    exchange_rounds = pow2.bit_length() - 1  # log2(pow2)
    fold_rounds = 2 if p != pow2 else 0  # pre-fold + final broadcast
    _record(
        "tree",
        exchange_rounds + fold_rounds,
        (exchange_rounds * pow2 * n + 2 * (p - pow2) * n) * dtype.itemsize,
    )
    work = [b.astype(np.float64).copy() for b in buffers]
    # fold excess workers into the first block
    for extra in range(pow2, p):
        work[extra - pow2] = work[extra - pow2] + work[extra]
    step = 1
    while step < pow2:
        new = [w.copy() for w in work[:pow2]]
        for w in range(pow2):
            partner = w ^ step
            new[w] = work[w] + work[partner]
        work[:pow2] = new
        step *= 2
    for extra in range(pow2, p):
        work[extra] = work[extra - pow2].copy()
    return [w.astype(dtype, copy=False) for w in work[: p if replicas else 1]]


def _naive(buffers: list[np.ndarray], replicas: bool) -> list[np.ndarray]:
    """Gather-to-root + broadcast; the sum on every worker, or the root's."""
    p, n, dtype = _validate(buffers)
    # one gather round and one broadcast round, each moving (p-1)·n values
    _record("naive", 2 if p > 1 else 0, 2 * (p - 1) * n * dtype.itemsize)
    root = buffers[0].astype(np.float64).copy()
    for b in buffers[1:]:
        root = root + b
    root = root.astype(dtype, copy=False)
    return [root.copy() for _ in range(p)] if replicas else [root]


def ring_allreduce(buffers: list[np.ndarray]) -> list[np.ndarray]:
    """Ring all-reduce: reduce-scatter then all-gather, 2(p−1) rounds.

    Each worker ends with the exact elementwise sum.  Chunk ``i`` is
    finalised on worker ``(i+1) mod p`` after the reduce-scatter phase, as
    in the Baidu/Horovod ring.
    """
    return _ring(buffers, replicas=True)


def tree_allreduce(buffers: list[np.ndarray]) -> list[np.ndarray]:
    """Recursive-doubling all-reduce (power-of-two worker counts).

    ``log2(p)`` rounds; in round ``s`` worker ``w`` exchanges its full
    buffer with partner ``w XOR 2^s`` and both add.  Non-power-of-two
    counts fall back to a pre-reduction of the excess workers onto the
    leading power-of-two block, then a broadcast back.
    """
    return _tree(buffers, replicas=True)


def naive_allreduce(buffers: list[np.ndarray]) -> list[np.ndarray]:
    """Gather-to-root + broadcast — the O(p·n) strawman baseline."""
    return _naive(buffers, replicas=True)


_SCHEDULES = {"ring": _ring, "tree": _tree, "naive": _naive}

ALGORITHMS: tuple[str, ...] = tuple(_SCHEDULES)


def _check_algorithm(algorithm: str) -> None:
    if algorithm not in _SCHEDULES:
        raise ValueError(f"unknown algorithm {algorithm!r}")


def allreduce_mean(
    buffers: list[np.ndarray], algorithm: str = "ring"
) -> list[np.ndarray]:
    """All-reduce then divide by the worker count (gradient averaging)."""
    _check_algorithm(algorithm)
    summed = _SCHEDULES[algorithm](buffers, replicas=True)
    p = len(buffers)
    return [s / p for s in summed]


def allreduce_mean_single(
    buffers: list[np.ndarray], algorithm: str = "ring"
) -> np.ndarray:
    """Like :func:`allreduce_mean`, but materialise only worker 0's result.

    Runs the identical communication schedule (same rounds/bytes counters,
    same floating-point association, so the value is bit-identical to
    ``allreduce_mean(...)[0]``), but skips building the ``p − 1`` replica
    arrays every synchronous-parent caller immediately discards.
    """
    _check_algorithm(algorithm)
    return _SCHEDULES[algorithm](buffers, replicas=False)[0] / len(buffers)
