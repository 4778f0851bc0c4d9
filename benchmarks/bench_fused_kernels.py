"""Fused-kernel speedup bench — the reason ``repro.tensor.fused`` exists.

Times one full MNIST-LSTM training step (forward, backward, momentum
update) at the paper's MNIST geometry — 28 pixel-row timesteps into a
128-unit cell — at large batch, on both engine paths.  The fused path
replaces the reference per-timestep graph (~14 nodes/step, ``np.add.at``
scatters on every slice backward) with one ``fused_lstm_layer`` node per
layer plus fused loss and optimizer updates, and must win by >= 1.5x.

Steps are interleaved reference/fused and scored min-of-N, which cancels
the machine-wide frequency drift a wall-clock mean would absorb.

Set ``REPRO_BENCH_SMOKE=1`` (the CI leg does) to run one interleaved
round and skip the speedup assertion: that exercises the harness without
gating CI on shared-runner timing.
"""

from __future__ import annotations

import time

import numpy as np
from conftest import SMOKE, save_result

from repro.nn import LSTM, Linear
from repro.nn.module import Module
from repro.optim.sgd import Momentum
from repro.tensor import Tensor, cross_entropy, fused_kernels
from repro.utils.rng import spawn

SEQ_LEN, INPUT, HIDDEN, CLASSES = 28, 28, 128, 10  # paper MNIST-LSTM
BATCH = 256
ROUNDS = 12
TARGET = 1.5


class _MnistLSTM(Module):
    def __init__(self, rng):
        super().__init__()
        r1, r2 = spawn(rng, 2)
        self.lstm = LSTM(INPUT, HIDDEN, num_layers=1, rng=r1)
        self.head = Linear(HIDDEN, CLASSES, r2)

    def forward(self, x):
        out, _ = self.lstm(x)
        return self.head(out[-1])


def _make_step(fused_flag, x, y):
    with fused_kernels(fused_flag):
        model = _MnistLSTM(np.random.default_rng(1))
        opt = Momentum(model.named_parameters(), lr=0.01)

    def step():
        with fused_kernels(fused_flag):
            opt.zero_grad()
            loss = cross_entropy(model(Tensor(x)), y)
            loss.backward()
            opt.step()
            return float(loss.data)

    return step


def test_fused_training_step_speedup(benchmark):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((SEQ_LEN, BATCH, INPUT))
    y = rng.integers(0, CLASSES, size=BATCH)
    ref_step = _make_step(False, x, y)
    fus_step = _make_step(True, x, y)

    # identical losses before any timing: the two paths train the same model
    assert abs(ref_step() - fus_step()) < 1e-9

    rounds = 1 if SMOKE else ROUNDS

    def measure():
        ref_times, fus_times = [], []
        for _ in range(rounds):
            t0 = time.perf_counter()
            ref_step()
            ref_times.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            fus_step()
            fus_times.append(time.perf_counter() - t0)
        return min(ref_times), min(fus_times)

    ref, fus = benchmark.pedantic(measure, rounds=1, iterations=1)
    speedup = ref / fus
    save_result(
        "fused_kernels",
        (
            f"fused-kernel training step (mnist-lstm, T={SEQ_LEN}, "
            f"H={HIDDEN}, batch {BATCH}, min of {rounds} interleaved)\n"
            f"  reference : {ref * 1e3:8.1f} ms/step\n"
            f"  fused     : {fus * 1e3:8.1f} ms/step\n"
            f"  speedup   : {speedup:8.2f}x  (target >= {TARGET}x)"
        ),
    )
    if not SMOKE:
        assert speedup >= TARGET, (
            f"fused path only {speedup:.2f}x faster (need >= {TARGET}x)"
        )
