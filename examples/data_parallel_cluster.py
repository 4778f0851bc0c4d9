#!/usr/bin/env python
"""Why large batches buy wall-clock time: the data-parallel view.

Part 1 — correctness.  Runs one training step of the MNIST-LSTM two ways:
single-process with the full batch, and on a simulated 4-worker cluster
(shard the batch, per-worker backward with the real autograd engine, ring
all-reduce the gradients) — and shows the parameter updates are
bit-for-bit identical.  This is the equivalence that makes single-process
LEGW experiments exact simulations of the paper's TPU-pod runs.

Part 2 — performance.  Evaluates the calibrated device cost model on the
paper-scale batch ladders and prints the Figure 4 speedup bars (GNMT's
2h -> 33min endpoints, 5.3x average), plus the all-reduce cost comparison
that shows why ring aggregation keeps communication off the critical path.

Part 3 — overlap.  Plans DDP-style gradient buckets for a paper-scale
model and simulates the comm/compute timeline: bucket-by-bucket reduction
in backward-completion order hides most of the communication under the
remaining backward pass, where the monolithic all-reduce exposes all of
it (docs/parallel.md).

Run:  python examples/data_parallel_cluster.py        (seconds)
"""

from __future__ import annotations

import numpy as np

from repro.data import make_sequential_mnist
from repro.models import MnistLSTMClassifier
from repro.optim import Momentum
from repro.parallel import (
    APP_DEVICE_MODELS,
    BACKWARD_FRACTION,
    CommModel,
    GradientBuckets,
    SimCluster,
    naive_time,
    ring_time,
    speedup,
)
from repro.utils.tables import Table


def part1_equivalence() -> None:
    print("-- Part 1: k-worker SGD == large-batch SGD, exactly --")
    train, _ = make_sequential_mnist(64, 8, rng=0, size=8)
    batch = (train.inputs, train.targets)

    ref = MnistLSTMClassifier(rng=7, input_dim=8, transform_dim=8, hidden=8)
    dist = MnistLSTMClassifier(rng=7, input_dim=8, transform_dim=8, hidden=8)

    ref.zero_grad()
    ref.loss(batch).backward()
    Momentum(ref, lr=0.1).step()

    cluster = SimCluster(dist.parameters(), dist.loss, n_workers=4, algorithm="ring")
    cluster.gradient_step(batch)
    Momentum(dist, lr=0.1).step()

    worst = max(
        np.abs(a.data - b.data).max()
        for a, b in zip(ref.parameters(), dist.parameters())
    )
    print(f"max parameter difference after one step: {worst:.2e}\n")


def part2_speedups() -> None:
    print("-- Part 2: the Figure 4 speedups from the device cost model --")
    table = Table(
        "fixed-epoch speedup, baseline batch -> LEGW batch",
        ["app", "base", "LEGW", "speedup"],
    )
    ladder = {
        "mnist": (128, 8192),
        "ptb_small": (20, 640),
        "ptb_large": (20, 640),
        "gnmt": (256, 4096),
    }
    values = []
    for app, (b0, b1) in ladder.items():
        s = speedup(APP_DEVICE_MODELS[app], b0, b1)
        values.append(s)
        table.add_row([app, b0, b1, s])
    table.add_row(["average", "-", "-", float(np.mean(values))])
    print(table.render())

    print("\nall-reduce cost for a 65M-param fp32 gradient (alpha-beta model):")
    comm = CommModel()
    nbytes = 4 * 65_000_000
    for p in (4, 16, 64):
        print(
            f"  {p:3d} workers: ring {ring_time(nbytes, p, comm):7.3f}s   "
            f"naive {naive_time(nbytes, p, comm):7.3f}s"
        )


def part3_overlap() -> None:
    print("\n-- Part 3: bucketed all-reduce hides comm under backward --")
    # a 65M-param fp32 model as ~256 layer-sized blocks, 16 workers
    params = [((254_000,), "float32")] * 256
    backward = APP_DEVICE_MODELS["gnmt"].iteration_time(256) * BACKWARD_FRACTION
    comm = CommModel()
    for mb in (1.0, 25.0, None):
        plan = GradientBuckets(params, bucket_mb=mb)
        tl = plan.simulate_overlap(16, backward, algorithm="ring", comm=comm)
        label = "monolithic" if mb is None else f"{mb:4.0f} MiB buckets"
        print(
            f"  {label:16s}: {plan.num_buckets:3d} bucket(s), "
            f"exposed comm {tl.exposed_comm:8.4f}  "
            f"({tl.overlap_fraction:6.1%} hidden), step {tl.step_time:9.2f}"
        )


if __name__ == "__main__":
    part1_equivalence()
    part2_speedups()
    part3_overlap()
