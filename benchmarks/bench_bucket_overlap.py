"""Bucketed all-reduce bench — memory bound, overlap ablation, step-time gate.

Three claims from docs/parallel.md, checked against the real machinery:

1. **Memory**: the bucketed reduction's transient working set is bounded
   by the largest bucket, not the whole model — the planner's analytic
   bound must undercut the monolithic one by the bucket/model ratio.
2. **Overlap**: under the α-β timeline, every bucketed schedule exposes
   at most the monolithic baseline's communication, and a well-chosen
   bucket size hides the bulk of it (exposure is U-shaped in bucket size:
   tiny buckets pay per-collective latency, huge ones can't overlap).
3. **Step time**: an actual bucketed ``SimCluster.gradient_step`` costs
   about the same wall clock as the monolithic path (the packing copies
   must not eat the memory win) while producing the same gradient to
   round-off.

Steps are interleaved monolithic/bucketed and scored min-of-N, like the
fused-kernel bench.  ``REPRO_BENCH_SMOKE=1`` runs one round and skips the
timing gate, keeping CI off shared-runner timing.
"""

from __future__ import annotations

import time

import numpy as np
from conftest import SMOKE, save_result

from repro.models import MnistLSTMClassifier
from repro.parallel.buckets import GradientBuckets
from repro.parallel.cluster import SimCluster
from repro.parallel.cost import CommModel

WORKERS = 4
BATCH = 64
ROUNDS = 8
# the bucketed step may not cost more than this multiple of monolithic
STEP_TIME_BUDGET = 1.5
BUCKET_MBS = (0.5, 2.0, 8.0)


def _make_cluster(model, bucket_mb):
    return SimCluster(
        list(model.parameters()), model.loss, WORKERS, bucket_mb=bucket_mb
    )


def test_bucketed_step_time_and_memory(benchmark):
    rng = np.random.default_rng(0)
    model = MnistLSTMClassifier(rng=1, input_dim=14, transform_dim=32, hidden=32)
    x = rng.standard_normal((BATCH, 14, 14))
    y = rng.integers(0, 10, size=BATCH)
    batch = (x, y)
    mono = _make_cluster(model, None)
    bucketed = _make_cluster(model, 0.02)  # small cap => several buckets
    assert bucketed.buckets.num_buckets > 1

    # same gradient to round-off before any timing
    _, g_mono = mono.gradient_step(batch)
    g_mono = [g.copy() for g in g_mono]
    _, g_buck = bucketed.gradient_step(batch)
    for a, b in zip(g_mono, g_buck):
        np.testing.assert_allclose(a, b, atol=1e-12)

    # the analytic transient-memory bound must shrink with the buckets
    plan = bucketed.buckets
    ratio = plan.reduce_peak_bytes(WORKERS) / plan.monolithic_peak_bytes(WORKERS)
    assert ratio <= plan.max_bucket_bytes / plan.total_bytes + 1e-9

    rounds = 1 if SMOKE else ROUNDS

    def measure():
        t_mono, t_buck = [], []
        for _ in range(rounds):
            t0 = time.perf_counter()
            mono.gradient_step(batch)
            t_mono.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            bucketed.gradient_step(batch)
            t_buck.append(time.perf_counter() - t0)
        return min(t_mono), min(t_buck)

    t_mono, t_buck = benchmark.pedantic(measure, rounds=1, iterations=1)

    # the simulated overlap ablation (α-β model, GNMT-sized gradient)
    comm = CommModel()
    params = [((260_000,), "float32")] * 250  # ~65M fp32 params in blocks
    lines = []
    best_overlap = 0.0
    backward = 0.5  # seconds of backward window to hide comm under
    for mb in BUCKET_MBS:
        tl = GradientBuckets(params, bucket_mb=mb).simulate_overlap(
            16, backward, comm=comm
        )
        assert tl.step_time <= tl.monolithic_step_time + 1e-12
        best_overlap = max(best_overlap, tl.overlap_fraction)
        lines.append(
            f"  {mb:5.1f} MiB buckets: exposed {tl.exposed_comm * 1e3:7.2f} ms"
            f"  overlap {tl.overlap_fraction:6.1%}"
            f"  (monolithic exposes "
            f"{(tl.monolithic_step_time - backward) * 1e3:7.2f} ms)"
        )

    save_result(
        "bucket_overlap",
        (
            f"bucketed all-reduce (mnist-lstm, {WORKERS} workers, "
            f"batch {BATCH}, min of {rounds} interleaved)\n"
            f"  monolithic : {t_mono * 1e3:8.1f} ms/step\n"
            f"  bucketed   : {t_buck * 1e3:8.1f} ms/step  "
            f"({plan.num_buckets} buckets, "
            f"transient memory x{ratio:.2f} of monolithic)\n"
            f"overlap ablation (65M fp32 gradient, ring, 16 workers, "
            f"alpha-beta model):\n" + "\n".join(lines)
        ),
    )
    # some bucket size in the sweep must hide at least 3/4 of the comm
    assert best_overlap >= 0.75, (
        f"best overlap fraction only {best_overlap:.1%} across {BUCKET_MBS}"
    )
    if not SMOKE:
        assert t_buck <= t_mono * STEP_TIME_BUDGET, (
            f"bucketed step {t_buck * 1e3:.1f} ms vs monolithic "
            f"{t_mono * 1e3:.1f} ms (budget {STEP_TIME_BUDGET}x)"
        )
