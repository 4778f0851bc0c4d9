"""Mixed-precision bench — wire compression, rounding ablation, amp parity.

The paper trains at batch sizes where gradient exchange is the scaling
bottleneck; halving the bytes on the wire is worth exactly as much as
doubling the link.  This bench gates the claims behind
``docs/mixed_precision.md`` on the real machinery:

1. **Wire bytes** — a 4-worker :class:`~repro.parallel.cluster.SimCluster`
   reducing fp16-compressed buckets must move >= 1.8x fewer
   ``allreduce/*/bytes`` than fp32 wire (and 3.6x fewer than the
   uncompressed fp64 baseline), while the reduced gradient stays within
   an fp16-grid relative tolerance of the uncompressed one — compression
   that changed the gradient materially would be a different optimizer.
2. **Overlap timeline** — the α-β cost model prices the compressed
   buckets' communication at about half the fp32 wire time, so the
   simulated timeline's total all-reduce time must drop accordingly
   (α latency terms keep the ratio just under the raw 2x byte ratio).
3. **Stochastic rounding** — averaging many stochastically-rounded
   reductions of the *same* gradient must land nearer the true value
   than round-to-nearest's fixed bias (unbiasedness is the whole point
   of the ablation); a single stochastic draw is naturally noisier.
4. **Amp trajectory** — emulated mixed-precision training (fp16 storage,
   fp32 master weights, dynamic loss scaling) must track the full fp64
   trajectory: same final accuracy to within a small absolute margin on
   the smoke MNIST workload, with zero steps lost to overflow skips.

A full (non-smoke) run refreshes ``BENCH_mixed_precision.json`` at the
repo root.  ``REPRO_BENCH_SMOKE=1`` (the CI leg) runs the whole stack
with fewer trials and skips the timing-free gates only where they need
full-size runs.
"""

from __future__ import annotations

import os
import pathlib

import numpy as np
from conftest import merge_bench_json, save_result

from repro.experiments import build_workload
from repro.models import MnistLSTMClassifier
from repro.obs.metrics import MetricsRegistry, set_active
from repro.parallel.cluster import SimCluster
from repro.parallel.cost import CommModel

WORKERS = 4
BATCH = 64
BUCKET_MB = 0.02  # small cap => several buckets per step
ALGORITHM = "ring"
SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

BYTES_TARGET = 1.8  # fp16 wire vs fp32 wire (raw ratio is exactly 2.0)
OVERLAP_COMM_TARGET = 1.8  # timeline allreduce-time ratio on a fat link
PARITY_RTOL = 5e-3  # worst |err| / max|grad| per parameter; fp16 ~2^-11
SR_TRIALS = 8 if SMOKE else 64

# price the timeline on a bandwidth-dominated link — the regime wire
# compression exists for; the default CommModel's α swamps these tiny
# benchmark buckets and would measure latency, not bytes
COMM = CommModel(alpha=1e-7, beta=1e-9)

AMP_EPOCHS = 1 if SMOKE else 2
AMP_ACC_MARGIN = 0.05  # amp accuracy within 5 points of fp64

BENCH_JSON = (
    pathlib.Path(__file__).resolve().parent.parent
    / "BENCH_mixed_precision.json"
)


def _make_model():
    return MnistLSTMClassifier(
        rng=1, input_dim=14, transform_dim=32, hidden=32
    )


def _make_batch():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((BATCH, 14, 14))
    y = rng.integers(0, 10, size=BATCH)
    return (x, y)


def _reduce_once(model, batch, wire_dtype, stochastic_rounding=False, seed=0):
    """One all-reduced gradient step; returns (grads, wire bytes, timeline)."""
    cluster = SimCluster(
        list(model.parameters()),
        model.loss,
        WORKERS,
        algorithm=ALGORITHM,
        bucket_mb=BUCKET_MB,
        comm=COMM,
        wire_dtype=wire_dtype,
        stochastic_rounding=stochastic_rounding,
    )
    if stochastic_rounding:
        cluster.buckets._wire_rng = np.random.default_rng(seed)
    reg = MetricsRegistry()
    prev = set_active(reg)
    try:
        _, grads = cluster.gradient_step(batch)
    finally:
        set_active(prev)
    bytes_moved = reg.counter(f"allreduce/{ALGORITHM}/bytes").value
    timeline = cluster.simulate_step(BATCH // WORKERS)
    return [g.copy() for g in grads], bytes_moved, timeline.total_comm


def _parity(grads, base):
    """Worst per-parameter scale-relative deviation from the baseline.

    Per element the fp16 grid is only ~2^-11 relative to the *bucket's*
    largest values, so near-zero elements carry absolute error from
    their neighbours' scale — the meaningful bound is max error over
    each parameter's gradient magnitude, not element-wise rtol.
    """
    worst = 0.0
    for g, b in zip(grads, base):
        scale = float(np.abs(b).max()) or 1.0
        err = float(np.abs(g - b).max())
        worst = max(worst, err / scale)
    return worst


def test_fp16_wire_compression(benchmark):
    model = _make_model()
    batch = _make_batch()

    def measure():
        out = {}
        for wire in (None, "fp32", "fp16", "bf16"):
            out[wire or "fp64"] = _reduce_once(model, batch, wire)
        return out

    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    base_grads, fp64_bytes, fp64_comm = results["fp64"]
    _, fp32_bytes, fp32_comm = results["fp32"]
    fp16_grads, fp16_bytes, fp16_comm = results["fp16"]
    bf16_grads, bf16_bytes, _ = results["bf16"]

    ratio_fp32 = fp32_bytes / fp16_bytes
    ratio_fp64 = fp64_bytes / fp16_bytes
    comm_ratio = fp32_comm / fp16_comm
    fp16_err = _parity(fp16_grads, base_grads)
    bf16_err = _parity(bf16_grads, base_grads)

    # stochastic rounding: the *average* of many independently rounded
    # reductions must beat round-to-nearest's fixed bias
    flat_base = np.concatenate([g.ravel() for g in base_grads])
    flat_rtn = np.concatenate([g.ravel() for g in fp16_grads])
    acc = np.zeros_like(flat_base)
    for trial in range(SR_TRIALS):
        sr_grads, _, _ = _reduce_once(
            model, batch, "fp16", stochastic_rounding=True, seed=trial
        )
        acc += np.concatenate([g.ravel() for g in sr_grads])
    sr_mean_err = float(np.abs(acc / SR_TRIALS - flat_base).mean())
    rtn_err = float(np.abs(flat_rtn - flat_base).mean())

    save_result(
        "mixed_precision_wire",
        (
            f"fp16-compressed all-reduce ({WORKERS} workers, {ALGORITHM}, "
            f"{BUCKET_MB} MiB buckets)\n"
            f"  bytes    : fp64 {fp64_bytes:.0f}  fp32 {fp32_bytes:.0f}  "
            f"fp16 {fp16_bytes:.0f}  bf16 {bf16_bytes:.0f}\n"
            f"  reduction: {ratio_fp32:.2f}x vs fp32, {ratio_fp64:.2f}x vs "
            f"fp64  (target >= {BYTES_TARGET}x / {2 * BYTES_TARGET}x)\n"
            f"  timeline : allreduce time {comm_ratio:.2f}x faster than "
            f"fp32 wire (target >= {OVERLAP_COMM_TARGET}x)\n"
            f"  parity   : fp16 rel err {fp16_err:.2e}  bf16 {bf16_err:.2e} "
            f"(rtol {PARITY_RTOL})\n"
            f"  rounding : rtn mean err {rtn_err:.2e}  ->  "
            f"{SR_TRIALS}-trial stochastic mean err {sr_mean_err:.2e}"
        ),
    )

    assert fp16_err <= PARITY_RTOL, (
        f"fp16 wire gradient off by {fp16_err:.2e} relative "
        f"(rtol {PARITY_RTOL})"
    )
    assert ratio_fp32 >= BYTES_TARGET, (
        f"fp16 wire only {ratio_fp32:.2f}x fewer bytes than fp32 "
        f"(need >= {BYTES_TARGET}x)"
    )
    assert ratio_fp64 >= 2 * BYTES_TARGET, (
        f"fp16 wire only {ratio_fp64:.2f}x fewer bytes than fp64 "
        f"(need >= {2 * BYTES_TARGET}x)"
    )
    assert comm_ratio >= OVERLAP_COMM_TARGET, (
        f"timeline comm only {comm_ratio:.2f}x faster "
        f"(need >= {OVERLAP_COMM_TARGET}x)"
    )
    assert sr_mean_err < rtn_err, (
        f"stochastic-rounding mean error {sr_mean_err:.2e} did not beat "
        f"round-to-nearest bias {rtn_err:.2e}"
    )
    if SMOKE:
        return
    merge_bench_json(
        BENCH_JSON,
        {
            "wire": {
                "workers": WORKERS,
                "algorithm": ALGORITHM,
                "bucket_mb": BUCKET_MB,
                "bytes": {
                    "fp64": fp64_bytes,
                    "fp32": fp32_bytes,
                    "fp16": fp16_bytes,
                    "bf16": bf16_bytes,
                },
                "reduction_vs_fp32": round(ratio_fp32, 2),
                "reduction_vs_fp64": round(ratio_fp64, 2),
                "target_reduction": BYTES_TARGET,
                "timeline_comm_speedup": round(comm_ratio, 2),
                "fp16_rel_err": float(f"{fp16_err:.3e}"),
                "bf16_rel_err": float(f"{bf16_err:.3e}"),
                "parity_rtol": PARITY_RTOL,
                "stochastic_rounding": {
                    "trials": SR_TRIALS,
                    "rtn_mean_err": float(f"{rtn_err:.3e}"),
                    "sr_mean_err": float(f"{sr_mean_err:.3e}"),
                },
            }
        }
    )


def test_amp_training_parity(benchmark):
    wl = build_workload("mnist", "smoke")
    schedule = wl.legw_schedule(wl.base_batch, AMP_EPOCHS)

    def measure():
        reg = MetricsRegistry()
        prev = set_active(reg)
        try:
            amp = wl.run(
                wl.base_batch, schedule, epochs=AMP_EPOCHS, amp=True
            )
        finally:
            set_active(prev)
        full = wl.run(
            wl.base_batch, schedule, epochs=AMP_EPOCHS, amp=False
        )
        return amp, full, reg

    amp, full, reg = benchmark.pedantic(measure, rounds=1, iterations=1)
    amp_acc = amp.final_metrics["accuracy"]
    full_acc = full.final_metrics["accuracy"]
    skipped = reg.counter("amp/steps_skipped").value
    clean = reg.counter("amp/steps_clean").value

    save_result(
        "mixed_precision_amp",
        (
            f"amp training parity (mnist smoke, {AMP_EPOCHS} epoch(s), "
            f"batch {wl.base_batch})\n"
            f"  accuracy : fp64 {full_acc:.4f}  amp {amp_acc:.4f}  "
            f"(margin {AMP_ACC_MARGIN})\n"
            f"  scaler   : {clean:.0f} clean steps, {skipped:.0f} skipped"
        ),
    )

    assert not amp.diverged and not full.diverged
    assert skipped == 0, f"{skipped:.0f} steps lost to overflow skips"
    assert amp_acc >= full_acc - AMP_ACC_MARGIN, (
        f"amp accuracy {amp_acc:.4f} fell more than {AMP_ACC_MARGIN} "
        f"below fp64's {full_acc:.4f}"
    )
    if SMOKE:
        return
    merge_bench_json(
        BENCH_JSON,
        {
            "amp": {
                "workload": "mnist-smoke",
                "epochs": AMP_EPOCHS,
                "batch": wl.base_batch,
                "fp64_accuracy": round(full_acc, 4),
                "amp_accuracy": round(amp_acc, 4),
                "accuracy_margin": AMP_ACC_MARGIN,
                "steps_clean": int(clean),
                "steps_skipped": int(skipped),
            }
        }
    )
