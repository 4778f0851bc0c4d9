"""Dynamic-batching serving bench — the reason ``repro.serve`` exists.

Large-batch *training* amortises per-step overhead across many samples;
this bench shows the same economics at inference time.  One MNIST-LSTM
over the paper's 28 pixel-row timesteps (32-unit cell — small enough
that the batch-1 forward is overhead-bound, the regime dynamic batching
exists for) is served two ways over identical weights:

* **sequential ceiling** — batch size pinned to 1, one closed-loop
  client issuing requests back to back: every request pays the full
  per-forward overhead alone, and the measured throughput is the best a
  no-batching server can do;
* **dynamic** — an open-loop Poisson arrival stream *offered at 3.5x
  that ceiling* to a :class:`~repro.serve.DynamicBatcher` coalescing up
  to 64 requests.

The gate: the dynamic server must absorb the whole stream — nothing
shed, every request served — which puts its throughput >= 3x the
sequential ceiling, while holding p95 latency inside the budget (the
larger of 25 ms and 5x the sequential p95: batching may queue a little,
it may not stall).  A second run at the same seed and rate must return
identical per-request labels — the load is seed-deterministic end to
end.

The second bench scales *out* instead of *up*: ``test_fleet_replica_scaling``
runs the same workload through a :class:`~repro.serve.Router` fleet of
1 → 2 → 4 replica processes, each offered the same per-replica load, and
gates near-linear aggregate throughput (>= 3x at 4 replicas) with zero
sheds inside a fixed p95 budget.  Replica compute is paced by
:class:`~repro.serve.PacedEngine` (a fixed-plus-per-sample device model,
the serving twin of the overlap bench's α–β link model): paced sleeps
overlap freely across processes, so the measurement isolates the routing
machinery — dispatch, IPC, policy quality — from how many host cores the
bench machine happens to have.  The fleet section also drives a
coordinated hot-swap under traffic and records that zero post-convergence
responses carried a stale version.

The third bench gates the int8 post-training-quantization path
(``docs/mixed_precision.md``): the same classifier served through
:class:`~repro.serve.quantize.QuantizedMnistRunner` must return the
*same label for every request* as the float64 engine while beating its
batched throughput — the win that justifies ``--quantize int8`` existing
at all.

A full (non-smoke) run refreshes its own section of
``BENCH_serving.json`` at the repo root (single-server keys, the
``fleet`` section and the ``int8`` section merge without clobbering
each other) — the committed reference numbers for this machine class.

Set ``REPRO_BENCH_SMOKE=1`` (the CI leg does) to run a short stream and
skip the gates: that exercises the whole stack — batcher, server thread,
router, replica processes, load generator — without gating CI on
shared-runner timing.
"""

from __future__ import annotations

import os
import pathlib
import time

import numpy as np
from conftest import merge_bench_json, save_result

from repro.models import MnistLSTMClassifier
from repro.serve import (
    DynamicBatcher,
    InferenceEngine,
    PacedEngine,
    Router,
    Server,
    run_closed_loop,
    run_open_loop,
)
from repro.utils.checkpoint import CheckpointManager

SEQ_LEN, INPUT, HIDDEN = 28, 28, 32  # paper timesteps, overhead-bound cell
SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
TARGET_SPEEDUP = 3.0
OFFERED_FACTOR = 3.5  # open-loop rate relative to the sequential ceiling
MAX_BATCH = 64
P95_FLOOR_MS = 25.0
P95_FACTOR = 5.0
SEQ_RPC = 4 if SMOKE else 64
DURATION = 0.2 if SMOKE else 2.0
BENCH_JSON = pathlib.Path(__file__).resolve().parent.parent / "BENCH_serving.json"

# -- fleet bench knobs -------------------------------------------------------
# paced service time: 50 ms per dispatch + 1 ms per sample; a full batch
# of 16 takes 66 ms, so one replica's ceiling is 16/0.066 ≈ 242 req/s
PACE_FIXED_MS = 50.0
PACE_SAMPLE_MS = 1.0
FLEET_MAX_BATCH = 16
FLEET_UTILISATION = 0.7  # offered load as a fraction of n * ceiling
FLEET_COUNTS = (1, 2) if SMOKE else (1, 2, 4)
FLEET_DURATION = 1.0 if SMOKE else 5.0
FLEET_TARGET = 3.0  # aggregate throughput at 4 replicas vs 1
FLEET_P95_BUDGET_MS = 5.0 * (PACE_FIXED_MS + FLEET_MAX_BATCH * PACE_SAMPLE_MS)

# -- int8 PTQ bench knobs ----------------------------------------------------
INT8_BATCH = 256  # serving-scale batch: big enough that BLAS dominates
INT8_ROUNDS = 3 if SMOKE else 20
INT8_PAYLOAD_SEED = 1
INT8_TARGET_SPEEDUP = 1.05  # int8 must win, with margin over timer noise


def _payload(rng: np.random.Generator, i: int):
    return rng.standard_normal((SEQ_LEN, INPUT)), None


def _make_server(max_batch: int) -> Server:
    """A server over freshly built (hence identical) weights."""
    model = MnistLSTMClassifier(
        rng=0, input_dim=INPUT, transform_dim=32, hidden=HIDDEN
    )
    return Server(
        InferenceEngine(model, "mnist"),
        DynamicBatcher(
            max_batch_size=max_batch, max_wait_ms=1.0, max_queue_depth=1024
        ),
    )


def _sequential_ceiling():
    with _make_server(max_batch=1) as server:
        return run_closed_loop(
            server, _payload, clients=1, requests_per_client=SEQ_RPC, seed=0
        )


def _offered_stream(rate: float):
    with _make_server(MAX_BATCH) as server:
        report = run_open_loop(
            server, _payload, rate=rate, duration=DURATION, seed=0
        )
        totals = server.counters()
    labels = [req.result["label"] for req in report.requests if not req.shed]
    return report, totals, labels


def test_dynamic_batching_throughput(benchmark):
    def measure():
        seq = _sequential_ceiling()
        rate = OFFERED_FACTOR * seq.throughput
        dyn = _offered_stream(rate)
        return seq, rate, dyn

    seq, rate, (dyn, totals, labels) = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )

    # same seed, same rate, fresh server: bit-identical per-request labels
    _, _, again = _offered_stream(rate)
    assert labels == again, "same-seed run must reproduce every label"

    speedup = dyn.throughput / seq.throughput
    p95_budget = max(P95_FLOOR_MS, P95_FACTOR * seq.p95)
    mean_batch = dyn.completed / max(1, totals["batches"])
    save_result(
        "serving",
        (
            f"dynamic-batching serving (mnist-lstm, T={SEQ_LEN}, H={HIDDEN})\n"
            f"  sequential : {seq.throughput:8.1f} req/s  "
            f"p50 {seq.p50:6.1f} / p95 {seq.p95:6.1f} ms  (batch 1)\n"
            f"  dynamic    : {dyn.throughput:8.1f} req/s  "
            f"p50 {dyn.p50:6.1f} / p95 {dyn.p95:6.1f} ms  "
            f"(offered {rate:.0f}/s, mean batch {mean_batch:.1f}, "
            f"shed {dyn.shed})\n"
            f"  speedup    : {speedup:8.2f}x  (target >= {TARGET_SPEEDUP}x, "
            f"p95 budget {p95_budget:.1f} ms)"
        ),
    )
    if SMOKE:
        return
    assert dyn.shed == 0 and dyn.completed == dyn.submitted, (
        f"server shed {dyn.shed} of {dyn.submitted} at {rate:.0f} req/s"
    )
    assert speedup >= TARGET_SPEEDUP, (
        f"dynamic batching only {speedup:.2f}x sequential "
        f"(need >= {TARGET_SPEEDUP}x)"
    )
    assert dyn.p95 <= p95_budget, (
        f"dynamic p95 {dyn.p95:.1f} ms blew the {p95_budget:.1f} ms budget"
    )
    merge_bench_json(
            BENCH_JSON,
            {
                "bench": "serving",
                "workload": "mnist-lstm",
                "geometry": {"seq_len": SEQ_LEN, "input": INPUT, "hidden": HIDDEN},
                "sequential": {
                    "mode": "closed-loop",
                    "clients": 1,
                    "requests": seq.completed,
                    "throughput_rps": round(seq.throughput, 1),
                    "p50_ms": round(seq.p50, 2),
                    "p95_ms": round(seq.p95, 2),
                    "p99_ms": round(seq.p99, 2),
                },
                "dynamic": {
                    "mode": "open-loop",
                    "offered_rps": round(rate, 1),
                    "requests": dyn.completed,
                    "shed": dyn.shed,
                    "max_batch": MAX_BATCH,
                    "mean_batch": round(mean_batch, 1),
                    "batches": totals["batches"],
                    "throughput_rps": round(dyn.throughput, 1),
                    "p50_ms": round(dyn.p50, 2),
                    "p95_ms": round(dyn.p95, 2),
                    "p99_ms": round(dyn.p99, 2),
                },
                "speedup": round(speedup, 2),
                "target_speedup": TARGET_SPEEDUP,
                "p95_budget_ms": round(p95_budget, 1),
                "deterministic": True,
            }
    )


# -- the int8 post-training-quantization bench -------------------------------


def _int8_throughput(engine: InferenceEngine, images: np.ndarray) -> float:
    """Images per second for repeated full-batch ``classify`` calls."""
    engine.classify(images[:8])  # warm caches outside the timed region
    start = time.perf_counter()
    for _ in range(INT8_ROUNDS):
        engine.classify(images)
    elapsed = time.perf_counter() - start
    return INT8_ROUNDS * len(images) / elapsed


def test_int8_quantized_serving(benchmark):
    """Int8 PTQ serves the same labels as float64, faster.

    Label agreement must be *exact* across the whole batch — quantization
    that flips predictions is not a serving optimisation, it is a
    different model.  The throughput gate is deliberately modest
    (:data:`INT8_TARGET_SPEEDUP`): the win comes from float32 BLAS and
    skipping the autodiff tape, both of which hold on any machine class,
    but shared runners add timer noise.
    """
    model = MnistLSTMClassifier(
        rng=0, input_dim=INPUT, transform_dim=32, hidden=HIDDEN
    )
    full = InferenceEngine(model, "mnist")
    quant = InferenceEngine(model, "mnist", quantize="int8")
    rng = np.random.default_rng(INT8_PAYLOAD_SEED)
    images = rng.standard_normal((INT8_BATCH, SEQ_LEN, INPUT))

    full_results = full.classify(images)
    quant_results = quant.classify(images)
    full_labels = [r["label"] for r in full_results]
    quant_labels = [r["label"] for r in quant_results]
    agree = sum(a == b for a, b in zip(full_labels, quant_labels))
    max_logit_diff = max(
        float(np.abs(f["logits"] - q["logits"]).max())
        for f, q in zip(full_results, quant_results)
    )

    def measure():
        return _int8_throughput(full, images), _int8_throughput(quant, images)

    full_rps, quant_rps = benchmark.pedantic(measure, rounds=1, iterations=1)
    speedup = quant_rps / full_rps
    int8_bytes = quant._quantized.int8_bytes
    fp64_bytes = sum(
        p.data.nbytes for _, p in model.named_parameters()
    )
    save_result(
        "serving_int8",
        (
            f"int8 PTQ serving (mnist-lstm, batch {INT8_BATCH})\n"
            f"  float64 : {full_rps:8.0f} img/s\n"
            f"  int8    : {quant_rps:8.0f} img/s  ({speedup:.2f}x, "
            f"target >= {INT8_TARGET_SPEEDUP}x)\n"
            f"  labels  : {agree}/{INT8_BATCH} agree  "
            f"(max logit diff {max_logit_diff:.2e})\n"
            f"  weights : {int8_bytes} int8 bytes vs {fp64_bytes} fp64 "
            f"({fp64_bytes / int8_bytes:.1f}x smaller)"
        ),
    )
    assert agree == INT8_BATCH, (
        f"int8 flipped {INT8_BATCH - agree} of {INT8_BATCH} labels"
    )
    if SMOKE:
        return
    assert speedup >= INT8_TARGET_SPEEDUP, (
        f"int8 serving only {speedup:.2f}x float64 "
        f"(need >= {INT8_TARGET_SPEEDUP}x)"
    )
    merge_bench_json(
        BENCH_JSON,
        {
            "int8": {
                "batch": INT8_BATCH,
                "rounds": INT8_ROUNDS,
                "float64_rps": round(full_rps, 1),
                "int8_rps": round(quant_rps, 1),
                "speedup": round(speedup, 2),
                "target_speedup": INT8_TARGET_SPEEDUP,
                "label_agreement": f"{agree}/{INT8_BATCH}",
                "max_logit_diff": float(f"{max_logit_diff:.3e}"),
                "int8_weight_bytes": int8_bytes,
                "float64_weight_bytes": fp64_bytes,
            }
        }
    )


# -- the scale-out fleet bench ----------------------------------------------


def _fleet_engine_factory():
    """One paced engine per replica process (identical weights, rng=0)."""
    model = MnistLSTMClassifier(
        rng=0, input_dim=INPUT, transform_dim=32, hidden=HIDDEN
    )
    return PacedEngine(
        InferenceEngine(model, "mnist"),
        t_fixed_ms=PACE_FIXED_MS,
        t_sample_ms=PACE_SAMPLE_MS,
    )


def _fleet_ceiling_rps() -> float:
    """One paced replica's saturation throughput (full batches)."""
    return FLEET_MAX_BATCH / (
        (PACE_FIXED_MS + FLEET_MAX_BATCH * PACE_SAMPLE_MS) / 1e3
    )


def _fleet_point(n: int, rate: float):
    """Offer ``rate`` req/s to an ``n``-replica fleet; return the report."""
    router = Router(
        _fleet_engine_factory,
        replicas=n,
        policy="jsq",
        batcher=dict(
            max_batch_size=FLEET_MAX_BATCH,
            max_wait_ms=5.0,
            max_queue_depth=4096,
        ),
        telemetry=False,
    )
    with router:
        time.sleep(0.5)  # let every replica finish building its engine
        report = run_open_loop(
            router, _payload, rate=rate, duration=FLEET_DURATION, seed=0,
            timeout=120,
        )
        totals = router.counters()
    return report, totals


def _fleet_swap_staleness(tmp_path: pathlib.Path) -> int:
    """Coordinated hot-swap under traffic; returns stale-response count.

    Streams requests at a 2-replica fleet, lands a newer checkpoint,
    waits for fleet convergence, then counts post-convergence responses
    whose ``version`` is not the new step.  Everything in flight across
    the swap must complete unshed.
    """
    manager = CheckpointManager(tmp_path)
    first = MnistLSTMClassifier(
        rng=0, input_dim=INPUT, transform_dim=32, hidden=HIDDEN
    )
    manager.save(first, iteration=1, step=1)

    def factory():
        model = MnistLSTMClassifier(
            rng=0, input_dim=INPUT, transform_dim=32, hidden=HIDDEN
        )
        engine = InferenceEngine(model, "mnist")
        engine.load_version(CheckpointManager(tmp_path).latest())
        return PacedEngine(engine, t_fixed_ms=5.0, t_sample_ms=0.5)

    rng = np.random.default_rng(0)
    router = Router(
        factory,
        replicas=2,
        policy="round-robin",
        batcher=dict(max_batch_size=8, max_wait_ms=1.0, max_queue_depth=4096),
        telemetry=False,
    )
    with router:
        time.sleep(0.3)
        inflight = [
            router.submit(rng.standard_normal((SEQ_LEN, INPUT)))
            for _ in range(32)
        ]
        second = MnistLSTMClassifier(
            rng=1, input_dim=INPUT, transform_dim=32, hidden=HIDDEN
        )
        new_path = manager.save(second, iteration=2, step=2)
        converged = router.request_swap(new_path)
        assert converged.wait(60.0), "fleet swap never converged"
        post = [
            router.submit(rng.standard_normal((SEQ_LEN, INPUT)))
            for _ in range(16)
        ]
        for req in inflight + post:
            assert req.wait(60.0), "request dropped across the swap"
            assert not req.shed and "label" in req.result
        stale = sum(1 for req in post if req.result["version"] != 2)
    return stale


def test_fleet_replica_scaling(benchmark, tmp_path):
    ceiling = _fleet_ceiling_rps()

    def measure():
        points = []
        for n in FLEET_COUNTS:
            rate = FLEET_UTILISATION * ceiling * n
            report, totals = _fleet_point(n, rate)
            points.append((n, rate, report, totals))
        return points

    points = benchmark.pedantic(measure, rounds=1, iterations=1)
    stale = _fleet_swap_staleness(tmp_path)

    throughput = {n: rep.throughput for n, _, rep, _ in points}
    scaling = throughput[FLEET_COUNTS[-1]] / throughput[1]
    lines = [
        f"fleet replica scaling (paced {PACE_FIXED_MS:.0f}ms + "
        f"{PACE_SAMPLE_MS:.0f}ms/sample, max batch {FLEET_MAX_BATCH}, "
        f"jsq, {FLEET_UTILISATION:.0%} of ceiling {ceiling:.0f} req/s/replica)"
    ]
    for n, rate, rep, _ in points:
        lines.append(
            f"  {n} replica{'s' if n > 1 else ' '}: {rep.throughput:8.1f} "
            f"req/s  p50 {rep.p50:6.1f} / p95 {rep.p95:6.1f} ms  "
            f"(offered {rate:.0f}/s, shed {rep.shed})"
        )
    lines.append(
        f"  scaling    : {scaling:8.2f}x at {FLEET_COUNTS[-1]} replicas  "
        f"(target >= {FLEET_TARGET}x, p95 budget {FLEET_P95_BUDGET_MS:.0f} ms)"
        f"\n  stale responses after coordinated swap: {stale}"
    )
    save_result("serving_fleet", "\n".join(lines))

    assert stale == 0, f"{stale} responses carried a stale version post-swap"
    if SMOKE:
        return
    for n, rate, rep, _ in points:
        assert rep.shed == 0 and rep.completed == rep.submitted, (
            f"{n}-replica fleet shed {rep.shed} of {rep.submitted} "
            f"at {rate:.0f} req/s"
        )
        assert rep.p95 <= FLEET_P95_BUDGET_MS, (
            f"{n}-replica p95 {rep.p95:.1f} ms blew the "
            f"{FLEET_P95_BUDGET_MS:.0f} ms budget"
        )
    assert scaling >= FLEET_TARGET, (
        f"fleet only {scaling:.2f}x at {FLEET_COUNTS[-1]} replicas "
        f"(need >= {FLEET_TARGET}x)"
    )
    merge_bench_json(
        BENCH_JSON,
        {
            "fleet": {
                "policy": "jsq",
                "pacing_ms": {
                    "fixed": PACE_FIXED_MS,
                    "per_sample": PACE_SAMPLE_MS,
                },
                "max_batch": FLEET_MAX_BATCH,
                "utilisation": FLEET_UTILISATION,
                "ceiling_rps_per_replica": round(ceiling, 1),
                "trajectory": [
                    {
                        "replicas": n,
                        "offered_rps": round(rate, 1),
                        "throughput_rps": round(rep.throughput, 1),
                        "p50_ms": round(rep.p50, 2),
                        "p95_ms": round(rep.p95, 2),
                        "shed": rep.shed,
                        "batches": totals["batches"],
                    }
                    for n, rate, rep, totals in points
                ],
                "scaling_x": round(scaling, 2),
                "target_scaling_x": FLEET_TARGET,
                "p95_budget_ms": round(FLEET_P95_BUDGET_MS, 1),
                "stale_after_swap": stale,
            }
        }
    )
