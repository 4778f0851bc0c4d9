"""Command-line interface.

Installed as ``python -m repro`` (see ``__main__.py``); three subcommands
cover the repository's day-one uses:

* ``list`` — enumerate registered experiments and workloads;
* ``experiment <id>`` — run one table/figure/ablation driver and print
  the rows the paper reports (optionally rendering series as an ASCII
  chart with ``--chart``);
* ``train <workload>`` — train one application at a chosen batch size
  under a chosen schedule and print the final metric;
* ``serve-bench <workload>`` — stand up the dynamic-batching inference
  server (docs/serving.md) over a trained snapshot (``--snapshot`` file
  or checkpoint directory; a fresh model when omitted) and drive it with
  the seeded load generator: ``--arrival-rate``/``--duration`` for
  open-loop Poisson traffic or ``--mode closed`` with ``--clients``,
  batching under ``--max-batch``/``--max-wait-ms``, reporting throughput
  and p50/p95/p99 latency.  A directory snapshot is also watched for
  newer checkpoints and hot-swapped in mid-run.

Every subcommand accepts the observability flags:
``--trace-out FILE`` (span tracing; writes Chrome ``trace_event`` JSON
and prints an ASCII flame summary), ``--metrics-out FILE`` (structured
counters/gauges/histograms as JSONL — per-layer trust ratios, grad
norms, all-reduce traffic), ``--profile`` (op-level engine profile,
forward and backward separately), ``--metrics-every N`` (sample every
instrument into a timestamped time series each N iterations/batches —
streamed to ``--metrics-out`` as it happens, followed by the final
snapshot) and ``--report-out FILE`` (render the run's telemetry —
sparkline time series, span flame summary, health events — as markdown,
or HTML when FILE ends in ``.html``).  All default to off, which keeps
the run on the exact uninstrumented code path.

``experiment``, ``train`` and ``serve-bench`` also take ``--fused`` /
``--no-fused`` (docs/fused_kernels.md) to pick between the fused hot-path
kernels and the reference engine; with neither flag the ``REPRO_FUSED``
environment setting applies, and with that unset the fused kernels run.

``train`` accepts the data-parallel flags (docs/parallel.md): ``--workers P``
shards every batch across ``P`` workers with gradients reduced through
the bucketed all-reduce, ``--parallel-backend`` chooses between the
in-process simulation (``sim``, the default) and real OS worker
processes with cross-process telemetry (``mp``), ``--allreduce-algo``
picks the schedule (ring/tree/naive), ``--bucket-mb`` sizes the
gradient buckets (``0`` reduces one bucket, the monolithic baseline) and
``--wire-dtype`` / ``--stochastic-rounding`` compress them on the wire.
Both backends reduce, gate and install through one shared step, so a
non-finite loss or reduction ends the step as a fault for the trainer's
policy (stop, or roll back under ``--checkpoint-dir``) on either.

``train`` additionally accepts the resilience flags (docs/resilience.md):
``--checkpoint-dir DIR`` switches to fault-tolerant training with
hardened per-epoch checkpoints and divergence rollback, ``--resume``
continues a killed run bit-exactly, ``--keep-last K`` bounds retention,
``--max-recoveries N`` bounds rollbacks, and ``--fault-rate P`` arms the
seeded NaN-loss injector for demos and testing.

``train`` also accepts the adaptive batch-size flags
(docs/adaptive_batch.md): ``--adaptive-batch`` closes the loop on the
online gradient noise scale (start at the base batch, grow toward the
measured critical batch under the LEGW invariant), with ``--noise-every
N`` setting the serial probe cadence, ``--target-ratio R`` the growth
aggressiveness and ``--max-batch B`` the cap.

The three flag groups compose: every policy (plain, rollback, adaptive)
trains through the workers, honouring every data-parallel flag.  The
flags become one :class:`~repro.experiments.common.TrainConfig`, whose
validator is the one place a combination is refused: ``train`` prints
its reason and exits 2.  It refuses ``--resume`` or ``--fault-rate``
without ``--checkpoint-dir``; ``--adaptive-batch`` with ``--fault-rate``
(no rollback), with ``--batch`` (the loop owns the batch size) or with a
non-LEGW ``--schedule``; the adaptive tuning flags without
``--adaptive-batch``; ``--noise-every`` or ``--workers`` below 1; the
wire flags without ``--workers``; ``--stochastic-rounding`` without
``--wire-dtype fp16`` or with ``--checkpoint-dir`` (its rounding stream
is not checkpointed); and ``--amp`` with ``--workers`` (compress the
wire instead; unset amp is off there).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from dataclasses import replace
from typing import Sequence

from repro.experiments import TrainConfig, build_workload, run_experiment, score_of
from repro.experiments.registry import EXPERIMENTS
from repro.obs import Obs
from repro.parallel.allreduce import ALGORITHMS
from repro.parallel.buckets import DEFAULT_BUCKET_MB
from repro.tensor.amp import amp_enabled, use_amp
from repro.tensor.fused import fused_enabled, use_fused
from repro.utils.ascii_plot import line_chart

WORKLOADS = ("mnist", "ptb_small", "ptb_large", "gnmt", "resnet")
SCHEDULE_KINDS = ("legw", "linear", "sqrt", "none")
# workload -> InferenceEngine task head (resnet has no serving head yet)
SERVE_TASKS = {
    "mnist": "mnist",
    "ptb_small": "ptb",
    "ptb_large": "ptb",
    "gnmt": "gnmt",
}


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--fused", action=argparse.BooleanOptionalAction, default=None,
        help="run with fused hot-path kernels (--no-fused forces the "
             "reference engine; default: the REPRO_FUSED environment "
             "setting, on when unset)",
    )
    parser.add_argument(
        "--amp", action=argparse.BooleanOptionalAction, default=None,
        help="train with emulated mixed precision: fp16 parameter "
             "storage, fp32 master weights and dynamic loss scaling "
             "(docs/mixed_precision.md); --no-amp forces full precision; "
             "default: the REPRO_AMP environment setting, i.e. off",
    )


def _apply_engine_flags(args: argparse.Namespace) -> None:
    if getattr(args, "fused", None) is not None:
        use_fused(args.fused)
    if getattr(args, "amp", None) is not None:
        use_amp(args.amp)


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-out", metavar="FILE", default=None,
        help="trace spans and write Chrome trace_event JSON to FILE",
    )
    parser.add_argument(
        "--metrics-out", metavar="FILE", default=None,
        help="collect structured metrics and write a JSONL snapshot to FILE",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="profile tensor-engine ops and print the top-N table",
    )
    parser.add_argument(
        "--metrics-every", type=int, default=0, metavar="N",
        help="sample the metrics time series every N iterations/batches "
             "(enables metrics; streamed to --metrics-out when given; "
             "default 0 = end-of-run snapshot only)",
    )
    parser.add_argument(
        "--report-out", metavar="FILE", default=None,
        help="write a run report (time series + flame summary + health "
             "events) to FILE — markdown, or HTML for a .html/.htm FILE",
    )


def _build_obs(args: argparse.Namespace) -> Obs | None:
    """An :class:`Obs` for the requested flags, or ``None`` when all off."""
    obs = Obs(
        trace=args.trace_out is not None,
        metrics=(
            args.metrics_out is not None
            or args.metrics_every > 0
            or args.report_out is not None
        ),
        profile=args.profile,
    )
    if not obs.enabled:
        return None
    if args.metrics_every > 0 and args.metrics_out is not None:
        # stream samples as they happen; the final snapshot is appended
        # at close so one file carries the series and the end state
        obs.metrics.stream_to(args.metrics_out)
    return obs


def _emit_obs(obs: Obs, args: argparse.Namespace, health=None) -> None:
    """Print/write whatever the enabled instruments collected."""
    if obs.profiler is not None:
        print()
        print(obs.profiler.table())
    if obs.tracer is not None:
        print()
        print(obs.tracer.flame_summary())
        obs.tracer.save_chrome_trace(args.trace_out)
        print(f"chrome trace written to {args.trace_out}")
    if obs.metrics is not None and args.metrics_out is not None:
        if obs.metrics.streaming:
            obs.metrics.close_stream(final_snapshot=True)
            print(
                f"metrics time series + final snapshot written to "
                f"{args.metrics_out}"
            )
        else:
            obs.metrics.save(args.metrics_out)
            print(f"metrics snapshot written to {args.metrics_out}")
    if args.report_out is not None:
        from repro.obs import save_report

        fmt = save_report(
            args.report_out,
            title=f"repro {args.command} run report",
            registry=obs.metrics,
            tracer=obs.tracer,
            health=health,
        )
        print(f"{fmt} run report written to {args.report_out}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Large-Batch Training for LSTM and Beyond' "
            "(You et al., SC 2019)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments and workloads")

    exp = sub.add_parser("experiment", help="run one table/figure driver")
    exp.add_argument("experiment_id", choices=sorted(EXPERIMENTS))
    exp.add_argument("--preset", default="smoke", choices=("smoke", "small"))
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument(
        "--chart", action="store_true",
        help="also render numeric series as an ASCII chart where available",
    )
    exp.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the driver's raw result dict as JSON",
    )
    _add_engine_flags(exp)
    _add_obs_flags(exp)

    tr = sub.add_parser("train", help="train one workload once")
    tr.add_argument("workload", choices=WORKLOADS)
    tr.add_argument("--preset", default="smoke", choices=("smoke", "small"))
    tr.add_argument("--batch", "--batch-size", type=int, default=None,
                    dest="batch",
                    help="batch size (default: the workload's base batch)")
    tr.add_argument("--schedule", default="legw", choices=SCHEDULE_KINDS,
                    help="legw, or a scaling rule with --warmup-epochs")
    tr.add_argument("--warmup-epochs", type=float, default=0.0)
    tr.add_argument("--epochs", type=int, default=None)
    tr.add_argument("--seed", type=int, default=0)
    par = tr.add_argument_group(
        "data parallelism",
        "simulated data-parallel training (see docs/parallel.md); "
        "activated by --workers",
    )
    par.add_argument(
        "--workers", type=int, default=None, metavar="P",
        help="shard every batch across P workers and reduce gradients "
             "through the bucketed all-reduce",
    )
    par.add_argument(
        "--parallel-backend", default="sim", choices=("sim", "mp"),
        help="sim: in-process simulated workers (default); mp: real OS "
             "worker processes with cross-process telemetry aggregation",
    )
    par.add_argument(
        "--allreduce-algo", default="ring", choices=ALGORITHMS,
        help="all-reduce schedule for the gradient reduction (default ring)",
    )
    par.add_argument(
        "--bucket-mb", type=float, default=DEFAULT_BUCKET_MB, metavar="MB",
        help=f"gradient bucket capacity in MiB (default {DEFAULT_BUCKET_MB}; "
             "0 reduces one bucket per dtype, the monolithic baseline)",
    )
    par.add_argument(
        "--wire-dtype", default=None, choices=("fp32", "fp16", "bf16"),
        help="compress gradient buckets to this dtype on the wire "
             "(accumulation stays wide; fp16 halves allreduce bytes vs "
             "fp32 — see docs/mixed_precision.md); default: the "
             "parameter dtype, uncompressed",
    )
    par.add_argument(
        "--stochastic-rounding", action="store_true",
        help="round fp16 wire values stochastically instead of "
             "round-to-nearest (unbiased; requires --wire-dtype fp16)",
    )
    res = tr.add_argument_group(
        "resilience",
        "fault-tolerant training (see docs/resilience.md); activated by "
        "--checkpoint-dir",
    )
    res.add_argument(
        "--checkpoint-dir", metavar="DIR", default=None,
        help="write hardened per-epoch checkpoints to DIR and train with "
             "divergence rollback",
    )
    res.add_argument(
        "--resume", action="store_true",
        help="resume bit-exactly from the newest checkpoint in "
             "--checkpoint-dir",
    )
    res.add_argument(
        "--keep-last", type=int, default=3, metavar="K",
        help="retain only the newest K checkpoints (default 3)",
    )
    res.add_argument(
        "--max-recoveries", type=int, default=2, metavar="N",
        help="rollback-and-retry budget before reporting divergence "
             "(default 2)",
    )
    res.add_argument(
        "--fault-rate", type=float, default=0.0, metavar="P",
        help="seeded per-iteration NaN-loss injection probability "
             "(demo/testing; default 0)",
    )
    ada = tr.add_argument_group(
        "adaptive batch size",
        "closed-loop batch growth from the online noise scale "
        "(see docs/adaptive_batch.md); activated by --adaptive-batch",
    )
    ada.add_argument(
        "--adaptive-batch", action="store_true",
        help="start at the base batch and grow toward the measured "
             "critical batch (sqrt-LR rescale + LEGW re-warmup per "
             "growth event)",
    )
    ada.add_argument(
        "--noise-every", type=int, default=None, metavar="N",
        help="iterations between paired micro-batch noise probes when "
             "training serially (default 16; with --workers the "
             "per-shard gradients feed the estimator every step for free)",
    )
    ada.add_argument(
        "--target-ratio", type=float, default=None, metavar="R",
        help="grow while R x the measured critical batch still covers "
             "the next batch size (default 2.0; higher grows sooner)",
    )
    ada.add_argument(
        "--max-batch", type=int, default=None, metavar="B",
        help="largest batch the controller may grow to (default: the "
             "workload's largest ladder entry)",
    )
    _add_engine_flags(tr)
    _add_obs_flags(tr)

    sv = sub.add_parser(
        "serve-bench",
        help="benchmark the dynamic-batching inference server",
    )
    sv.add_argument("workload", choices=sorted(SERVE_TASKS))
    sv.add_argument("--preset", default="smoke", choices=("smoke", "small"))
    sv.add_argument(
        "--snapshot", metavar="PATH", default=None,
        help="checkpoint to serve: a single .npz file, or a checkpoint "
             "directory (newest checkpoint served, watched for hot-swap); "
             "default: a freshly initialised model",
    )
    sv.add_argument(
        "--max-batch", type=int, default=32, metavar="B",
        help="largest coalesced batch (default 32)",
    )
    sv.add_argument(
        "--max-wait-ms", type=float, default=2.0, metavar="MS",
        help="how long a lone request waits for company (default 2)",
    )
    sv.add_argument(
        "--max-queue-depth", type=int, default=256, metavar="N",
        help="admission-control bound; beyond it requests shed (default 256)",
    )
    sv.add_argument(
        "--mode", default="open", choices=("open", "closed"),
        help="open: Poisson arrivals at --arrival-rate for --duration; "
             "closed: --clients each issuing --requests-per-client",
    )
    sv.add_argument(
        "--arrival-rate", type=float, default=200.0, metavar="RPS",
        help="open-loop mean request rate (default 200)",
    )
    sv.add_argument(
        "--duration", type=float, default=2.0, metavar="SEC",
        help="open-loop run length in seconds (default 2)",
    )
    sv.add_argument(
        "--clients", type=int, default=8, metavar="N",
        help="closed-loop concurrent clients (default 8)",
    )
    sv.add_argument(
        "--requests-per-client", type=int, default=32, metavar="N",
        help="closed-loop requests per client (default 32)",
    )
    sv.add_argument(
        "--replicas", type=int, default=1, metavar="N",
        help="serve from a fleet of N replica processes behind a router "
             "(default 1: the in-process single server)",
    )
    sv.add_argument(
        "--policy", default="least-loaded",
        choices=("round-robin", "least-loaded", "jsq"),
        help="fleet routing policy, with --replicas > 1 "
             "(default least-loaded)",
    )
    sv.add_argument(
        "--paced-batch-ms", type=float, default=None, metavar="MS",
        help="pace each batch to a fixed-MS-plus-per-sample service time "
             "(PacedEngine: real results, modelled timing — makes fleet "
             "scaling measurable on few cores)",
    )
    sv.add_argument(
        "--paced-sample-ms", type=float, default=1.0, metavar="MS",
        help="per-sample term of the paced service time (default 1)",
    )
    sv.add_argument(
        "--quantize", default=None, choices=("int8",),
        help="serve through the int8 post-training-quantized executor "
             "(mnist only; docs/mixed_precision.md); default: full "
             "precision",
    )
    sv.add_argument("--seed", type=int, default=0)
    _add_engine_flags(sv)
    _add_obs_flags(sv)
    return parser


def _cmd_list() -> int:
    print("experiments:")
    for exp_id in sorted(EXPERIMENTS):
        print(f"  {exp_id}")
    print("workloads:")
    for name in WORKLOADS:
        print(f"  {name}")
    return 0


def _chartable_series(out: dict):
    series = out.get("series")
    if isinstance(series, dict) and series:
        first = next(iter(series.values()))
        if isinstance(first, (list, tuple)):
            return {str(k): list(v) for k, v in series.items()}
    return None


def _cmd_experiment(args: argparse.Namespace) -> int:
    obs = _build_obs(args)
    if obs is None:
        out = run_experiment(
            args.experiment_id, preset=args.preset, seed=args.seed
        )
    else:
        with obs.activate(), obs.span(args.experiment_id):
            out = run_experiment(
                args.experiment_id, preset=args.preset, seed=args.seed
            )
    if args.as_json:
        print(json.dumps(_jsonable(out), indent=2))
        return 0
    print(out["text"])
    if args.chart:
        series = _chartable_series(out)
        if series is not None:
            print()
            print(
                line_chart(
                    series,
                    x_labels=out.get("batches") or out.get("workers"),
                    title=f"{args.experiment_id} (series view)",
                )
            )
        else:
            print("(no chartable series in this experiment)", file=sys.stderr)
    if obs is not None:
        _emit_obs(obs, args)
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    wl = build_workload(args.workload, args.preset)
    batch = args.batch if args.batch is not None else wl.base_batch
    if args.schedule == "legw":
        schedule = wl.legw_schedule(batch, args.epochs)
        print(f"schedule: {schedule!r}")
    else:
        schedule = wl.scaled_schedule(
            batch, args.schedule, warmup_epochs=args.warmup_epochs,
            epochs=args.epochs,
        )
        print(f"schedule: {args.schedule} scaling, warmup {args.warmup_epochs} ep")
    try:
        config = TrainConfig(
            batch=args.batch, schedule=schedule, seed=args.seed,
            epochs=args.epochs, metrics_every=args.metrics_every,
            amp=args.amp, workers=args.workers,
            backend=args.parallel_backend, algorithm=args.allreduce_algo,
            bucket_mb=args.bucket_mb if args.bucket_mb > 0 else None,
            wire_dtype=args.wire_dtype,
            stochastic_rounding=args.stochastic_rounding,
            checkpoint_dir=args.checkpoint_dir, resume=args.resume,
            keep_last=args.keep_last, max_recoveries=args.max_recoveries,
            fault_rate=args.fault_rate, adaptive_batch=args.adaptive_batch,
            max_batch=args.max_batch, noise_every=args.noise_every,
            target_ratio=args.target_ratio,
        )
    except ValueError as refusal:
        print(f"repro train: {refusal}", file=sys.stderr)
        return 2
    obs = _build_obs(args)
    if obs is None:
        result = wl.train(config)
    else:
        with obs.activate():
            result = wl.train(replace(config, obs=obs))
    trainer = wl.last_trainer
    score = score_of(result, wl.metric)
    status = "DIVERGED" if result.diverged else "ok"
    print(
        f"{args.workload} @ batch {batch} "
        f"(paper {wl.paper_batch(batch)}): {wl.metric} = {score:.4g} [{status}]"
    )
    if args.adaptive_batch:
        print(
            f"adaptive batch: {int(result.final_metrics['optimizer_steps'])} "
            f"steps, {int(result.final_metrics['growth_events'])} growth "
            f"event(s), trajectory {trainer.trajectory}, final noise scale "
            f"{result.final_metrics['noise_scale']:.1f}"
        )
    if args.workers is not None:
        overlap = result.final_metrics.get("overlap_fraction")
        extra = (
            f", {overlap:.0%} of comm hidden under backward"
            if overlap is not None
            else ""
        )
        wire = f", {args.wire_dtype} wire" if args.wire_dtype else ""
        print(
            f"parallel: {args.workers} workers "
            f"({args.parallel_backend}), {args.allreduce_algo} "
            f"all-reduce{wire}{extra}"
        )
    if args.checkpoint_dir is not None and not args.adaptive_batch:
        faults = int(result.final_metrics.get("faults_detected", 0))
        recoveries = int(result.final_metrics.get("recoveries", 0))
        print(
            f"resilience: {faults} fault(s) detected, {recoveries} "
            f"recovery(ies), checkpoints in {args.checkpoint_dir}"
        )
    if obs is not None:
        _emit_obs(obs, args, health=trainer.health)
    return 0 if not result.diverged else 1


def _serve_payload_pool(wl, workload: str, seed: int) -> list:
    """Per-request payloads sliced from one training batch.

    The load generator draws uniformly from this pool, so the traffic
    has the workload's real geometry (image size, window length, the
    GNMT length spread that exercises bucketed batching).
    """
    pool_batch = min(256, wl.n_train)
    batch = next(iter(wl.make_train_iter(pool_batch, seed + 1)))
    if SERVE_TASKS[workload] == "gnmt":
        src, src_len = batch[0], batch[1]
        return [
            (src[i, : int(src_len[i])].copy(), int(src_len[i]))
            for i in range(len(src_len))
        ]
    inputs = batch[0]
    return [(inputs[i].copy(), None) for i in range(len(inputs))]


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    from repro.serve import (
        DynamicBatcher,
        Router,
        Server,
        run_closed_loop,
        run_open_loop,
    )
    from repro.utils.checkpoint import CheckpointManager

    wl = build_workload(args.workload, args.preset)
    task = SERVE_TASKS[args.workload]
    if args.quantize is not None and task != "mnist":
        print("--quantize int8 supports the mnist task only", file=sys.stderr)
        return 2
    snap = pathlib.Path(args.snapshot) if args.snapshot is not None else None
    manager = CheckpointManager(snap) if snap is not None and snap.is_dir() else None
    source = str(snap) if snap is not None else "fresh model"

    def make_engine():
        """The served engine: the single server builds one, and each
        replica builds its own (a closure is fine under the fork start
        method; see docs/serving.md)."""
        from repro.serve import InferenceEngine, PacedEngine

        model = wl.make_model(args.seed)
        if manager is not None:
            engine = InferenceEngine.from_manager(
                manager, model, task, quantize=args.quantize
            )
        else:
            engine = InferenceEngine(model, task, quantize=args.quantize)
            if snap is not None:
                engine.load_version(snap)
        if args.paced_batch_ms is None:
            return engine
        return PacedEngine(
            engine,
            t_fixed_ms=args.paced_batch_ms,
            t_sample_ms=args.paced_sample_ms,
        )

    pool = _serve_payload_pool(wl, args.workload, args.seed)

    def payload_fn(rng, i):
        return pool[int(rng.integers(len(pool)))]

    obs = _build_obs(args)
    batcher = dict(
        max_batch_size=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        max_queue_depth=args.max_queue_depth,
    )
    if args.replicas > 1:
        front = Router(
            make_engine,
            replicas=args.replicas,
            policy=args.policy,
            batcher=batcher,
            manager=manager,
            obs=obs,
            metrics_every_batches=args.metrics_every,
            sample_metrics=args.metrics_every > 0,
        )
    else:
        front = Server(
            make_engine(), DynamicBatcher(**batcher), manager=manager,
            obs=obs, metrics_every_batches=args.metrics_every,
        )

    def bench():
        with front:
            if args.mode == "open":
                return run_open_loop(
                    front, payload_fn, rate=args.arrival_rate,
                    duration=args.duration, seed=args.seed,
                )
            return run_closed_loop(
                front, payload_fn, clients=args.clients,
                requests_per_client=args.requests_per_client, seed=args.seed,
            )

    if obs is None:
        report = bench()
    else:
        with obs.activate():
            report = bench()
    if args.replicas > 1:
        # the fleet's lowest reported version: the one every replica
        # has reached; each replica keeps its own health monitor
        version = min(
            (v for v in front.versions().values() if v is not None),
            default=None,
        )
        if version is None:
            # every replica died building its engine (say, a snapshot
            # that does not load); their tracebacks are on stderr
            print("repro serve-bench: no replica came up", file=sys.stderr)
            return 1
        health = None
    else:
        version, health = front.engine.version, front.health
    quant = f", {args.quantize} quantized" if args.quantize else ""
    print(
        f"serving {args.workload} ({task} head{quant}, "
        f"version {version}, {source}; max batch {args.max_batch}, "
        f"max wait {args.max_wait_ms:g} ms)"
    )
    if args.replicas > 1:
        print(
            f"fleet: {args.replicas} replicas, policy {args.policy}, "
            f"versions {front.versions()}"
        )
    print(report.summary())
    totals = front.counters()
    print(
        f"batches: {totals['batches']}, shed: {totals['shed']}, "
        f"swaps: {totals['swaps']}, errors: {totals['errors']}, "
        f"alarms: {totals['alarms']}"
    )
    if obs is not None:
        _emit_obs(obs, args, health=health)
    return 0


def _jsonable(value):
    """Best-effort conversion of a driver result dict to JSON types."""
    import numpy as np

    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # the engine flags flip process-wide switches: restore them on every
    # exit, so an in-process caller keeps its own engine
    fused, amp = fused_enabled(), amp_enabled()
    _apply_engine_flags(args)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "experiment":
            return _cmd_experiment(args)
        if args.command == "train":
            return _cmd_train(args)
        return _cmd_serve_bench(args)
    finally:
        use_fused(fused)
        use_amp(amp)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
