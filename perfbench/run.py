"""The repository benchmark: one workload per call, each in fresh processes.

    python3 perfbench/run.py --workload train-ptb --seed 0 --seconds 20 --trace 0

Run from the repository root.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` prints the per-layer metrics of a traced run next
to an untraced one (their throughput ratio is the tracing overhead).  The
last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the run
record (where and on what the run happened).  The exit code is 0 only
when every output check passed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import pathlib
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKLOADS = ("train-ptb", "train-gnmt", "train-mnist-dp", "serve-gnmt")
# set-up-only processes before and after the measured run; with the run's
# own set-up that makes seven samples spread over the whole call
SETUP_BEFORE = SETUP_AFTER = 3
# the traced run of train-mnist-dp uses real worker processes
TRACE_JOB = {"train-mnist-dp": "train-mnist-mp"}
CHILD_LIMIT_S = 170.0  # the whole call must end within 180 s

END_TO_END = {
    "throughput": "items/s",
    "time_to_target_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
# reported in the run record, not gated: each exists for one kind of
# workload only or spreads across seeds or host load past any allowed
# bound (see README)
REPORTED = ("median_throughput", "median_time_to_target_s", "final_loss", "latency_p50_ms",
            "latency_p95_ms", "latency_samples", "quality", "bleu")

PER_LAYER = {
    "data.next_ms": "ms",
    "data.pad_share": "share",
    "fwd.step_ms": "ms",
    "fwd.embedding_ms": "ms",
    "fwd.lstm_ms": "ms",
    "fwd.decoder_ms": "ms",
    "fwd.attention_ms": "ms",
    "fwd.head_ms": "ms",
    "fwd.loss_ms": "ms",
    "bwd.step_ms": "ms",
    "tensor.graph_nodes": "count",
    "compile.replay_share": "share",
    "optim.step_ms": "ms",
    "optim.clip_ms": "ms",
    "train.overhead_ms": "ms",
    "eval.ms": "ms",
    "eval.share": "share",
    "ckpt.save_ms": "ms",
    "ckpt.bytes": "bytes",
    "parallel.step_ms": "ms",
    "parallel.reduce_ms": "ms",
    "parallel.wait_ms": "ms",
    "parallel.worker_step_ms": "ms",
    "parallel.allreduce_bytes": "bytes",
    "parallel.allreduce_calls": "count",
    "parallel.broadcast_bytes": "bytes",
    "parallel.retries": "count",
    "parallel.speedup_vs_serial": "x",
    "serve.queue_wait_ms_p50": "ms",
    "serve.queue_wait_ms_p95": "ms",
    "serve.service_ms_p50": "ms",
    "serve.batch_size_mean": "count",
    "serve.busy_share": "share",
    "serve.decode_steps_per_req": "count",
    "serve.useful_step_share": "share",
    "serve.gen_late_ms_p99": "ms",
    "trace.overhead_share": "share",
}


class ChildFailed(RuntimeError):
    """A workload process crashed or ran out of time."""


def run_child(workload: str, seed: int, seconds: float, mode: str, smoke: bool,
              deadline: float) -> tuple[dict, float]:
    """One workload process; returns (result, spawn time)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        out = pathlib.Path(tmp) / "result.json"
        cmd = [sys.executable, str(HERE / "jobs.py"), workload, "--seed", str(seed),
               "--seconds", str(seconds), "--mode", mode, "--out", str(out)]
        if smoke:
            cmd.append("--smoke")
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True,
                                stdout=sys.stderr)
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            # the session holds the workload's own workers too
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        if code is None:
            raise ChildFailed(f"{workload} {mode} ran past the time limit")
        if code != 0 or not out.exists():
            raise ChildFailed(f"{workload} {mode} exited with code {code}")
        result = json.loads(out.read_text())
    return result, spawned


def cpu_times() -> list[int]:
    with open("/proc/stat") as fh:
        return [int(v) for v in fh.readline().split()[1:]]


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():  # a plain checkout: the digest identifies it
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None if done.returncode == 0 else None


def record(args, started: float, cpu0: list[int], res: dict, checks: dict) -> dict:
    """Where and on what this run happened, to trace disagreeing runs."""
    cpu1 = cpu_times()
    delta = [b - a for a, b in zip(cpu0, cpu1)]
    total = sum(delta)
    steal = delta[7] / total if total and len(delta) > 7 else 0.0
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started": datetime.datetime.fromtimestamp(started, datetime.timezone.utc).isoformat(),
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": res.get("blas"),
        "nproc": len(os.sched_getaffinity(0)),
        "steal_share": steal,
        "checks": checks,
        "reported": {name: res[name] for name in REPORTED if name in res},
    }


def end_to_end(args, deadline: float) -> tuple[dict, dict, dict]:
    def setup_only() -> float:
        res, spawned = run_child(args.workload, args.seed, args.seconds, "setup", args.smoke,
                                 deadline)
        return res["t_first"] - spawned

    setups = [setup_only() for _ in range(SETUP_BEFORE)]
    res, spawned = run_child(args.workload, args.seed, args.seconds, "run", args.smoke,
                             deadline)
    setups.append(res["t_first"] - spawned)
    setups += [setup_only() for _ in range(SETUP_AFTER)]
    values = {name: res.get(name) for name in END_TO_END}
    values["setup_s"] = statistics.median(setups)
    # the workload runs in one process: its high-water mark is the peak
    values["peak_rss_mb"] = res["rss_kb"] / 1024.0
    checks = dict(res.get("checks", {}))
    print(f"{args.workload}: setup samples {['%.3f' % s for s in setups]}", file=sys.stderr)
    return values, res, checks


def per_layer(args, deadline: float) -> tuple[dict, dict, dict]:
    job = TRACE_JOB.get(args.workload, args.workload)
    plain, _ = run_child(job, args.seed, args.seconds, "run", args.smoke, deadline)
    traced, _ = run_child(job, args.seed, args.seconds, "trace", args.smoke, deadline)
    values = {name: 0.0 for name in PER_LAYER}
    values.update(traced.get("layers", {}))
    checks = {f"untraced.{k}": v for k, v in plain.get("checks", {}).items()}
    checks.update({f"traced.{k}": v for k, v in traced.get("checks", {}).items()})
    # spans must only observe: same seed, same arithmetic, same loss
    checks["trace_keeps_results"] = plain.get("final_loss") == traced.get("final_loss")
    values["trace.overhead_share"] = 1.0 - traced["throughput"] / plain["throughput"]
    if args.workload == "train-mnist-dp":
        serial, _ = run_child(job, args.seed, args.seconds, "serial", args.smoke, deadline)
        values["parallel.speedup_vs_serial"] = plain["throughput"] / serial["throughput"]
        a, b = plain["losses"], serial["losses"]
        checks["losses_match_serial"] = len(a) == len(b) and all(
            abs(x - y) <= 1e-9 * max(1.0, abs(y)) for x, y in zip(a, b)
        )
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    return values, {"attempted": attempted, "failed": failed, "blas": plain.get("blas")}, checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a few steps or requests per workload (the self-test)")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"no program source under {SRC}", file=sys.stderr)
        return 2
    started, cpu0 = time.time(), cpu_times()
    deadline = time.monotonic() + CHILD_LIMIT_S
    try:
        if args.trace:
            values, res, checks = per_layer(args, deadline)
            units = PER_LAYER
        else:
            values, res, checks = end_to_end(args, deadline)
            units = END_TO_END
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    correct = bool(checks) and all(checks.values())
    missing = [name for name in units if not isinstance(values.get(name), (int, float))]
    if missing:
        checks["metrics_present"] = correct = False
        print(f"missing metrics: {missing}", file=sys.stderr)
    rec = record(args, started, cpu0, res, checks)
    for name, unit in units.items():
        print(f"  {name:28s} {values.get(name)!r:>24} {unit}", file=sys.stderr)
    print("record " + json.dumps(rec))
    print(json.dumps({
        "correct": correct,
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {
            name: {"value": values.get(name), "unit": unit} for name, unit in units.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
