"""One run of one workload, in a fresh process started by ``run.py``.

    PYTHONPATH=src python3 perfbench/jobs.py train-ptb --seed 0 --seconds 18 \\
        --mode run --out result.json

Modes: ``setup`` stops at the first timed step or request (the set-up
sample), ``run`` is the measured run, ``trace`` is the same run with spans
around the calls into each layer, and ``serial`` is the single-process
run of the same seed and batch (for ``train-mnist-mp``, the traced run of
train-mnist-dp on worker processes).  The result is written as JSON to
``--out``; the parent turns it into metrics.

The seed changes data order, initialisation and the serve arrival
schedule; the training data sets and the served weights stay fixed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass

HERE = pathlib.Path(__file__).resolve().parent
WORK = HERE.parent / ".perfbench"  # scratch inside the checkout
WEIGHTS = HERE / "gnmt_serve.npz"

sys.path.insert(0, str(HERE))
from openloop import percentile, run_phase, schedule  # noqa: E402
from spans import END, NAME, PARENT, REQS, START, Recorder, root_of, self_times  # noqa: E402


# Training timings come from the host's fast state: this percentile of the
# seconds per item of a run's steps.  See README, "Fast-state timing".
FAST_PCT = 2.0


class SetupDone(Exception):
    """Raised at the first timed step of a set-up sample."""


@dataclass(frozen=True)
class TrainSpec:
    builder: str
    batch: int
    runner: str  # "plain" | "resilient" | "sim" | "mp" (data-parallel)
    metric: str
    target: float | None  # None: the target is the end of the budget
    higher_is_better: bool
    epoch_s: float  # nominal seconds per epoch here; sizes the budget
    min_epochs: int  # the budget never ends before the target is reached
    trials: int  # independent runs from scratch; time_to_target_s is their mean


TRAIN = {
    # ppl 10.7, not 10: over seeds 0-29 epoch 5 ends at 8.7-10.49 (7 seeds
    # above 10) and epoch 4 at 10.97 or more, so 10.7 is crossed at epoch 5
    # (87 of the 90 trials of benchmark seeds 100-109, 200-209, 300-309)
    "train-ptb": TrainSpec("ptb_small", 20, "plain", "perplexity", 10.7, False, 0.8, 7, 3),
    # BLEU jumps from <10 to >20 at epoch 4, 5 or 6 depending on the seed;
    # the mean of three trials damps that
    "train-gnmt": TrainSpec("gnmt", 16, "resilient", "bleu", 20.0, True, 1.1, 7, 3),
    # no quality target: accuracy crosses 0.80 anywhere between epochs 9
    # and 13 over seeds 0-9 and can still collapse late (seed 25 ends 18
    # epochs at 0.58), so the target is the end of the budget.  The
    # in-process cluster, not the mp one: see README, "Why the gated
    # train-mnist-dp run uses the in-process cluster"
    "train-mnist-dp": TrainSpec("mnist", 256, "sim", "accuracy", None, True, 0.3, 10, 3),
    # the traced run of train-mnist-dp: the same job on real worker
    # processes with the caller's BLAS threading, one trial (an epoch
    # takes ~1 s there, against ~0.25 s single-process)
    "train-mnist-mp": TrainSpec("mnist", 256, "mp", "accuracy", None, True, 1.0, 6, 1),
}

# serve-gnmt: the nominal phase, then rounds of one job and one overload
# phase; the nominal phase's requests and the rounds scale with --seconds
NOMINAL_RATE = 40.0  # about half of today's capacity on a 2-core VM
OVERLOAD_RATE = 200.0  # about three times today's capacity
OVERLOAD_REQUESTS = 80  # about a second of saturated service
ROUND_S = 1.5  # nominal seconds per round
BLEU_TARGET = 20.0


def budget_epochs(spec: TrainSpec, seconds: float, smoke: bool) -> int:
    """Epochs per trial: fixed for a given ``seconds``, so losses repeat."""
    if smoke:
        return 2
    return max(spec.min_epochs, round(seconds / (spec.trials * spec.epoch_s)))


def met(spec: TrainSpec, metrics: dict) -> bool:
    value = metrics.get(spec.metric, math.nan)
    return value >= spec.target if spec.higher_is_better else value <= spec.target


def batch_items(batch) -> tuple[int, int, int]:
    """(items trained, real tokens, token slots incl. padding) of a batch."""
    if len(batch) == 5:  # GNMT: src, src_len, tgt_in, tgt_out, tgt_mask
        src, src_len, _, _, mask = batch
        real = int(mask.sum())
        return real, real + int(src_len.sum()), src.size + mask.size
    first = batch[0]
    n = first.size if first.dtype.kind in "iu" else len(first)  # PTB tokens
    return n, n, n


class LoaderClock:
    """Timestamps every batch fetch; one record per epoch."""

    def __init__(self, stop_at_first: bool, rec=None, profiler=None) -> None:
        self.epochs: list[dict] = []
        self.t_first: float | None = None
        self.stop_at_first = stop_at_first
        self.rec = rec
        self.profiler = profiler  # attached for epoch 1 only

    def wrap(self, loader) -> "TimedLoader":
        return TimedLoader(loader, self)


class TimedLoader:
    """The library loader, re-iterable, with a mark before every fetch."""

    def __init__(self, inner, clock: LoaderClock) -> None:
        self.inner = inner
        self.clock = clock
        self.steps_per_epoch = inner.steps_per_epoch

    @property
    def rng(self):  # checkpointed by the resilient trainer
        return self.inner.rng

    def __len__(self) -> int:
        return len(self.inner)

    def __iter__(self):
        clock = self.clock
        marks: list[float] = []
        sizes: list[int] = []  # items of each step
        epoch = {"marks": marks, "sizes": sizes, "items": 0, "real": 0, "slots": 0,
                 "done": False}
        clock.epochs.append(epoch)
        profiler = clock.profiler if len(clock.epochs) == 1 else None
        if profiler is not None:
            profiler.attach()
        source = iter(self.inner)
        try:
            while True:
                marks.append(time.perf_counter())
                if clock.t_first is None:
                    clock.t_first = time.monotonic()
                    if clock.stop_at_first:
                        raise SetupDone
                if clock.rec is None:
                    batch = next(source, None)
                else:
                    span = clock.rec.begin("data.next")
                    batch = next(source, None)
                    clock.rec.end(span)
                if batch is None:
                    break
                items, real, slots = batch_items(batch)
                sizes.append(items)
                epoch["items"] += items
                epoch["real"] += real
                epoch["slots"] += slots
                yield batch
            epoch["done"] = True
        finally:
            if profiler is not None:
                profiler.detach()


# -- training ---------------------------------------------------------------


FORWARD_SPANS = (
    ("embedding", "fwd.embedding"),
    ("lstm", "fwd.lstm"),
    ("encoder", "fwd.lstm"),
    ("attention", "fwd.attention"),
    ("head", "fwd.head"),
)


def wrap_forward(rec: Recorder, model) -> None:
    """Spans around the model's loss and its named submodules' forward."""
    rec.wrap(model, "loss", "fwd")
    for attr, label in FORWARD_SPANS:
        module = getattr(model, attr, None)
        if module is not None:
            rec.wrap(module, "forward", label)
    for cell in getattr(model, "decoder_cells", ()):
        rec.wrap(cell, "forward", "fwd.decoder")


def install_train_trace(rec: Recorder, wl, spec: TrainSpec, saved: list) -> None:
    import repro.train.resilience as resilience_mod
    import repro.train.trainer as trainer_mod
    from repro.parallel.buckets import GradientBuckets
    from repro.parallel.mp import MultiprocessCluster
    from repro.tensor import Tensor
    from repro.utils.checkpoint import CheckpointManager

    make_model = wl.make_model

    def traced_model(seed):
        model = make_model(seed)
        wrap_forward(rec, model)
        return model

    wl.make_model = traced_model
    rec.wrap(Tensor, "backward", "bwd")
    # the cluster call sends the shards, waits for the workers' gradients
    # and reduces them through the buckets
    rec.wrap(MultiprocessCluster, "gradient_step", "parallel.step")
    rec.wrap(GradientBuckets, "pack", "parallel.reduce")
    rec.wrap(GradientBuckets, "reduce_packed", "parallel.reduce")
    make_optimizer = wl.make_optimizer

    def traced_optimizer(model, solver=None):
        optimizer = make_optimizer(model, solver)
        rec.wrap(optimizer, "step", "optim.step")
        return optimizer

    wl.make_optimizer = traced_optimizer
    rec.wrap(trainer_mod, "clip_grad_norm", "optim.clip")
    rec.wrap(resilience_mod, "clip_grad_norm", "optim.clip")
    rec.wrap(
        CheckpointManager, "save", "ckpt.save",
        after=lambda span, args, path: saved.append(os.path.getsize(path)),
    )


def train(args) -> dict:
    spec = TRAIN[args.workload]
    from repro.experiments.common import build_workload
    from repro.obs import Obs, OpProfiler, set_active

    wl = build_workload(spec.builder)
    epochs = budget_epochs(spec, args.seconds, args.smoke)
    tracing = args.mode == "trace"
    rec = Recorder() if tracing else None
    # the program's own counters land in this registry; handed to the mp
    # cluster it also switches on the workers' telemetry (their step times)
    obs = Obs(metrics=True) if tracing else None
    registry = obs.metrics if tracing else None
    if tracing:
        set_active(registry)
    profiler = OpProfiler() if tracing else None
    saved: list[int] = []
    if tracing:
        install_train_trace(rec, wl, spec, saved)
    make_iter, make_eval = wl.make_train_iter, wl.make_eval_fn
    runner = "plain" if args.mode == "serial" else spec.runner
    trials: list[Trial] = []
    for k in range(1 if args.smoke else spec.trials):
        trial = Trial(LoaderClock(args.mode == "setup", rec, profiler if k == 0 else None))
        wl.make_train_iter = lambda batch, seed, t=trial: t.clock.wrap(make_iter(batch, seed))
        wl.make_eval_fn = lambda model, t=trial: t.timed_eval(make_eval(model), rec)
        schedule_ = wl.legw_schedule(spec.batch, epochs)
        seed = args.seed * spec.trials + k
        try:
            if runner == "plain":
                trial.result = wl.run(spec.batch, schedule_, seed=seed, epochs=epochs)
            elif runner == "resilient":
                WORK.mkdir(exist_ok=True)
                with tempfile.TemporaryDirectory(dir=WORK) as ckpt_dir:
                    trial.result = wl.run_resilient(
                        spec.batch, schedule_, checkpoint_dir=ckpt_dir, seed=seed,
                        epochs=epochs,
                    )
            else:
                trial.result = wl.run_parallel(
                    spec.batch, schedule_, workers=2, backend=runner, seed=seed,
                    epochs=epochs, obs=obs,
                )
        except SetupDone:
            return {"t_first": trial.clock.t_first}
        trials.append(trial)

    out = summarize_train(spec, wl, epochs, trials)
    if tracing:
        out["layers"] = train_layers(rec, trials, saved, registry, profiler)
        WORK.mkdir(exist_ok=True)
        rec.save(str(WORK / f"trace-{args.workload}-seed{args.seed}.json"), os.getpid())
    return out


class Trial:
    """One training run from scratch: its loader clock, evals and result."""

    def __init__(self, clock: LoaderClock) -> None:
        self.clock = clock
        self.evals: list[tuple[float, float, dict]] = []
        self.result = None
        self.hit: int | None = None  # index of the eval that met the target

    def timed_eval(self, evaluate, rec):
        def run_eval():
            span = rec.begin("eval") if rec is not None else None
            start = time.perf_counter()
            metrics = evaluate()
            self.evals.append((start, time.perf_counter(), dict(metrics)))
            if span is not None:
                rec.end(span)
            return metrics

        return run_eval

    @property
    def done(self) -> list[dict]:
        return [ep for ep in self.clock.epochs if ep["done"]]

    @property
    def window(self) -> tuple[float, float]:
        """From the end of epoch 1 to the end of the last epoch."""
        done = self.done
        return done[0]["marks"][-1], done[-1]["marks"][-1]

    def between(self, intervals) -> float:
        """Seconds of the given (start, end, ...) intervals inside the window."""
        lo, hi = self.window
        return sum(e - s for s, e, *_ in intervals if lo <= s < hi)


def step_times(epochs: list[dict]) -> list[float]:
    """Seconds per item of every step of the given epochs."""
    return [
        (b - a) / n
        for ep in epochs
        for a, b, n in zip(ep["marks"], ep["marks"][1:], ep["sizes"])
    ]


def time_to_hit(trial: Trial, per_item: float) -> float:
    """Seconds to the eval that met the target, steps at ``per_item`` s/item.

    Everything between the steps (evals, checkpoint saves, epoch ends)
    counts as measured.
    """
    done = trial.done[: trial.hit + 1]
    wall = trial.evals[trial.hit][1] - done[0]["marks"][0]
    stepping = sum(ep["marks"][-1] - ep["marks"][0] for ep in done)
    return wall - stepping + per_item * sum(ep["items"] for ep in done)


def summarize_train(spec, wl, epochs, trials: list[Trial]) -> dict:
    steps_per_epoch = wl.steps_per_epoch(spec.batch)
    attempted = failed = 0
    complete = True
    losses, finals, quality, rates = [], [], [], []
    for trial in trials:
        trial_losses = trial.result.log.values("loss")
        diverged = trial.result.diverged
        budget = epochs * steps_per_epoch
        attempted += max(budget, len(trial_losses))
        failed += sum(not math.isfinite(v) for v in trial_losses)
        failed += max(0, budget - len(trial_losses)) if diverged else 0
        losses += trial_losses
        done = trial.done
        if diverged or len(done) != epochs or len(trial.evals) != epochs:
            complete = False
            continue
        rates += [ep["items"] / (ep["marks"][-1] - ep["marks"][0]) for ep in done[1:]]
        if spec.target is None:
            trial.hit = len(trial.evals) - 1
        else:
            trial.hit = next(
                (i for i, (_, _, m) in enumerate(trial.evals) if met(spec, m)), None
            )
        finals.append(statistics.fmean(trial_losses[-steps_per_epoch:]))
        quality.append([m.get(spec.metric) for _, _, m in trial.evals])
    hits = [t for t in trials if t.hit is not None]
    out = {
        "t_first": trials[0].clock.t_first,
        "attempted": attempted,
        "failed": failed,
        "losses": losses,
        "checks": {
            "budget_completed": complete,
            "no_failed_steps": failed == 0,
        },
    }
    if spec.target is not None:
        out["checks"][f"{spec.metric}_target"] = complete and len(hits) == len(trials)
    if complete:
        # the host's fast state: the 2nd percentile of seconds per item over
        # epochs 2..end of every trial (see README, "Fast-state timing")
        fast = percentile([u for t in trials for u in step_times(t.done[1:])], FAST_PCT)
        reached = len(hits) == len(trials)
        out.update(
            throughput=1.0 / fast,
            time_to_target_s=(
                statistics.fmean(time_to_hit(t, fast) for t in hits) if reached else math.nan
            ),
            final_loss=statistics.fmean(finals),
            quality=quality,
            # the wall clock's medians, for the record
            median_throughput=statistics.median(rates),
            median_time_to_target_s=(
                statistics.median(t.evals[t.hit][1] - t.done[0]["marks"][0] for t in hits)
                if reached else math.nan
            ),
        )
    return out


def counter_sum(registry, prefix: str, suffix: str) -> float:
    return sum(
        inst["value"]
        for inst in registry.snapshot()
        if inst["type"] == "counter"
        and inst["name"].startswith(prefix)
        and inst["name"].endswith(suffix)
    )


def train_layers(rec, trials: list[Trial], saved, registry, profiler) -> dict:
    """Per-step self times over epochs 2..end of every trial, plus counts."""
    spans = rec.spans
    roots = root_of(spans)
    windows = [t.window for t in trials]
    steps = sum(len(ep["marks"]) - 1 for t in trials for ep in t.done[1:])
    total_steps = sum(len(ep["marks"]) - 1 for t in trials for ep in t.done)

    def in_step(i: int) -> bool:
        root = spans[roots[i]]
        return root[NAME] not in ("eval", "ckpt.save") and any(
            lo <= root[START] < hi for lo, hi in windows
        )

    own = self_times(spans, in_step)

    def per_step(name: str) -> float:
        return 1e3 * own.get(name, 0.0) / steps

    def total_ms(name: str) -> float:
        return 1e3 * sum(
            s[END] - s[START] for i, s in enumerate(spans) if s[NAME] == name and in_step(i)
        ) / steps

    roots_ms = 1e3 * sum(
        s[END] - s[START] for i, s in enumerate(spans) if s[PARENT] < 0 and in_step(i)
    ) / steps
    # saves from the first step on; the first trial's baseline save is set-up
    ckpt = [
        s for s in spans
        if s[NAME] == "ckpt.save" and any(s[START] >= t.done[0]["marks"][0] for t in trials)
    ]
    # step wall: the windows minus the evals and checkpoint saves inside them
    saves = [(s[START], s[END]) for s in ckpt]
    wall_s = sum(
        (hi - lo) - t.between(t.evals) - t.between(saves) for t, (lo, hi) in zip(trials, windows)
    )
    eval_ms = [(e - s) * 1e3 for t in trials for s, e, _ in t.evals]
    to_target = [
        (sum(e - s for s, e, _ in t.evals[: t.hit + 1]), t.evals[t.hit][1] - t.done[0]["marks"][0])
        for t in trials if t.hit is not None
    ]
    real = sum(ep["real"] for t in trials for ep in t.done[1:])
    slots = sum(ep["slots"] for t in trials for ep in t.done[1:])
    # each mp worker times its own forward plus backward (parallel/w<i>/step_ms)
    worker = [
        inst for inst in registry.snapshot()
        if inst["type"] == "histogram" and inst["name"].startswith("parallel/w")
        and inst["name"].endswith("/step_ms")
    ]
    worker_count = sum(inst["count"] for inst in worker)
    return {
        "data.next_ms": per_step("data.next"),
        "data.pad_share": 1.0 - real / slots if slots else 0.0,
        "fwd.step_ms": total_ms("fwd"),
        "fwd.embedding_ms": per_step("fwd.embedding"),
        "fwd.lstm_ms": per_step("fwd.lstm"),
        "fwd.decoder_ms": per_step("fwd.decoder"),
        "fwd.attention_ms": per_step("fwd.attention"),
        "fwd.head_ms": per_step("fwd.head"),
        "fwd.loss_ms": per_step("fwd"),
        "bwd.step_ms": per_step("bwd"),
        "tensor.graph_nodes": (
            profiler.graph_nodes / (len(trials[0].done[0]["marks"]) - 1) if profiler else 0.0
        ),
        "compile.replay_share": registry.counter("compile/replays").value / total_steps,
        "optim.step_ms": per_step("optim.step"),
        "optim.clip_ms": per_step("optim.clip"),
        "train.overhead_ms": 1e3 * wall_s / steps - roots_ms,
        "eval.ms": statistics.fmean(eval_ms) if eval_ms else 0.0,
        "eval.share": (
            sum(a for a, _ in to_target) / sum(b for _, b in to_target) if to_target else 0.0
        ),
        "ckpt.save_ms": statistics.fmean([(s[END] - s[START]) * 1e3 for s in ckpt]) if ckpt else 0.0,
        "ckpt.bytes": statistics.fmean(saved) if saved else 0.0,
        "parallel.step_ms": total_ms("parallel.step"),
        "parallel.reduce_ms": per_step("parallel.reduce"),
        # the cluster call's self time: sending shards and waiting on workers
        "parallel.wait_ms": per_step("parallel.step"),
        "parallel.worker_step_ms": (
            sum(inst["sum"] for inst in worker) / worker_count if worker_count else 0.0
        ),
        "parallel.allreduce_bytes": counter_sum(registry, "allreduce/", "/bytes") / total_steps,
        "parallel.allreduce_calls": counter_sum(registry, "allreduce/", "/calls") / total_steps,
        "parallel.broadcast_bytes": registry.counter("parallel/broadcast/bytes").value / total_steps,
        "parallel.retries": registry.counter("parallel/retries").value,
    }


# -- serving ----------------------------------------------------------------


def serve(args) -> dict:
    import numpy as np

    from repro.data import PaddedBatchIterator
    from repro.data.vocab import BOS, EOS, PAD
    from repro.experiments.common import gnmt_workload
    from repro.obs import OpProfiler
    from repro.serve import DynamicBatcher, InferenceEngine, Server
    from repro.tensor import no_grad
    from repro.train.metrics import corpus_bleu

    wl = gnmt_workload("smoke")
    pairs = wl.test_pairs  # 64 fixed sources of length 3-7 + references
    pool = [src for src, _ in pairs]
    model = wl.make_model(0)
    with np.load(WEIGHTS) as arrays:
        model.load_state_dict({name: arrays[name] for name in arrays.files})
    engine = InferenceEngine(model, "gnmt", beam_size=2)
    tracing = args.mode == "trace"
    rec = Recorder() if tracing else None
    ids: dict[int, tuple[str, int]] = {}
    if tracing:
        rec.wrap(
            engine, "predict", "serve.predict",
            after=lambda span, a, r: span.__setitem__(REQS, [ids.get(id(p)) for p in a[0]]),
        )
        wrap_forward(rec, model)
    server = Server(engine, DynamicBatcher(max_batch_size=32, max_wait_ms=2.0)).start()
    try:
        warm = {len(p): p for p in pool}
        for length in sorted(warm):
            server.predict_sync(warm[length], length)
        t_first = time.monotonic()
        if args.mode == "setup":
            return {"t_first": t_first}
        rng = np.random.default_rng(args.seed)
        nominal_requests = 4 if args.smoke else max(20, round(12 * args.seconds))
        rounds = 2 if args.smoke else max(4, round(args.seconds / ROUND_S))
        overload_requests = 4 if args.smoke else OVERLOAD_REQUESTS

        def tag(payload, i: int) -> None:  # which nominal request a payload is
            ids[id(payload)] = ("nominal", i)

        offsets, picks = schedule(rng, NOMINAL_RATE, nominal_requests, len(pool))
        nominal = run_phase(server, pool, offsets, picks, tag if tracing else None)

        # a job: the evaluation set translated in one go (all 64 sources, in
        # seed-shuffled order, submitted at once): time to a BLEU-checked result
        job_s, job_tokens = [], {}

        def job() -> None:
            order = rng.permutation(len(pool))
            start = time.perf_counter()
            reqs = [(int(i), server.submit(np.array(pool[i]), len(pool[i]))) for i in order]
            for _, req in reqs:
                req.wait(30.0)
            job_s.append(time.perf_counter() - start)
            for i, req in reqs:
                good = req.done and isinstance(req.result, dict) and "tokens" in req.result
                job_tokens.setdefault(i, []).append(req.result["tokens"] if good else None)

        overloads = []
        profiler = OpProfiler() if tracing else None
        for k in range(rounds):
            if k == 0 and profiler is not None:  # graph nodes built serving: must be 0
                with profiler.attached_to_engine():
                    job()
            else:
                job()
            # saturation: offered far above capacity, so the server never idles
            offsets, picks = schedule(rng, OVERLOAD_RATE, overload_requests, len(pool))
            overloads.append(run_phase(server, pool, offsets, picks))
    finally:
        server.stop()

    # batch-1 reference decodes from the same engine, after the server stopped
    refs = [engine.predict([p], [len(p)])[0]["tokens"] for p in pool]
    mismatched = sum(
        s.ok and s.request.result["tokens"] != refs[s.pick] for shots in overloads for s in shots
    )
    nominal_failed = sum(
        not s.ok or s.request.result["tokens"] != refs[s.pick] for s in nominal
    )
    job_failed = sum(
        tok is None or tok != refs[i] for i, toks in job_tokens.items() for tok in toks
    )
    served = [(pool[i], np.asarray(job_tokens[i][-1] or [], dtype=np.int64)) for i in range(len(pool))]
    bleu = corpus_bleu(
        [list(map(int, tgt)) for _, tgt in pairs], [list(map(int, t)) for _, t in served]
    )
    batch = next(iter(PaddedBatchIterator(
        served, len(served), rng=0, pad_id=PAD, bos_id=BOS, eos_id=EOS, shuffle=False
    )))
    with no_grad():
        served_nll = float(model.loss(batch).data)
    lat = [s.latency_ms for s in nominal]
    # seconds per answered request of each overload phase, from the first
    # request's due time to the last answer
    per_request = []
    for shots in overloads:
        answered = [s.request.completed_at for s in shots if s.ok]
        per_request.append((max(answered, default=math.nan) - shots[0].due) / max(1, len(answered)))
    out = {
        "t_first": t_first,
        "attempted": len(nominal) + len(job_s) * len(pool),
        "failed": nominal_failed + job_failed,
        # medians: a dozen samples are too few for a low percentile (see
        # README, "Fast-state timing")
        "throughput": 1.0 / statistics.median(per_request),
        "time_to_target_s": statistics.median(job_s),
        "final_loss": served_nll,
        "latency_p50_ms": percentile(lat, 50),
        "latency_p95_ms": percentile(lat, 95),
        "latency_samples": len(lat),
        "bleu": bleu,
        "checks": {
            "served_equal_reference": mismatched + job_failed == 0,
            "bleu_target": bleu >= BLEU_TARGET,
            "no_failed_requests": nominal_failed + job_failed == 0,
            # the queue holds 256, so even at overload nothing may be shed
            "overload_all_answered": all(s.ok for shots in overloads for s in shots),
        },
    }
    if tracing:
        out["layers"] = serve_layers(rec, nominal, ids, profiler, len(pool))
        WORK.mkdir(exist_ok=True)
        rec.save(str(WORK / f"trace-{args.workload}-seed{args.seed}.json"), os.getpid())
    return out


def serve_layers(rec, nominal, ids, profiler, job_requests) -> dict:
    """Per-request and per-batch numbers over the nominal-rate phase."""
    spans = rec.spans
    roots = root_of(spans)
    predicts = [
        i for i, s in enumerate(spans)
        if s[NAME] == "serve.predict" and s[REQS] and s[REQS][0] and s[REQS][0][0] == "nominal"
    ]
    chosen = set(predicts)
    own = self_times(spans, lambda i: roots[i] in chosen)
    calls = max(1, len(predicts))
    steps = sum(1 for i, s in enumerate(spans) if s[NAME] == "fwd.attention" and roots[i] in chosen)
    served_by: dict[int, list] = {}
    for i in predicts:
        for req in spans[i][REQS]:
            if req is not None:
                served_by[req[1]] = spans[i]
    wait_ms, service_ms, tokens = [], [], 0
    for k, shot in enumerate(nominal):
        span = served_by.get(k)
        if span is None:
            continue
        wait_ms.append((span[START] - shot.request.submitted_at) * 1e3)
        service_ms.append((span[END] - span[START]) * 1e3)
        tokens += len(shot.request.result["tokens"]) if shot.ok else 0
    busy = sum(spans[i][END] - spans[i][START] for i in predicts)
    window = max(s.request.completed_at or s.due for s in nominal) - nominal[0].due

    def per_call(name: str) -> float:
        return 1e3 * own.get(name, 0.0) / calls

    return {
        "fwd.step_ms": 1e3 * busy / calls,
        "fwd.embedding_ms": per_call("fwd.embedding"),
        "fwd.lstm_ms": per_call("fwd.lstm"),
        "fwd.decoder_ms": per_call("fwd.decoder"),
        "fwd.attention_ms": per_call("fwd.attention"),
        "fwd.head_ms": per_call("fwd.head"),
        "fwd.loss_ms": per_call("serve.predict"),
        "tensor.graph_nodes": profiler.graph_nodes / job_requests,
        "serve.queue_wait_ms_p50": percentile(wait_ms, 50),
        "serve.queue_wait_ms_p95": percentile(wait_ms, 95),
        "serve.service_ms_p50": percentile(service_ms, 50),
        "serve.batch_size_mean": sum(len(spans[i][REQS]) for i in predicts) / calls,
        "serve.busy_share": busy / window,
        "serve.decode_steps_per_req": steps / max(1, len(service_ms)),
        "serve.useful_step_share": tokens / steps if steps else 0.0,
        "serve.gen_late_ms_p99": percentile([(s.sent - s.due) * 1e3 for s in nominal], 99),
    }


# -- process boundary ---------------------------------------------------------


def blas_info() -> dict:
    """The BLAS numpy loaded and the thread count it will use."""
    import ctypes

    import numpy as np

    info = np.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "blas" in line.lower() and ".so" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads}


def peak_rss_kb() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=[*TRAIN, "serve-gnmt"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace", "serial"), required=True)
    parser.add_argument("--smoke", action="store_true", help="a few steps or requests only")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    result = serve(args) if args.workload == "serve-gnmt" else train(args)
    result["rss_kb"] = peak_rss_kb()
    result["blas"] = blas_info()
    with open(args.out, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
