"""Shared experiment machinery: the five workloads, scaled down.

A :class:`Workload` bundles everything a figure/table driver needs to train
one of the paper's applications at any batch size under any schedule:
dataset, model factory, solver, decay family, the batch ladder, and the
baseline (base_batch, base_lr, base_warmup_epochs) triple that LEGW scales
from.

Scaling-down policy (full argument in DESIGN.md §2, numbers in
EXPERIMENTS.md): datasets shrink by a constant factor and the batch ladder
shrinks with them, preserving the paper's batch *ratios* — LEGW's rules
consume only ratios, so the schedule arithmetic is identical to the
paper's.  Baseline (base_lr, base_warmup_epochs) triples were tuned once
at the base batch, exactly the protocol of Section 3.3; the calibrated
constants live in the builder functions below and nowhere else.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.adapt import AdaptiveBatchTrainer, BatchSizeController
from repro.data import (
    BatchIterator,
    MarkovLanguageSource,
    PaddedBatchIterator,
    TranslationTask,
    Vocab,
    make_image_classification,
    make_ptb_corpus,
    make_sequential_mnist,
    make_translation_dataset,
)
from repro.data.vocab import BOS, EOS, PAD
from repro.models import GNMT, MiniResNet, MnistLSTMClassifier, PTBLanguageModel
from repro.obs import Obs
from repro.optim import SOLVERS, Optimizer
from repro.schedules import (
    ConstantLR,
    ExponentialEpochDecay,
    GradualWarmup,
    LEGW,
    MultiStepDecay,
    PolynomialDecay,
    Schedule,
    linear_scaled_lr,
    sqrt_scaled_lr,
)
from repro.parallel.buckets import DEFAULT_BUCKET_MB
from repro.parallel.cluster import SimCluster
from repro.parallel.faults import LossFaultInjector
from repro.parallel.mp import MultiprocessCluster
from repro.train import ResilientTrainer, Trainer, TrainResult

PRESETS = ("smoke", "small")


@dataclass(frozen=True)
class TrainConfig:
    """One training run of a :class:`Workload`, checked when it is built.

    Every combination of fields either trains under a stated guarantee or
    is refused here, with a reason, before anything is built.  The policy
    is the plain loop by default, the rollback policy with
    ``checkpoint_dir`` (``ResilientTrainer``) or the adaptive batch policy
    with ``adaptive_batch`` (``AdaptiveBatchTrainer``, checkpointed when
    ``checkpoint_dir`` is set).  ``workers`` trains any policy through a
    ``backend`` cluster (``"sim"`` in-process, ``"mp"`` OS processes),
    with the ``algorithm``/``bucket_mb``/``wire_dtype``/
    ``stochastic_rounding`` reduction.  Rollback and resume are bit-exact
    on every path that is not refused.

    ``batch`` defaults to the workload's base batch (the adaptive policy
    always starts there), ``schedule`` to LEGW at that batch and
    ``epochs`` to the workload's.  ``amp=None`` follows ``REPRO_AMP`` in
    one process and is off with ``workers``: a cluster installs
    pre-averaged gradients the loss scaler never saw.  ``max_batch``
    (default: the top of the ladder), ``noise_every`` (16),
    ``target_ratio`` (2.0) and ``rewarmup`` tune the adaptive policy.
    """

    batch: int | None = None
    schedule: Schedule | None = None
    solver: str | None = None
    seed: int = 0
    epochs: int | None = None
    obs: Obs | None = None
    metrics_every: int = 0
    amp: bool | None = None
    workers: int | None = None
    backend: str = "sim"
    algorithm: str = "ring"
    bucket_mb: float | None = DEFAULT_BUCKET_MB
    wire_dtype: str | None = None
    stochastic_rounding: bool = False
    checkpoint_dir: str | os.PathLike | None = None
    resume: bool = False
    keep_last: int | None = 3
    max_recoveries: int = 2
    fault_rate: float = 0.0
    adaptive_batch: bool = False
    max_batch: int | None = None
    noise_every: int | None = None
    target_ratio: float | None = None
    rewarmup: bool = True

    def __post_init__(self) -> None:
        adaptive, workers = self.adaptive_batch, self.workers
        ckpt = self.checkpoint_dir is not None
        refusals = (
            (self.resume and not ckpt, "resume requires checkpoint_dir"),
            (self.fault_rate and not ckpt,
             "fault_rate requires checkpoint_dir: injected faults need the "
             "rollback policy"),
            (workers is not None and workers < 1, "workers must be >= 1"),
            (self.backend not in ("sim", "mp"),
             f"unknown backend {self.backend!r} (sim or mp)"),
            ((self.wire_dtype is not None or self.stochastic_rounding)
             and workers is None,
             "wire_dtype and stochastic_rounding require workers"),
            (self.stochastic_rounding and self.wire_dtype != "fp16",
             "stochastic_rounding requires wire_dtype fp16"),
            (self.stochastic_rounding and ckpt,
             "stochastic_rounding with checkpoint_dir: the wire's rounding "
             "stream is not checkpointed, so rollback and resume would drift"),
            (self.amp and workers is not None,
             "amp=True with workers: the cluster installs pre-averaged "
             "gradients the loss scaler never saw; compress the wire with "
             "wire_dtype"),
            (adaptive and self.batch is not None,
             "adaptive_batch owns the batch size (it starts at the "
             "workload's base batch); drop batch"),
            (adaptive and self.fault_rate,
             "adaptive_batch with fault_rate: the adaptive policy has no "
             "rollback"),
            (adaptive and not isinstance(self.schedule, (LEGW, type(None))),
             "adaptive_batch requires a LEGW schedule: growth events rescale "
             "the LEGW envelope"),
            (adaptive and self.noise_every is not None and self.noise_every < 1,
             "noise_every must be >= 1"),
            (not adaptive and (
                (self.max_batch, self.noise_every, self.target_ratio)
                != (None, None, None) or not self.rewarmup),
             "max_batch, noise_every, target_ratio and rewarmup require "
             "adaptive_batch"),
        )
        for refused, reason in refusals:
            if refused:
                raise ValueError(reason)


def _check_preset(preset: str) -> None:
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}; expected one of {PRESETS}")


@dataclass
class Workload:
    """One of the paper's five applications, ready to train."""

    name: str
    metric: str
    mode: str  # "max" or "min"
    n_train: int
    base_batch: int
    batches: list[int]
    base_lr: float
    base_warmup_epochs: float
    epochs: int
    solver: str
    grad_clip: float | None
    make_model: Callable[[int], Any]
    make_train_iter: Callable[[int, int], Any]
    make_eval_fn: Callable[[Any], Callable[[], dict[str, float]]]
    # (peak_lr, steps_per_epoch, total_epochs) -> post-warmup decay schedule
    decay: Callable[[float, int, int], Schedule] | None = None
    solver_kwargs: dict[str, Any] = field(default_factory=dict)
    adam_grid: tuple[float, ...] = ()
    lr_grid: tuple[float, ...] = ()
    # paper batch = ours * paper_batch_factor (reporting only):
    paper_batch_factor: int = 1
    # the trainer of the newest :meth:`train` (trajectory, health events)
    last_trainer: Any = field(default=None, init=False, repr=False, compare=False)

    # -- schedule construction ------------------------------------------------

    def steps_per_epoch(self, batch: int) -> int:
        return math.ceil(self.n_train / batch)

    def _decay_factory(self, batch: int, epochs: int | None = None):
        """Adapt ``self.decay`` to LEGW's ``peak_lr -> Schedule`` factory."""
        if self.decay is None:
            return None
        spe = self.steps_per_epoch(batch)
        total = epochs if epochs is not None else self.epochs
        return lambda peak: self.decay(peak, spe, total)

    def legw_schedule(self, batch: int, epochs: int | None = None) -> LEGW:
        """The paper's method at this batch size — zero extra tuning."""
        return LEGW(
            base_lr=self.base_lr,
            base_batch=self.base_batch,
            base_warmup_epochs=self.base_warmup_epochs,
            batch=batch,
            steps_per_epoch=self.steps_per_epoch(batch),
            decay=self._decay_factory(batch, epochs),
        )

    def scaled_schedule(
        self,
        batch: int,
        scaling: str = "linear",
        warmup_epochs: float = 0.0,
        epochs: int | None = None,
        lr: float | None = None,
    ) -> Schedule:
        """Baseline schedules: linear/sqrt scaling with fixed-epoch warmup.

        ``scaling='linear', warmup_epochs=5`` is the Goyal et al. recipe;
        ``warmup_epochs=0`` gives the no-warmup strawmen of Figures 1/5.
        ``lr`` overrides the scaled peak (used by the tuning sweeps).
        """
        if lr is None:
            if scaling == "linear":
                lr = linear_scaled_lr(self.base_lr, self.base_batch, batch)
            elif scaling == "sqrt":
                lr = sqrt_scaled_lr(self.base_lr, self.base_batch, batch)
            elif scaling == "none":
                lr = self.base_lr
            else:
                raise ValueError(f"unknown scaling {scaling!r}")
        factory = self._decay_factory(batch, epochs)
        inner = ConstantLR(lr) if factory is None else factory(lr)
        spe = self.steps_per_epoch(batch)
        return GradualWarmup(inner, int(round(warmup_epochs * spe)))

    # -- training -----------------------------------------------------------------

    def make_optimizer(self, model, solver: str | None = None) -> Optimizer:
        solver = solver or self.solver
        cls = SOLVERS[solver]
        # constructor lr is a placeholder; the trainer sets it per iteration
        return cls(model, lr=self.base_lr, **self.solver_kwargs.get(solver, {}))

    def train(self, cfg: TrainConfig) -> TrainResult:
        """Train one configuration from scratch and evaluate each epoch.

        The one entry point: every policy and every cluster is built here
        the same way, from this instance's ``make_*`` attributes.  The
        trainer is kept as :attr:`last_trainer` (growth trajectory,
        health events), and a cluster is closed on every exit.
        """
        epochs = self.epochs if cfg.epochs is None else cfg.epochs
        batch = self.base_batch if cfg.batch is None else cfg.batch
        schedule = cfg.schedule
        if schedule is None:
            schedule = self.legw_schedule(batch, epochs)
        model = self.make_model(cfg.seed)
        optimizer = self.make_optimizer(model, cfg.solver)
        cluster = None if cfg.workers is None else self._cluster(cfg, model)
        common = dict(
            loss_fn=model.loss if cluster is None else cluster.as_loss_fn(model),
            eval_fn=self.make_eval_fn(model),
            grad_clip=self.grad_clip,
            obs=cfg.obs,
            metrics_every=cfg.metrics_every,
            amp=cfg.amp,
        )
        try:
            if cfg.adaptive_batch:
                controller = BatchSizeController(
                    batch,
                    max(self.batches) if cfg.max_batch is None else cfg.max_batch,
                    target_ratio=2.0 if cfg.target_ratio is None else cfg.target_ratio,
                )
                trainer = AdaptiveBatchTrainer(
                    model, optimizer, schedule, self.make_train_iter,
                    base_batch=batch,
                    controller=controller,
                    data_seed=cfg.seed + 1,
                    cluster=cluster,
                    noise_every=16 if cfg.noise_every is None else cfg.noise_every,
                    base_warmup_epochs=self.base_warmup_epochs,
                    rewarmup=cfg.rewarmup,
                    checkpoint_dir=cfg.checkpoint_dir,
                    keep_last=cfg.keep_last,
                    **common,
                )
            elif cfg.checkpoint_dir is not None:
                trainer = ResilientTrainer(
                    model, optimizer, schedule,
                    self.make_train_iter(batch, cfg.seed + 1),
                    checkpoint_dir=cfg.checkpoint_dir,
                    keep_last=cfg.keep_last,
                    max_recoveries=cfg.max_recoveries,
                    fault_injector=(
                        LossFaultInjector(cfg.fault_rate, seed=cfg.seed)
                        if cfg.fault_rate > 0 else None
                    ),
                    **common,
                )
            else:
                trainer = Trainer(
                    optimizer=optimizer, schedule=schedule,
                    train_iter=self.make_train_iter(batch, cfg.seed + 1),
                    **common,
                )
            self.last_trainer = trainer
            result = trainer.run(epochs, resume=cfg.resume)
        finally:
            if cluster is not None:
                cluster.close()
        if cluster is not None:
            result.final_metrics.setdefault("workers", float(cfg.workers))
            if cluster.last_timeline is not None:
                result.final_metrics.setdefault(
                    "overlap_fraction", cluster.last_timeline.overlap_fraction
                )
        return result

    def _cluster(self, cfg: TrainConfig, model):
        """The ``cfg.workers``-way cluster, whichever policy trains through it."""
        wire = dict(
            algorithm=cfg.algorithm,
            bucket_mb=cfg.bucket_mb,
            wire_dtype=cfg.wire_dtype,
            stochastic_rounding=cfg.stochastic_rounding,
        )
        if cfg.backend == "sim":
            return SimCluster(
                list(model.parameters()), model.loss, cfg.workers, **wire
            )
        obs = cfg.obs
        # fork-start workers inherit this closure without pickling
        return MultiprocessCluster(
            lambda: self.make_model(cfg.seed),
            cfg.workers,
            timeout=120.0,
            telemetry=obs is not None
            and (obs.metrics is not None or obs.tracer is not None),
            tracer=None if obs is None else obs.tracer,
            **wire,
        )

    def run(
        self, batch: int | None = None, schedule: Schedule | None = None, **options
    ) -> TrainResult:
        """:meth:`train` with the :class:`TrainConfig` built from arguments."""
        return self.train(TrainConfig(batch=batch, schedule=schedule, **options))

    # perfbench calls these two by name
    def run_parallel(self, batch, schedule, *, workers, **options) -> TrainResult:
        return self.run(batch, schedule, workers=workers, **options)

    def run_resilient(self, batch, schedule, *, checkpoint_dir, **options) -> TrainResult:
        return self.run(batch, schedule, checkpoint_dir=checkpoint_dir, **options)

    def run_legw(
        self, batch: int, seed: int = 0, epochs: int | None = None
    ) -> TrainResult:
        return self.run(batch, seed=seed, epochs=epochs)  # LEGW is the default

    def run_adam(
        self, batch: int, lr: float, seed: int = 0, epochs: int | None = None
    ) -> TrainResult:
        """Adam baseline at a fixed LR (the paper tunes this LR on a grid)."""
        return self.run(batch, ConstantLR(lr), solver="adam", seed=seed, epochs=epochs)

    def paper_batch(self, batch: int) -> int:
        """The paper-scale batch size this scaled batch stands for."""
        return batch * self.paper_batch_factor


def score_of(result: TrainResult, metric: str) -> float:
    """A run's reportable score; diverged runs score NaN."""
    if result.diverged:
        return float("nan")
    value = result.metric(metric)
    return float("nan") if value is None else float(value)


# ---------------------------------------------------------------------------
# workload builders — every calibrated constant lives here, one place each
# ---------------------------------------------------------------------------


def mnist_workload(preset: str = "smoke", seed: int = 100) -> Workload:
    """MNIST-LSTM (paper §5.1.1): momentum, constant LR, batch 128→8K.

    Smoke preset: 14×14 glyphs (half the paper's 28 LSTM steps), batch
    ladder 16→256 standing for 128→2K; small preset: full 28×28 geometry,
    ladder to 1024 (→8K, the paper's full ×64 span).
    """
    _check_preset(preset)
    if preset == "smoke":
        size, n_train, n_test, epochs = 14, 1024, 256, 18
        batches = [16, 64, 256]
    else:
        size, n_train, n_test, epochs = 28, 4096, 512, 25
        batches = [16, 64, 256, 1024]
    train, test = make_sequential_mnist(n_train, n_test, rng=seed, size=size)

    def make_model(model_seed: int):
        return MnistLSTMClassifier(
            rng=model_seed, input_dim=size, transform_dim=32, hidden=32
        )

    return Workload(
        name="mnist",
        metric="accuracy",
        mode="max",
        n_train=n_train,
        base_batch=16,
        batches=batches,
        base_lr=0.06,
        base_warmup_epochs=0.1,
        epochs=epochs,
        solver="momentum",
        grad_clip=None,
        make_model=make_model,
        make_train_iter=lambda batch, s: BatchIterator(train, batch, rng=s),
        make_eval_fn=lambda model: (lambda: model.evaluate(test)),
        decay=None,  # constant LR, as in the paper's MNIST setup
        # the paper's MNIST grid is {1e-4..1e-3}; the scaled task's usable
        # Adam range sits higher (fewer steps per epoch), same span in log
        adam_grid=(0.0005, 0.001, 0.002, 0.005, 0.01),
        lr_grid=(0.01, 0.02, 0.04, 0.08, 0.16),  # paper's effective range
        paper_batch_factor=8,
    )


def ptb_small_workload(preset: str = "smoke", seed: int = 200) -> Workload:
    """PTB-small (paper §5.1.2): momentum + exponential decay, batch 20→640.

    Decay is the paper's: hold, then ×0.4 per epoch (hold 7 of 13 epochs;
    the smoke preset keeps the 7-epoch hold inside a 12-epoch run).
    """
    _check_preset(preset)
    if preset == "smoke":
        n_tokens, n_val, epochs, hold = 12000, 1600, 12, 7
        batches = [5, 20, 40]
    else:
        n_tokens, n_val, epochs, hold = 24000, 3200, 13, 7
        batches = [5, 20, 80, 160]
    source = MarkovLanguageSource(50, rng=seed)
    seq_len = 20
    train = make_ptb_corpus(source, n_tokens, seq_len, rng=seed + 1)
    val = make_ptb_corpus(source, n_val, seq_len, rng=seed + 2)

    def make_model(model_seed: int):
        return PTBLanguageModel(
            source.vocab_size, rng=model_seed, embed_dim=32, hidden=32,
            init_scale=0.1,
        )

    wl = Workload(
        name="ptb_small",
        metric="perplexity",
        mode="min",
        n_train=len(train),
        base_batch=5,
        batches=batches,
        base_lr=2.0,
        base_warmup_epochs=0.05,
        epochs=epochs,
        solver="momentum",
        grad_clip=5.0,
        make_model=make_model,
        make_train_iter=lambda batch, s: BatchIterator(train, batch, rng=s),
        make_eval_fn=lambda model: (lambda: model.evaluate(val)),
        decay=lambda peak, spe, total: ExponentialEpochDecay(
            peak, hold_epochs=hold, decay_rate=0.4, steps_per_epoch=spe
        ),
        adam_grid=(0.002, 0.005, 0.01, 0.02, 0.04),
        lr_grid=(0.5, 1.0, 2.0, 4.0, 8.0),
        paper_batch_factor=4,
    )
    wl.source = source  # type: ignore[attr-defined]  # exposed for tests
    return wl


def ptb_large_workload(preset: str = "smoke", seed: int = 300) -> Workload:
    """PTB-large (paper §5.1.2): LARS + poly decay (p=2), batch 20→640."""
    _check_preset(preset)
    if preset == "smoke":
        n_tokens, n_val, epochs = 14000, 2000, 12
        batches = [5, 20, 40]
    else:
        n_tokens, n_val, epochs = 28000, 4000, 14
        batches = [5, 20, 80, 160]
    source = MarkovLanguageSource(60, rng=seed)
    seq_len = 35
    train = make_ptb_corpus(source, n_tokens, seq_len, rng=seed + 1)
    val = make_ptb_corpus(source, n_val, seq_len, rng=seed + 2)

    def make_model(model_seed: int):
        return PTBLanguageModel(
            source.vocab_size, rng=model_seed, embed_dim=48, hidden=48,
            init_scale=0.04,
        )

    wl = Workload(
        name="ptb_large",
        metric="perplexity",
        mode="min",
        n_train=len(train),
        base_batch=5,
        batches=batches,
        base_lr=2.0,
        base_warmup_epochs=0.05,
        epochs=epochs,
        solver="lars",
        solver_kwargs={"lars": {"weight_decay": 1e-4, "trust_coefficient": 0.02}},
        grad_clip=5.0,
        make_model=make_model,
        make_train_iter=lambda batch, s: BatchIterator(train, batch, rng=s),
        make_eval_fn=lambda model: (lambda: model.evaluate(val)),
        decay=lambda peak, spe, total: PolynomialDecay(
            peak, total_iterations=spe * total, power=2.0
        ),
        adam_grid=(0.002, 0.005, 0.01, 0.02, 0.04),
        lr_grid=(0.5, 1.0, 2.0, 4.0),
        paper_batch_factor=4,
    )
    wl.source = source  # type: ignore[attr-defined]
    return wl


def gnmt_workload(preset: str = "smoke", seed: int = 400) -> Workload:
    """GNMT (paper §5.1.3): Adam-scale LRs, sqrt scaling, batch 256→4K.

    Ladder 8→64 stands for 256→2K (span ×8 of Table 2's ×16; the small
    preset extends to 128 → 4K).
    """
    _check_preset(preset)
    if preset == "smoke":
        n_pairs, n_test, epochs = 512, 64, 20
        batches = [8, 16, 32, 64]
    else:
        n_pairs, n_test, epochs = 1024, 128, 24
        batches = [8, 16, 32, 64, 128]
    vocab = Vocab(20)
    task = TranslationTask(vocab, rng=seed, fertility_fraction=0.1)
    pairs = make_translation_dataset(task, n_pairs, rng=seed + 1, min_len=3, max_len=7)
    test_pairs = make_translation_dataset(
        task, n_test, rng=seed + 2, min_len=3, max_len=7
    )

    def make_model(model_seed: int):
        return GNMT(
            vocab, rng=model_seed, embed_dim=32, hidden=32,
            enc_layers=2, dec_layers=2,
        )

    def make_iter(batch: int, s: int):
        return PaddedBatchIterator(
            pairs, batch, rng=s, pad_id=PAD, bos_id=BOS, eos_id=EOS
        )

    wl = Workload(
        name="gnmt",
        metric="bleu",
        mode="max",
        n_train=n_pairs,
        base_batch=8,
        batches=batches,
        base_lr=0.01,
        base_warmup_epochs=0.05,
        epochs=epochs,
        solver="adam",
        grad_clip=5.0,
        make_model=make_model,
        make_train_iter=make_iter,
        make_eval_fn=lambda model: (lambda: model.evaluate_bleu(test_pairs)),
        decay=None,  # Table 2 specifies init LR + warmup only
        adam_grid=(0.0025, 0.005, 0.01, 0.02, 0.04),
        lr_grid=(0.0025, 0.005, 0.01, 0.02, 0.04),
        paper_batch_factor=32,
    )
    wl.task = task  # type: ignore[attr-defined]
    wl.test_pairs = test_pairs  # type: ignore[attr-defined]
    return wl


def resnet_workload(preset: str = "smoke", seed: int = 500) -> Workload:
    """ImageNet/ResNet-50 (paper §6): LARS + LEGW, batch 1K→32K.

    Ladder 8→256 stands for 1K→32K (the full ×32 span of Table 3).
    Decay: multi-step ×0.1 at 1/3, 2/3 and 8/9 of the run — the paper's
    {30, 60, 80}/90 pattern.
    """
    _check_preset(preset)
    if preset == "smoke":
        n_train, n_test, epochs = 960, 200, 9
        batches = [8, 32, 128, 256]
    else:
        n_train, n_test, epochs = 1920, 400, 12
        batches = [8, 16, 32, 64, 128, 256]
    train, test, num_classes = make_image_classification(
        n_train, n_test, rng=seed, num_classes=20, size=10
    )

    def make_model(model_seed: int):
        return MiniResNet(
            3, num_classes, rng=model_seed, stage_channels=(8, 16),
            blocks_per_stage=1,
        )

    def decay(peak: float, spe: int, total: int) -> Schedule:
        milestones = [total / 3, 2 * total / 3, 8 * total / 9]
        return MultiStepDecay(peak, milestones, gamma=0.1, steps_per_epoch=spe)

    return Workload(
        name="resnet",
        metric="top5",
        mode="max",
        n_train=n_train,
        base_batch=8,
        batches=batches,
        base_lr=0.5,
        base_warmup_epochs=0.1,
        epochs=epochs,
        solver="lars",
        solver_kwargs={"lars": {"weight_decay": 1e-4, "trust_coefficient": 0.02}},
        grad_clip=None,
        make_model=make_model,
        make_train_iter=lambda batch, s: BatchIterator(train, batch, rng=s),
        make_eval_fn=lambda model: (lambda: model.evaluate(test)),
        decay=decay,
        adam_grid=tuple(k / 1000 for k in range(1, 11)),
        lr_grid=(0.125, 0.25, 0.5, 1.0, 2.0),
        paper_batch_factor=128,
    )


_BUILDERS = {
    "mnist": mnist_workload,
    "ptb_small": ptb_small_workload,
    "ptb_large": ptb_large_workload,
    "gnmt": gnmt_workload,
    "resnet": resnet_workload,
}


def build_workload(name: str, preset: str = "smoke") -> Workload:
    """Build any of the five workloads by name."""
    if name not in _BUILDERS:
        raise KeyError(f"unknown workload {name!r}; options: {sorted(_BUILDERS)}")
    return _BUILDERS[name](preset)
