"""Multiprocess data-parallel backend: equivalence over real processes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import ArrayDataset, BatchIterator, make_sequential_mnist
from repro.models import MnistLSTMClassifier
from repro.nn import Linear, Module
from repro.optim import SGD
from repro.parallel import MultiprocessCluster, SimCluster
from repro.schedules import ConstantLR
from repro.tensor import Tensor
from repro.train import ResilientTrainer, Trainer


def tiny_model_factory():
    """Module-level so worker processes can unpickle it."""
    return MnistLSTMClassifier(rng=0, input_dim=8, transform_dim=8, hidden=8)


@pytest.mark.slow
class TestMultiprocessCluster:
    def test_gradient_matches_single_process(self):
        train, _ = make_sequential_mnist(24, 8, rng=1, size=8)
        batch = (train.inputs, train.targets)

        ref = tiny_model_factory()
        ref.zero_grad()
        ref_loss = ref.loss(batch)
        ref_loss.backward()

        model = tiny_model_factory()
        with MultiprocessCluster(tiny_model_factory, n_workers=3) as cluster:
            loss = cluster.gradient_step(model, batch)
        assert loss == pytest.approx(float(ref_loss.data))
        for (name, a), (_, b) in zip(
            ref.named_parameters(), model.named_parameters()
        ):
            assert np.allclose(a.grad, b.grad, atol=1e-12), name

    def test_composes_with_optimizer_across_steps(self):
        train, _ = make_sequential_mnist(24, 8, rng=1, size=8)
        batch = (train.inputs, train.targets)

        ref = tiny_model_factory()
        opt_ref = SGD(ref, lr=0.1)
        dist = tiny_model_factory()
        opt_dist = SGD(dist, lr=0.1)
        with MultiprocessCluster(tiny_model_factory, n_workers=2) as cluster:
            for _ in range(3):
                ref.zero_grad()
                ref.loss(batch).backward()
                opt_ref.step()
                cluster.gradient_step(dist, batch)
                opt_dist.step()
        for a, b in zip(ref.parameters(), dist.parameters()):
            assert np.allclose(a.data, b.data, atol=1e-12)

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            MultiprocessCluster(tiny_model_factory, n_workers=0)


@pytest.mark.slow
class TestFaultTolerance:
    """Injected worker faults are absorbed without changing the math."""

    def _reference_grads(self, batch):
        ref = tiny_model_factory()
        ref.zero_grad()
        loss = ref.loss(batch)
        loss.backward()
        return float(loss.data), {n: p.grad for n, p in ref.named_parameters()}

    def test_gradient_survives_crashes_and_poison(self):
        from repro.parallel import FaultSpec

        train, _ = make_sequential_mnist(24, 8, rng=1, size=8)
        batch = (train.inputs, train.targets)
        ref_loss, ref_grads = self._reference_grads(batch)

        spec = FaultSpec(
            seed=3, crash_rate=0.3, straggle_rate=0.2, nan_rate=0.2,
            straggle_seconds=0.01,
        )
        model = tiny_model_factory()
        with MultiprocessCluster(
            tiny_model_factory, n_workers=3, max_retries=3, backoff=0.0,
            fault_spec=spec,
        ) as cluster:
            losses = [cluster.gradient_step(model, batch) for _ in range(4)]
            faults, retries = cluster.faults_detected, cluster.retries
        assert faults > 0, "rates this high must fire within 12 shard-steps"
        assert retries == faults  # every fault was retried, none exhausted
        for loss in losses:
            assert loss == pytest.approx(ref_loss)
        for name, g in ref_grads.items():
            assert np.allclose(
                g, dict(model.named_parameters())[name].grad, atol=1e-12
            ), name

    def test_timeout_reassigns_hung_worker(self):
        from repro.parallel import FaultSpec

        train, _ = make_sequential_mnist(12, 8, rng=1, size=8)
        batch = (train.inputs, train.targets)
        ref_loss, _ = self._reference_grads(batch)

        # seed 3: shard 0's first attempt hangs well past the timeout while
        # shard 1 stays clean, so a healthy worker is free to absorb the
        # reassigned shard (the retry is clean under first_attempt_only)
        spec = FaultSpec(seed=3, straggle_rate=0.5, straggle_seconds=1.5)
        assert spec.decide(0, 0, 0) == "straggle" and spec.decide(0, 1, 0) is None
        model = tiny_model_factory()
        with MultiprocessCluster(
            tiny_model_factory, n_workers=2, timeout=0.4, max_retries=2,
            backoff=0.0, fault_spec=spec,
        ) as cluster:
            loss = cluster.gradient_step(model, batch)
            assert cluster.faults_detected == 1  # the hung shard timed out
            assert cluster.retries == 1
        assert loss == pytest.approx(ref_loss)

    def test_retry_budget_exhaustion_fails_loudly(self):
        from repro.parallel import FaultSpec, WorkerFaultError

        train, _ = make_sequential_mnist(12, 8, rng=1, size=8)
        batch = (train.inputs, train.targets)

        spec = FaultSpec(seed=0, crash_rate=1.0, first_attempt_only=False)
        model = tiny_model_factory()
        with MultiprocessCluster(
            tiny_model_factory, n_workers=2, max_retries=1, backoff=0.0,
            fault_spec=spec,
        ) as cluster:
            with pytest.raises(WorkerFaultError, match="after 2 attempts"):
                cluster.gradient_step(model, batch)
        # the failed step must not have installed partial gradients
        assert all(p.grad is None for p in model.parameters())

    def test_fault_counters_reach_obs_registry(self):
        from repro.obs.metrics import MetricsRegistry, activated
        from repro.parallel import FaultSpec

        train, _ = make_sequential_mnist(12, 8, rng=1, size=8)
        batch = (train.inputs, train.targets)
        spec = FaultSpec(seed=0, crash_rate=1.0)  # every shard faults once
        model = tiny_model_factory()
        registry = MetricsRegistry()
        with activated(registry):
            with MultiprocessCluster(
                tiny_model_factory, n_workers=2, max_retries=1, backoff=0.0,
                fault_spec=spec,
            ) as cluster:
                cluster.gradient_step(model, batch)
        assert registry.counter("parallel/faults_detected").value == 2.0
        assert registry.counter("parallel/retries").value == 2.0


@pytest.mark.slow
class TestPersistentWorkers:
    """Workers cache their replica and receive only parameter deltas."""

    def test_delta_broadcast_accounting(self):
        train, _ = make_sequential_mnist(8, 8, rng=1, size=8)
        batch = (train.inputs, train.targets)
        model = tiny_model_factory()
        n_params = len(list(model.parameters()))
        with MultiprocessCluster(tiny_model_factory, n_workers=2) as cluster:
            cluster.gradient_step(model, batch)
            # first step ships the full state to both replicas
            assert cluster.broadcast_params == 2 * n_params
            cluster.gradient_step(model, batch)
            # nothing changed between steps: nothing is resent
            assert cluster.broadcast_params == 2 * n_params
            list(model.parameters())[0].data += 0.1
            cluster.gradient_step(model, batch)
            # exactly the one mutated parameter goes out, to each worker
            assert cluster.broadcast_params == 2 * n_params + 2

    def test_allreduce_and_overlap_metrics_fire_on_mp_path(self):
        from repro.obs.metrics import MetricsRegistry, activated

        train, _ = make_sequential_mnist(8, 8, rng=1, size=8)
        batch = (train.inputs, train.targets)
        model = tiny_model_factory()
        registry = MetricsRegistry()
        with activated(registry):
            with MultiprocessCluster(
                tiny_model_factory, n_workers=2, algorithm="tree"
            ) as cluster:
                cluster.gradient_step(model, batch)
        # the real multiprocess path reduces through the documented
        # collectives (the seed summed gradients by hand and these
        # counters never fired)
        assert registry.counter("allreduce/tree/calls").value >= 1
        assert registry.counter("allreduce/tree/bytes").value > 0
        assert registry.counter("parallel/buckets/reduced").value >= 1
        assert 0.0 <= registry.gauge("parallel/overlap/fraction").value <= 1.0
        assert registry.gauge("parallel/overlap/step_s").value > 0
        assert registry.counter("parallel/broadcast/params").value > 0


@pytest.mark.slow
class TestWorkerTelemetry:
    """Workers ship metric deltas and trace dumps on the result channel."""

    def test_per_worker_metrics_and_merged_trace(self):
        from repro.obs import Tracer
        from repro.obs.metrics import MetricsRegistry, activated

        train, _ = make_sequential_mnist(16, 8, rng=1, size=8)
        batch = (train.inputs, train.targets)
        model = tiny_model_factory()
        registry = MetricsRegistry()
        tracer = Tracer()
        with activated(registry):
            with MultiprocessCluster(
                tiny_model_factory, n_workers=2,
                telemetry=True, tracer=tracer,
            ) as cluster:
                for _ in range(3):
                    cluster.gradient_step(model, batch)
        for w in range(2):
            assert registry.counter(f"parallel/w{w}/steps").value == 3.0
            assert np.isfinite(registry.gauge(f"parallel/w{w}/loss").value)
            hist = registry.histogram(f"parallel/w{w}/step_ms")
            assert hist.count == 3
            assert np.isfinite(hist.percentile(50.0))
        # one merged timeline: worker spans re-rooted under w<N>/ with the
        # real worker pids, and each pid labeled in the Chrome export
        paths = {e.path for e in tracer.events}
        assert any(p.startswith("w0/step") for p in paths)
        assert any(p.startswith("w1/step") for p in paths)
        worker_pids = {e.pid for e in tracer.events}
        assert len(worker_pids) == 2 and tracer.pid not in worker_pids
        trace = tracer.to_chrome_trace()
        labels = {
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert labels == {"driver", "worker 0", "worker 1"}

    def test_telemetry_off_ships_nothing(self):
        from repro.obs.metrics import MetricsRegistry, activated

        train, _ = make_sequential_mnist(8, 8, rng=1, size=8)
        batch = (train.inputs, train.targets)
        model = tiny_model_factory()
        registry = MetricsRegistry()
        with activated(registry):
            with MultiprocessCluster(tiny_model_factory, n_workers=2) as cluster:
                cluster.gradient_step(model, batch)
        assert registry.names("parallel/w") == []


# -- one shared step: both backends round, gate and diverge alike -----------


class _Regressor(Module):
    """Least squares through one linear layer, the loss times ``scale``."""

    def __init__(self, scale: float = 1.0):
        super().__init__()
        self.fc = Linear(4, 1, rng=0)
        self.scale = scale

    def loss(self, batch):
        xb, yb = batch
        resid = self.fc(Tensor(xb)) - Tensor(yb.reshape(-1, 1))
        return (resid * resid).mean() * self.scale


def regressor_factory():
    return _Regressor()


def loud_regressor_factory():
    """Shard gradients far above fp16's 65504: an fp16 wire overflows."""
    return _Regressor(scale=1e6)


def _cluster(backend, factory, model, **options):
    if backend == "sim":
        return SimCluster(list(model.parameters()), model.loss, 2, **options)
    return MultiprocessCluster(factory, n_workers=2, backoff=0.0, **options)


def _train(backend, factory, lr, epochs, checkpoint_dir=None, **options):
    """SGD through a 2-worker cluster: ``(result, model, cluster)``."""
    rng = np.random.default_rng(0)
    xs = rng.standard_normal((32, 4))
    batches = BatchIterator(ArrayDataset(xs, xs @ rng.standard_normal(4)), 8, rng=1)
    model = factory()
    cluster = _cluster(backend, factory, model, **options)
    optimizer = SGD(model, lr=lr)
    try:
        if checkpoint_dir is None:
            trainer = Trainer(
                cluster.as_loss_fn(model), optimizer, ConstantLR(lr), batches
            )
        else:
            trainer = ResilientTrainer(
                model, optimizer, ConstantLR(lr), batches,
                checkpoint_dir=checkpoint_dir, loss_fn=cluster.as_loss_fn(model),
            )
        with np.errstate(over="ignore", invalid="ignore"):
            result = trainer.run(epochs)
    finally:
        cluster.close()
    return result, model, cluster


def _logged(result):
    return result.log.steps("loss"), np.asarray(result.log.values("loss"))


@pytest.mark.slow
class TestBackendsAgree:
    """Both clusters run one shared step, so their runs cannot part ways."""

    def test_stochastic_rounding_stream_runs_on_across_steps(self):
        train, _ = make_sequential_mnist(10, 8, rng=1, size=8)
        batch = (train.inputs, train.targets)
        wire = dict(wire_dtype="fp16", stochastic_rounding=True)
        runs = {}
        for backend in ("sim", "mp"):
            model = tiny_model_factory()
            cluster = _cluster(backend, tiny_model_factory, model, **wire)
            steps = []
            try:
                for _ in range(3):
                    if backend == "sim":
                        cluster.gradient_step(batch)
                    else:
                        cluster.gradient_step(model, batch)
                    steps.append([p.grad.copy() for p in model.parameters()])
            finally:
                cluster.close()
            for a, b in ((0, 1), (0, 2), (1, 2)):
                assert not all(
                    np.array_equal(x, y) for x, y in zip(steps[a], steps[b])
                ), (backend, a, b)
            runs[backend] = steps
        for sim_step, mp_step in zip(runs["sim"], runs["mp"]):
            for x, y in zip(sim_step, mp_step):
                assert np.array_equal(x, y)

    @pytest.mark.parametrize("backend", ["sim", "mp"])
    def test_overflowed_wire_is_never_installed(self, backend):
        result, model, cluster = _train(
            backend, loud_regressor_factory, 0.1, 1, wire_dtype="fp16"
        )
        assert result.diverged
        steps, losses = _logged(result)
        assert steps == [0] and np.isnan(losses[0])
        initial = loud_regressor_factory()
        for p, p0 in zip(model.parameters(), initial.parameters()):
            assert np.array_equal(p.data, p0.data)
            assert p.grad is None
        assert cluster.faults_detected == 1

    def test_overflowed_wire_rolls_back_alike(self, tmp_path):
        runs = {
            backend: _train(
                backend, loud_regressor_factory, 0.1, 1,
                checkpoint_dir=tmp_path / backend, wire_dtype="fp16",
            )[0]
            for backend in ("sim", "mp")
        }
        sim, mp = runs["sim"], runs["mp"]
        assert sim.diverged and mp.diverged
        assert sim.final_metrics["recoveries"] == 2.0
        assert mp.final_metrics["recoveries"] == sim.final_metrics["recoveries"]
        (sim_steps, sim_losses), (mp_steps, mp_losses) = _logged(sim), _logged(mp)
        assert mp_steps == sim_steps
        np.testing.assert_array_equal(mp_losses, sim_losses)

    def test_divergence_is_the_model_not_a_worker_fault(self):
        runs = {
            backend: _train(backend, regressor_factory, 1e6, 10)
            for backend in ("sim", "mp")
        }
        (sim, _, _), (mp, _, cluster) = runs["sim"], runs["mp"]
        assert sim.diverged and mp.diverged
        (sim_steps, sim_losses), (mp_steps, mp_losses) = _logged(sim), _logged(mp)
        assert np.isinf(sim_losses[-1])  # the observed value, not NaN
        assert mp_steps == sim_steps
        np.testing.assert_array_equal(mp_losses, sim_losses)
        assert cluster.retries == 0
