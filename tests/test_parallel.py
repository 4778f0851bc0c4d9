"""Data-parallel substrate: collectives, cost models, cluster equivalence."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data import make_sequential_mnist
from repro.models import MnistLSTMClassifier
from repro.optim import SGD
from repro.parallel import (
    APP_DEVICE_MODELS,
    CommModel,
    DeviceModel,
    SimCluster,
    allreduce_mean,
    epoch_time,
    naive_allreduce,
    naive_time,
    ring_allreduce,
    ring_time,
    shard_batch,
    speedup,
    tree_allreduce,
    tree_time,
)

ALGOS = [ring_allreduce, tree_allreduce, naive_allreduce]


class TestAllReduceExactness:
    @pytest.mark.parametrize("fn", ALGOS)
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 8, 13])
    def test_equals_sum(self, rng, fn, p):
        bufs = [rng.standard_normal(37) for _ in range(p)]
        expect = np.sum(bufs, axis=0)
        out = fn(bufs)
        assert len(out) == p
        for o in out:
            assert np.allclose(o, expect)

    @pytest.mark.parametrize("fn", ALGOS)
    def test_all_workers_identical(self, rng, fn):
        bufs = [rng.standard_normal(16) for _ in range(4)]
        out = fn(bufs)
        for o in out[1:]:
            assert np.array_equal(o, out[0])

    @pytest.mark.parametrize("fn", ALGOS)
    def test_inputs_not_mutated(self, rng, fn):
        bufs = [rng.standard_normal(8) for _ in range(3)]
        copies = [b.copy() for b in bufs]
        fn(bufs)
        for b, c in zip(bufs, copies):
            assert np.array_equal(b, c)

    def test_buffer_smaller_than_workers(self, rng):
        """Ring with n < p chunks (some empty splits) still exact."""
        bufs = [rng.standard_normal(2) for _ in range(5)]
        out = ring_allreduce(bufs)
        assert np.allclose(out[0], np.sum(bufs, axis=0))

    def test_mean_variant(self, rng):
        bufs = [rng.standard_normal(10) for _ in range(4)]
        out = allreduce_mean(bufs, algorithm="tree")
        assert np.allclose(out[0], np.mean(bufs, axis=0))

    def test_unknown_algorithm_raises(self, rng):
        with pytest.raises(ValueError):
            allreduce_mean([np.zeros(2)], algorithm="gossip")

    def test_shape_validation(self, rng):
        with pytest.raises(ValueError):
            ring_allreduce([np.zeros(3), np.zeros(4)])
        with pytest.raises(ValueError):
            ring_allreduce([])

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 9), st.integers(1, 40), st.integers(0, 2**31 - 1))
    def test_property_all_algorithms_agree(self, p, n, seed):
        rng = np.random.default_rng(seed)
        bufs = [rng.standard_normal(n) for _ in range(p)]
        ring = ring_allreduce(bufs)[0]
        tree = tree_allreduce(bufs)[0]
        naive = naive_allreduce(bufs)[0]
        assert np.allclose(ring, naive) and np.allclose(tree, naive)


class TestCostModel:
    def test_single_worker_free(self):
        m = CommModel()
        assert ring_time(1e9, 1, m) == tree_time(1e9, 1, m) == naive_time(1e9, 1, m) == 0.0

    def test_ring_bandwidth_optimal_for_large_buffers(self):
        m = CommModel(alpha=1e-6, beta=1e-9)
        n, p = 1e9, 32
        assert ring_time(n, p, m) < tree_time(n, p, m)
        assert ring_time(n, p, m) < naive_time(n, p, m)

    def test_tree_latency_optimal_for_tiny_buffers(self):
        m = CommModel(alpha=1e-3, beta=1e-9)
        n, p = 8, 64
        assert tree_time(n, p, m) < ring_time(n, p, m)

    def test_ring_bandwidth_term_bounded(self):
        """Ring's bandwidth term approaches 2n·beta from below as p grows."""
        m = CommModel(alpha=0.0, beta=1.0)
        n = 1000.0
        times = [ring_time(n, p, m) for p in (2, 8, 64, 1024)]
        assert all(a < b for a, b in zip(times, times[1:]))
        assert times[-1] < 2 * n

    def test_naive_linear_in_p(self):
        m = CommModel()
        assert naive_time(100, 9, m) == pytest.approx(2 * naive_time(100, 5, m))

    def test_invalid_args(self):
        m = CommModel()
        with pytest.raises(ValueError):
            ring_time(-1, 2, m)
        with pytest.raises(ValueError):
            tree_time(10, 0, m)


class TestShardBatch:
    def test_splits_cover_batch(self, rng):
        x = rng.standard_normal((10, 3))
        y = rng.integers(0, 2, 10)
        shards = shard_batch([x, y], 3)
        assert len(shards) == 3
        rebuilt = np.concatenate([s[0] for s in shards])
        assert np.allclose(rebuilt, x)

    def test_small_batch_uses_fewer_workers(self, rng):
        """A remainder batch smaller than the worker count activates only
        min(p, n) shards instead of raising (the drop_last=False fix)."""
        x = rng.standard_normal((2, 3))
        shards = shard_batch([x], 3)
        assert len(shards) == 2
        assert all(len(s[0]) == 1 for s in shards)
        assert np.allclose(np.concatenate([s[0] for s in shards]), x)

    def test_rejects_zero_workers(self, rng):
        with pytest.raises(ValueError):
            shard_batch([np.zeros((2, 1))], 0)

    def test_rejects_empty_batch(self, rng):
        with pytest.raises(ValueError):
            shard_batch([np.zeros((0, 1))], 2)


class TestSimCluster:
    def make_problem(self, n=18):
        train, _ = make_sequential_mnist(n, 4, rng=1, size=8)
        model = MnistLSTMClassifier(rng=2, input_dim=8, transform_dim=8, hidden=8)
        return train, model

    @pytest.mark.parametrize("p", [1, 2, 3, 6])
    @pytest.mark.parametrize("algorithm", ["ring", "tree", "naive"])
    def test_gradient_matches_full_batch(self, p, algorithm):
        train, model = self.make_problem()
        batch = (train.inputs, train.targets)
        model.zero_grad()
        loss = model.loss(batch)
        loss.backward()
        full = [q.grad.copy() for q in model.parameters()]
        cluster = SimCluster(
            model.parameters(), model.loss, n_workers=p, algorithm=algorithm
        )
        mean_loss, grads = cluster.gradient_step(batch)
        assert mean_loss == pytest.approx(float(loss.data))
        for f, g in zip(full, grads):
            assert np.allclose(f, g, atol=1e-10)

    def test_uneven_shards_still_exact(self):
        train, model = self.make_problem(n=17)  # 17 across 4 workers
        batch = (train.inputs, train.targets)
        model.zero_grad()
        model.loss(batch).backward()
        full = [q.grad.copy() for q in model.parameters()]
        cluster = SimCluster(model.parameters(), model.loss, n_workers=4)
        _, grads = cluster.gradient_step(batch)
        for f, g in zip(full, grads):
            assert np.allclose(f, g, atol=1e-10)

    def test_composes_with_optimizer(self):
        """A cluster step + SGD equals single-process large-batch SGD."""
        train, model = self.make_problem()
        batch = (train.inputs, train.targets)
        state = model.state_dict()
        # single-process reference
        model.zero_grad()
        model.loss(batch).backward()
        SGD(model, lr=0.1).step()
        reference = model.state_dict()
        # cluster path from the same start
        model.load_state_dict(state)
        cluster = SimCluster(model.parameters(), model.loss, n_workers=3)
        cluster.gradient_step(batch)
        SGD(model, lr=0.1).step()
        for name, arr in model.state_dict().items():
            assert np.allclose(arr, reference[name], atol=1e-10)

    def test_invalid_worker_count(self):
        train, model = self.make_problem()
        with pytest.raises(ValueError):
            SimCluster(model.parameters(), model.loss, n_workers=0)


class TestPerfModel:
    def test_iteration_time_affine(self):
        m = DeviceModel(t_fixed=10.0, t_sample=2.0)
        assert m.iteration_time(5) == 20.0

    def test_speedup_matches_paper_gnmt_endpoints(self):
        """2h+ at 256 vs 33min at 4096 => ~3.6x (the calibration target)."""
        s = speedup(APP_DEVICE_MODELS["gnmt"], 256, 4096)
        assert s == pytest.approx(120 / 33, rel=0.05)

    def test_average_speedup_near_paper(self):
        ladder = {
            "mnist": (128, 8192),
            "ptb_small": (20, 640),
            "ptb_large": (20, 640),
            "gnmt": (256, 4096),
        }
        sps = [speedup(APP_DEVICE_MODELS[a], b0, b1) for a, (b0, b1) in ladder.items()]
        assert np.mean(sps) == pytest.approx(5.3, abs=0.3)

    def test_epoch_time_decreases_with_batch(self):
        m = DeviceModel(t_fixed=100.0, t_sample=1.0)
        times = [epoch_time(m, 10_000, b) for b in (32, 256, 2048)]
        assert times[0] > times[1] > times[2]

    def test_epoch_time_with_workers_adds_comm(self):
        m = DeviceModel(t_fixed=100.0, t_sample=1.0)
        solo = epoch_time(m, 10_000, 1024, n_workers=1)
        multi = epoch_time(
            m, 10_000, 1024, n_workers=8, grad_bytes=1e9, comm=CommModel()
        )
        # 8 workers: 128 samples/step each (faster compute), plus comm
        assert multi != solo

    def test_validation(self):
        m = DeviceModel(t_fixed=1.0, t_sample=1.0)
        with pytest.raises(ValueError):
            m.iteration_time(0)
        with pytest.raises(ValueError):
            epoch_time(m, 0, 10)
        with pytest.raises(ValueError):
            epoch_time(m, 10, 10, n_workers=0)
