"""Gradient parity: every distributed path reproduces the full-batch gradient.

The theorem all the paper's single-process simulations rest on: for a
mean-reduction loss, the shard-size-weighted average of per-shard
gradients equals the single-process gradient of the full batch.  These
tests pin it for every cluster (simulated bucketed, simulated monolithic,
real multiprocess) x every all-reduce algorithm, on deliberately uneven
shards — and pin the dtype contract (``param.grad.dtype ==
param.data.dtype``, float32 in => float32 out) along the way.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import BatchIterator, make_sequential_mnist
from repro.models import MnistLSTMClassifier
from repro.optim import SGD
from repro.parallel import MultiprocessCluster, SimCluster
from repro.parallel.allreduce import (
    ALGORITHMS,
    allreduce_mean,
    allreduce_mean_single,
    naive_allreduce,
    ring_allreduce,
    tree_allreduce,
)
from repro.schedules import ConstantLR
from repro.train import Trainer


def _problem(n=17, seed=0):
    """n=17 across 2/3/5 workers gives uneven shards on purpose."""
    train, _ = make_sequential_mnist(n, 4, rng=seed, size=8)
    model = MnistLSTMClassifier(rng=seed + 1, input_dim=8, transform_dim=8, hidden=8)
    return (train.inputs, train.targets), model


def _full_batch_grads(model, batch):
    model.zero_grad()
    model.loss(batch).backward()
    return [p.grad.copy() for p in model.parameters()]


class TestSimClusterParity:
    @pytest.mark.parametrize("workers", [2, 3, 5])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_bucketed_matches_full_batch(self, workers, algorithm):
        batch, model = _problem()
        full = _full_batch_grads(model, batch)
        cluster = SimCluster(
            model.parameters(), model.loss, workers,
            algorithm=algorithm, bucket_mb=0.001,  # force many buckets
        )
        assert cluster.buckets.num_buckets > 1
        _, grads = cluster.gradient_step(batch)
        for p, g, f in zip(model.parameters(), grads, full):
            np.testing.assert_allclose(g, f, atol=1e-10)
            assert p.grad.dtype == p.data.dtype
            assert p.grad.shape == p.data.shape

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_monolithic_matches_full_batch(self, algorithm):
        batch, model = _problem()
        full = _full_batch_grads(model, batch)
        cluster = SimCluster(
            model.parameters(), model.loss, 3,
            algorithm=algorithm, bucket_mb=None,
        )
        _, grads = cluster.gradient_step(batch)
        for p, g, f in zip(model.parameters(), grads, full):
            np.testing.assert_allclose(g, f, atol=1e-10)
            assert p.grad.dtype == p.data.dtype

    def test_bucketed_equals_monolithic_exactly(self):
        batch, model = _problem()
        mono = SimCluster(model.parameters(), model.loss, 3, bucket_mb=None)
        _, g_mono = mono.gradient_step(batch)
        g_mono = [g.copy() for g in g_mono]
        buck = SimCluster(model.parameters(), model.loss, 3, bucket_mb=0.001)
        _, g_buck = buck.gradient_step(batch)
        for a, b in zip(g_mono, g_buck):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_remainder_batch_smaller_than_cluster(self):
        """batch of 2 over 3 workers: min(p, n) shards, exact gradient."""
        batch, model = _problem(n=2)
        full = _full_batch_grads(model, batch)
        cluster = SimCluster(model.parameters(), model.loss, 3)
        _, grads = cluster.gradient_step(batch)
        for g, f in zip(grads, full):
            np.testing.assert_allclose(g, f, atol=1e-10)

    def test_loss_fn_needs_the_model_that_owns_the_parameters(self):
        batch, model = _problem()
        cluster = SimCluster(model.parameters(), model.loss, 2)
        _, other = _problem()
        with pytest.raises(ValueError, match="does not own"):
            cluster.as_loss_fn(other)
        assert cluster.as_loss_fn(model)(batch).data == cluster.gradient_step(batch)[0]

    def test_drop_last_false_epoch_completes(self):
        """An epoch whose tail batch is smaller than the worker count
        trains to completion through the Trainer (the regression this PR
        fixes: it used to raise in shard_batch)."""
        train, test = make_sequential_mnist(13, 4, rng=0, size=8)
        model = MnistLSTMClassifier(rng=1, input_dim=8, transform_dim=8, hidden=8)
        # batch 4 over 13 examples: final batch has 1 example < 3 workers
        batches = BatchIterator(train, 4, rng=2, drop_last=False)
        cluster = SimCluster(model.parameters(), model.loss, 3)
        trainer = Trainer(
            cluster.as_loss_fn(model),
            SGD(model, lr=0.05),
            ConstantLR(0.05),
            batches,
            eval_fn=lambda: model.evaluate(test),
        )
        result = trainer.run(2)
        assert not result.diverged
        assert result.epochs_completed == 2
        # the 1-example remainder batch really ran (4 steps/epoch, not 3)
        assert batches.steps_per_epoch == 4


@pytest.mark.slow
class TestMultiprocessParity:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_matches_full_batch(self, algorithm):
        import functools

        batch, model = _problem()
        full = _full_batch_grads(model, batch)
        # the factory's own rng is irrelevant: replica params are
        # overwritten by the parent's delta broadcast
        with MultiprocessCluster(
            functools.partial(
                MnistLSTMClassifier, rng=99, input_dim=8, transform_dim=8,
                hidden=8,
            ),
            3,
            algorithm=algorithm,
            timeout=60.0,
        ) as cluster:
            cluster.gradient_step(model, batch)
        for p, f in zip(model.parameters(), full):
            np.testing.assert_allclose(p.grad, f, atol=1e-10)
            assert p.grad.dtype == p.data.dtype

    def test_remainder_batch_smaller_than_cluster(self):
        import functools

        batch, model = _problem(n=2)
        full = _full_batch_grads(model, batch)
        with MultiprocessCluster(
            functools.partial(
                MnistLSTMClassifier, rng=99, input_dim=8, transform_dim=8,
                hidden=8,
            ),
            3,
            timeout=60.0,
        ) as cluster:
            cluster.gradient_step(model, batch)
        for p, f in zip(model.parameters(), full):
            np.testing.assert_allclose(p.grad, f, atol=1e-10)


class TestDtypeContract:
    """float32 buffers stay float32 through every algorithm (the bugfix:
    collectives used to upcast results to float64)."""

    @pytest.mark.parametrize(
        "collective", [ring_allreduce, tree_allreduce, naive_allreduce]
    )
    def test_collectives_preserve_float32(self, collective):
        rng = np.random.default_rng(0)
        buffers = [
            rng.standard_normal(16).astype(np.float32) for _ in range(4)
        ]
        out = collective(buffers)
        assert all(o.dtype == np.float32 for o in out)
        np.testing.assert_allclose(
            out[0], np.sum(buffers, axis=0), atol=1e-5
        )

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_mean_entry_points_preserve_float32(self, algorithm):
        rng = np.random.default_rng(1)
        buffers = [
            rng.standard_normal(10).astype(np.float32) for _ in range(3)
        ]
        out = allreduce_mean(buffers, algorithm=algorithm)
        single = allreduce_mean_single(buffers, algorithm=algorithm)
        assert all(o.dtype == np.float32 for o in out)
        assert single.dtype == np.float32
        # single-result path is bit-identical to replica 0
        np.testing.assert_array_equal(single, out[0])

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_float64_unchanged(self, algorithm):
        rng = np.random.default_rng(2)
        buffers = [rng.standard_normal(12) for _ in range(4)]
        out = allreduce_mean(buffers, algorithm=algorithm)
        assert all(o.dtype == np.float64 for o in out)

    def test_mixed_dtypes_promote(self):
        buffers = [
            np.ones(4, dtype=np.float32),
            np.ones(4, dtype=np.float64),
        ]
        out = ring_allreduce(buffers)
        assert all(o.dtype == np.float64 for o in out)
