"""Gradient bucket planner, bucketed reduction, and the overlap timeline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs.metrics import MetricsRegistry, activated
from repro.parallel.allreduce import allreduce_mean
from repro.parallel.buckets import BACKWARD_FRACTION, GradientBuckets
from repro.parallel.cost import CommModel, allreduce_time


def _specs(*shapes, dtype="float64"):
    return [(s, dtype) for s in shapes]


class TestPlanner:
    def test_reverse_registration_order(self):
        # 3 params of 100 float64 elements; cap fits one param per bucket
        plan = GradientBuckets(_specs((100,), (100,), (100,)), bucket_mb=100 * 8 / 2**20)
        assert plan.num_buckets == 3
        # bucket 0 holds the LAST-registered parameter (backward finds it first)
        assert [b.slots[0].param for b in plan.buckets] == [2, 1, 0]

    def test_packs_up_to_cap(self):
        # cap of 250 elements: params of 100 pack 2 per bucket
        plan = GradientBuckets(
            _specs((100,), (100,), (100,), (100,)), bucket_mb=250 * 8 / 2**20
        )
        assert plan.num_buckets == 2
        assert all(b.size == 200 for b in plan.buckets)

    def test_oversized_param_gets_own_bucket(self):
        plan = GradientBuckets(_specs((10,), (1000,), (10,)), bucket_mb=100 * 8 / 2**20)
        sizes = [b.size for b in plan.buckets]
        assert 1000 in sizes
        assert plan.num_buckets == 3  # 10 | 1000 | 10 (order reversed)

    def test_dtype_never_mixes(self):
        params = [((50,), "float32"), ((50,), "float64"), ((50,), "float32")]
        plan = GradientBuckets(params, bucket_mb=1.0)
        assert plan.num_buckets == 3
        dtypes = [b.dtype for b in plan.buckets]
        assert dtypes == [np.dtype("float32"), np.dtype("float64"), np.dtype("float32")]

    def test_accepts_tensors_arrays_and_specs(self):
        from repro.tensor import Tensor

        plan = GradientBuckets(
            [Tensor(np.zeros((3, 4))), np.zeros(5, dtype=np.float32), ((2, 2), "float64")]
        )
        assert plan.total_elems == 12 + 5 + 4

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            GradientBuckets([], bucket_mb=1.0)
        with pytest.raises(ValueError):
            GradientBuckets(_specs((10,)), bucket_mb=0)

    def test_memory_bounds(self):
        plan = GradientBuckets(_specs((100,), (100,), (100,)), bucket_mb=100 * 8 / 2**20)
        p = 4
        assert plan.reduce_peak_bytes(p) == (p + 1) * 100 * 8
        assert plan.monolithic_peak_bytes(p) == (p + 1) * 300 * 8
        assert plan.reduce_peak_bytes(p) < plan.monolithic_peak_bytes(p)

    def test_transient_memory_shrinks_by_the_bucket_share(self):
        """On an MNIST-LSTM gradient in several buckets, the bucketed
        reduction's transient bytes undercut the monolithic ones by at
        least the largest bucket's share of the model."""
        from repro.models import MnistLSTMClassifier

        model = MnistLSTMClassifier(rng=1, input_dim=14, transform_dim=32, hidden=32)
        plan = GradientBuckets(list(model.parameters()), bucket_mb=0.02)
        assert plan.num_buckets > 1
        ratio = plan.reduce_peak_bytes(4) / plan.monolithic_peak_bytes(4)
        assert ratio <= plan.max_bucket_bytes / plan.total_bytes + 1e-9


class TestPackUnpack:
    def test_roundtrip(self, rng=np.random.default_rng(0)):
        shapes = [(3, 4), (7,), (2, 2, 2)]
        plan = GradientBuckets(_specs(*shapes), bucket_mb=1.0)
        grads = [rng.standard_normal(s) for s in shapes]
        packed = plan.pack(grads)
        out = plan.unpack(packed)
        for g, o in zip(grads, out):
            assert o.shape == g.shape
            np.testing.assert_array_equal(o, g)

    def test_single_slot_bucket_is_view(self):
        plan = GradientBuckets(_specs((100,)), bucket_mb=1.0)
        g = np.arange(100, dtype=np.float64)
        (buf,) = plan.pack([g])
        assert buf.base is g  # zero-copy

    def test_pack_length_mismatch(self):
        plan = GradientBuckets(_specs((10,), (10,)))
        with pytest.raises(ValueError):
            plan.pack([np.zeros(10)])


class TestReducePacked:
    @pytest.mark.parametrize("algorithm", ["ring", "tree", "naive"])
    def test_matches_monolithic_allreduce(self, algorithm):
        rng = np.random.default_rng(1)
        shapes = [(6, 5), (11,), (4, 4)]
        plan = GradientBuckets(_specs(*shapes), bucket_mb=20 * 8 / 2**20)
        assert plan.num_buckets > 1
        p = 4
        worker_grads = [[rng.standard_normal(s) for s in shapes] for _ in range(p)]
        flats = [
            np.concatenate([g.reshape(-1) for g in grads])
            for grads in worker_grads
        ]
        expected = allreduce_mean(flats, algorithm=algorithm)[0]
        reduced = plan.reduce_packed(
            [plan.pack(g) for g in worker_grads], algorithm=algorithm
        )
        got = np.concatenate([g.reshape(-1) for g in reduced])
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_preserves_float32(self):
        rng = np.random.default_rng(2)
        plan = GradientBuckets([((8,), "float32"), ((8,), "float32")])
        worker = [
            plan.pack([rng.standard_normal(8).astype(np.float32) for _ in range(2)])
            for _ in range(3)
        ]
        reduced = plan.reduce_packed(worker)
        assert all(g.dtype == np.float32 for g in reduced)

    def test_frees_consumed_buffers_and_counts(self):
        plan = GradientBuckets(_specs((10,), (10,)), bucket_mb=10 * 8 / 2**20)
        worker = [plan.pack([np.ones(10), np.ones(10)]) for _ in range(2)]
        with activated(MetricsRegistry()) as reg:
            plan.reduce_packed(worker)
        assert all(all(b is None for b in wb) for wb in worker)
        assert reg.counter("parallel/buckets/reduced").value == plan.num_buckets
        assert reg.counter("parallel/buckets/bytes").value == plan.total_bytes
        # the underlying collectives were really used
        assert reg.counter("allreduce/ring/calls").value == plan.num_buckets


class TestOverlapTimeline:
    def _plan(self, n=8, size=1000):
        return GradientBuckets(_specs(*([(size,)] * n)), bucket_mb=size * 8 / 2**20)

    def test_single_bucket_exposes_everything(self):
        plan = GradientBuckets(_specs((1000,)), bucket_mb=1.0)
        tl = plan.simulate_overlap(4, backward_time=1.0)
        assert tl.overlap_fraction == 0.0
        assert tl.exposed_comm == pytest.approx(tl.total_comm)
        assert tl.step_time == pytest.approx(tl.monolithic_step_time)

    def test_many_buckets_hide_comm(self):
        tl = self._plan().simulate_overlap(4, backward_time=10.0)
        assert tl.overlap_fraction > 0.5
        assert tl.hidden_comm == pytest.approx(tl.total_comm - tl.exposed_comm)
        assert tl.step_time < tl.monolithic_step_time

    def test_never_slower_than_monolithic(self):
        comm = CommModel(alpha=1e-3)  # latency-heavy: buckets pay extra alpha
        for backward in (0.0, 0.01, 10.0):
            tl = self._plan().simulate_overlap(8, backward, comm=comm)
            # exposure can exceed the monolithic exposure in pathological
            # latency regimes, but never by more than the serialised alphas
            assert tl.step_time <= max(
                tl.monolithic_step_time,
                backward + tl.total_comm,
            ) + 1e-12

    def test_in_flight_serialisation(self):
        # with zero backward time, buckets reduce strictly back-to-back
        plan = self._plan(n=4)
        tl = plan.simulate_overlap(4, backward_time=0.0)
        comm = CommModel()
        per_bucket = allreduce_time(plan.buckets[0].nbytes, 4, comm)
        assert tl.step_time == pytest.approx(4 * per_bucket)
        for a, b in zip(tl.buckets, tl.buckets[1:]):
            assert b.start == pytest.approx(a.end)

    def test_single_worker_has_no_comm(self):
        tl = self._plan().simulate_overlap(1, backward_time=1.0)
        assert tl.total_comm == 0.0
        assert tl.overlap_fraction == 1.0
        assert tl.step_time == pytest.approx(1.0)

    def test_ready_times_follow_backward_fraction_of_elements(self):
        plan = self._plan(n=4)
        tl = plan.simulate_overlap(4, backward_time=8.0)
        # equal-size buckets: ready at 2, 4, 6, 8 seconds
        assert [t.ready for t in tl.buckets] == pytest.approx([2.0, 4.0, 6.0, 8.0])

    def test_invalid_args(self):
        plan = self._plan()
        with pytest.raises(ValueError):
            plan.simulate_overlap(0, 1.0)
        with pytest.raises(ValueError):
            plan.simulate_overlap(2, -1.0)

    def test_record_sets_gauges(self):
        tl = self._plan().simulate_overlap(4, backward_time=10.0)
        reg = MetricsRegistry()
        tl.record(reg)
        assert reg.gauge("parallel/overlap/fraction").value == pytest.approx(
            tl.overlap_fraction
        )
        assert reg.gauge("parallel/overlap/step_s").value == pytest.approx(
            tl.step_time
        )
        assert reg.gauge("parallel/overlap/monolithic_step_s").value == pytest.approx(
            tl.monolithic_step_time
        )

    def test_modeled_65m_gradient_hides_most_comm(self):
        """A GNMT-sized fp32 gradient (~65M parameters) on a 16-worker ring:
        every swept bucket size is no slower than the monolithic step, and
        the best one hides at least 3/4 of the communication."""
        params = [((260_000,), "float32")] * 250
        best = 0.0
        for mb in (0.5, 2.0, 8.0):
            tl = GradientBuckets(params, bucket_mb=mb).simulate_overlap(
                16, 0.5, comm=CommModel()
            )
            assert tl.step_time <= tl.monolithic_step_time + 1e-12
            best = max(best, tl.overlap_fraction)
        assert best >= 0.75

    def test_backward_fraction_constant(self):
        assert 0.0 < BACKWARD_FRACTION < 1.0
