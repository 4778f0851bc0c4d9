"""The serving stack: batcher policy, engine heads, server semantics.

Covers the acceptance criteria of the serving subsystem: deterministic
admission-control shedding, checkpoint hot-swap that drops nothing and
serves bit-identical post-swap results, inference running entirely
outside the autodiff graph, and the ``serve/*`` observability wiring.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.models import GNMT, MnistLSTMClassifier, PTBLanguageModel
from repro.data.vocab import Vocab
from repro.obs import MetricsRegistry, Obs, OpProfiler, activated
from repro.serve import (
    SHED,
    DynamicBatcher,
    InferenceEngine,
    Request,
    Server,
)
from repro.utils.checkpoint import CheckpointManager


def make_model(rng=3):
    return MnistLSTMClassifier(rng=rng, input_dim=8, transform_dim=8, hidden=8)


def make_image(seed=0):
    return np.random.default_rng(seed).standard_normal((8, 8))


class TestDynamicBatcher:
    def test_validation(self):
        with pytest.raises(ValueError):
            DynamicBatcher(max_batch_size=0)
        with pytest.raises(ValueError):
            DynamicBatcher(max_wait_ms=-1)
        with pytest.raises(ValueError):
            DynamicBatcher(max_queue_depth=0)
        with pytest.raises(ValueError):
            DynamicBatcher(bucket_width=0)

    def test_offer_bounded(self):
        b = DynamicBatcher(max_queue_depth=2)
        assert b.offer(Request(payload=1))
        assert b.offer(Request(payload=2))
        assert not b.offer(Request(payload=3))  # full: refused, not raised
        assert b.depth() == 2

    def test_batch_respects_max_size(self):
        b = DynamicBatcher(max_batch_size=3, max_wait_ms=0)
        for i in range(5):
            b.offer(Request(payload=i))
        first = b.next_batch()
        second = b.next_batch()
        assert [r.payload for r in first] == [0, 1, 2]
        assert [r.payload for r in second] == [3, 4]

    def test_timeout_returns_none(self):
        b = DynamicBatcher()
        assert b.next_batch(timeout=0.01) is None

    def test_length_buckets_never_mix(self):
        b = DynamicBatcher(max_batch_size=8, max_wait_ms=0, bucket_width=4)
        lengths = [3, 10, 4, 9, 2]
        for i, n in enumerate(lengths):
            b.offer(Request(payload=i, seq_len=n))
        first = b.next_batch()  # head has len 3 -> bucket ceil(3/4)=1
        assert sorted(r.seq_len for r in first) == [2, 3, 4]
        second = b.next_batch()  # remaining bucket ceil(10/4)=3
        assert sorted(r.seq_len for r in second) == [9, 10]

    def test_head_request_always_ships(self):
        # the oldest request defines the bucket, so it cannot starve
        b = DynamicBatcher(max_batch_size=2, max_wait_ms=0, bucket_width=2)
        b.offer(Request(payload="old", seq_len=7))
        for i in range(4):
            b.offer(Request(payload=i, seq_len=2))
        batch = b.next_batch()
        assert batch[0].payload == "old"

    def test_drain(self):
        b = DynamicBatcher()
        for i in range(3):
            b.offer(Request(payload=i))
        assert [r.payload for r in b.drain()] == [0, 1, 2]
        assert b.depth() == 0


class TestInferenceEngine:
    def test_unknown_task_raises(self):
        with pytest.raises(ValueError):
            InferenceEngine(make_model(), "resnet")

    def test_engine_puts_model_in_eval(self):
        model = make_model()
        assert model.training
        InferenceEngine(model, "mnist")
        assert all(not m.training for m in model.modules())

    def test_classify_matches_direct_forward(self):
        model = make_model()
        engine = InferenceEngine(model, "mnist")
        xs = [make_image(i) for i in range(4)]
        from repro.tensor import fused_kernels, no_grad

        # both forwards on the reference path, whatever REPRO_FUSED says
        with fused_kernels(False):
            results = engine.predict(xs)
            with no_grad():
                direct = model(np.stack(xs)).data
        for i, res in enumerate(results):
            assert res["label"] == int(direct[i].argmax())
            assert np.array_equal(res["logits"], direct[i])

    def test_fused_forward_parity(self):
        # the fused full-sequence LSTM batches the input projection, so
        # serving with fused kernels on agrees with the reference engine
        # to float64 round-off (docs/fused_kernels.md)
        from repro.tensor import fused_kernels

        xs = [make_image(i) for i in range(3)]
        with fused_kernels(False):
            ref = InferenceEngine(make_model(), "mnist").predict(xs)
        with fused_kernels(True):
            fus = InferenceEngine(make_model(), "mnist").predict(xs)
        for a, b in zip(ref, fus):
            assert a["label"] == b["label"]
            np.testing.assert_allclose(
                a["logits"], b["logits"], rtol=1e-12, atol=1e-12
            )

    @pytest.mark.parametrize("switch", [False, True])
    def test_forwards_follow_the_fused_switch(self, switch):
        """A library-built engine runs the path the process-wide switch
        selects: under ``use_fused(False)`` it builds no ``fused_*`` op."""
        from repro.obs import OpProfiler
        from repro.tensor import fused_kernels

        engine = InferenceEngine(make_model(), "mnist")
        profiler = OpProfiler()
        with fused_kernels(switch), profiler.attached_to_engine():
            engine.predict([make_image(i) for i in range(2)])
        assert any(op.startswith("fused_") for op in profiler.forward) == switch

    def test_ptb_score(self):
        lm = PTBLanguageModel(vocab_size=13, rng=5, embed_dim=8, hidden=8)
        engine = InferenceEngine(lm, "ptb")
        rng = np.random.default_rng(0)
        results = engine.predict([rng.integers(0, 13, size=6) for _ in range(3)])
        for res in results:
            assert 0 <= res["next_token"] < 13
            assert res["logp"].shape == (13,)
            # log-probabilities: normalised and negative
            assert np.isclose(np.exp(res["logp"]).sum(), 1.0)

    def test_gnmt_translate_variable_lengths(self):
        vocab = Vocab(12)
        model = GNMT(vocab, rng=7, embed_dim=8, hidden=8)
        engine = InferenceEngine(model, "gnmt", beam_size=2)
        rng = np.random.default_rng(0)
        payloads = [rng.integers(4, 12, size=n) for n in (3, 6, 4)]
        results = engine.predict(payloads, [len(p) for p in payloads])
        assert len(results) == 3
        for res in results:
            assert all(vocab.is_content(t) for t in res["tokens"])

    def test_predict_empty(self):
        assert InferenceEngine(make_model(), "mnist").predict([]) == []

    def test_from_checkpoint_version(self, tmp_path):
        model = make_model()
        mgr = CheckpointManager(tmp_path)
        path = mgr.save(model, iteration=17, step=42)
        engine = InferenceEngine.from_checkpoint(path, make_model(), "mnist")
        assert engine.version == 42
        assert np.array_equal(
            engine.model.state_dict()["transform.weight"],
            model.state_dict()["transform.weight"],
        )

    def test_from_manager_empty_raises(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        with pytest.raises(FileNotFoundError):
            InferenceEngine.from_manager(mgr, make_model(), "mnist")


class TestNoGraphInference:
    """Satellite: serving paths build zero autodiff graph nodes."""

    def _graph_nodes(self, fn) -> int:
        profiler = OpProfiler()
        with profiler.attached_to_engine():
            fn()
        return profiler.graph_nodes

    def test_classify_builds_no_graph(self):
        engine = InferenceEngine(make_model(), "mnist")
        xs = [make_image(i) for i in range(2)]
        assert self._graph_nodes(lambda: engine.predict(xs)) == 0

    def test_ptb_score_builds_no_graph(self):
        lm = PTBLanguageModel(vocab_size=11, rng=5, embed_dim=8, hidden=8)
        engine = InferenceEngine(lm, "ptb")
        tokens = [np.arange(5) % 11, (np.arange(5) + 3) % 11]
        assert self._graph_nodes(lambda: engine.predict(tokens)) == 0

    def test_beam_decode_builds_no_graph(self):
        from repro.models.beam import beam_decode

        vocab = Vocab(12)
        model = GNMT(vocab, rng=7, embed_dim=8, hidden=8)
        model.eval()
        src = np.random.default_rng(0).integers(4, 12, size=(2, 5))
        nodes = self._graph_nodes(
            lambda: beam_decode(model, src, np.array([5, 3]), 8, beam_size=2)
        )
        assert nodes == 0

    def test_training_forward_does_build_graph(self):
        # the counter is live: the same forward with grad enabled counts
        model = make_model()
        x = np.stack([make_image(0)])
        assert self._graph_nodes(lambda: model(x)) > 0


class _GatedEngine(InferenceEngine):
    """An engine whose predict blocks until released — makes queue-depth
    and swap-ordering tests deterministic instead of timing-dependent."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.gate = threading.Event()

    def predict(self, payloads, lengths=None):
        self.gate.wait(10.0)
        return super().predict(payloads, lengths)


class TestServer:
    def test_serves_correct_results(self):
        engine = InferenceEngine(make_model(), "mnist")
        with Server(engine, DynamicBatcher(max_batch_size=4)) as server:
            xs = [make_image(i) for i in range(6)]
            reqs = [server.submit(x) for x in xs]
            for req in reqs:
                assert req.wait(10.0)
        direct = engine.predict(xs)
        for req, ref in zip(reqs, direct):
            assert req.result["label"] == ref["label"]
            assert np.array_equal(req.result["logits"], ref["logits"])

    def test_submit_before_start_sheds(self):
        server = Server(InferenceEngine(make_model(), "mnist"))
        req = server.submit(make_image())
        assert req.done and req.shed and req.result is SHED

    def test_overload_sheds_deterministically(self):
        engine = _GatedEngine(make_model(), "mnist")
        batcher = DynamicBatcher(max_batch_size=1, max_queue_depth=2)
        with Server(engine, batcher) as server:
            first = server.submit(make_image(0))  # worker picks this up
            # wait until the worker is blocked inside predict
            deadline = threading.Event()
            while batcher.depth() > 0:
                deadline.wait(0.001)
            queued = [server.submit(make_image(i)) for i in (1, 2)]
            shed = [server.submit(make_image(i)) for i in (3, 4)]
            # queue holds exactly max_queue_depth; the rest shed instantly
            assert all(r.done and r.shed for r in shed)
            assert not any(r.done for r in queued)
            engine.gate.set()
            for req in [first, *queued]:
                assert req.wait(10.0) and not req.shed
        assert server.shed_total == 2
        assert server.requests_total == 5

    def test_stop_drains_queue(self):
        engine = InferenceEngine(make_model(), "mnist")
        server = Server(engine, DynamicBatcher(max_batch_size=2)).start()
        reqs = [server.submit(make_image(i)) for i in range(8)]
        server.stop(drain=True)
        assert all(req.done and not req.shed for req in reqs)

    def test_stop_without_drain_sheds_leftovers(self):
        engine = _GatedEngine(make_model(), "mnist")
        server = Server(engine, DynamicBatcher(max_batch_size=1)).start()
        reqs = [server.submit(make_image(i)) for i in range(4)]
        engine.gate.set()
        server.stop(drain=False)
        assert all(req.done for req in reqs)
        # everything not already served was shed, never left hanging
        assert server.shed_total + sum(1 for r in reqs if not r.shed) == 4

    def test_predict_sync_roundtrip(self):
        engine = InferenceEngine(make_model(), "mnist")
        with Server(engine) as server:
            result = server.predict_sync(make_image())
        assert "label" in result and result["version"] == engine.version

    def test_batch_error_fails_requests_not_loop(self):
        engine = InferenceEngine(make_model(), "mnist")
        with Server(engine) as server:
            bad = server.predict_sync(np.zeros((3, 3)))  # wrong geometry
            assert "error" in bad
            good = server.predict_sync(make_image())  # loop survived
            assert "label" in good


class TestHotSwap:
    def test_swap_result_bit_identical_to_fresh_load(self, tmp_path):
        mgr = CheckpointManager(tmp_path, keep_last=5)
        mgr.save(make_model(rng=3), iteration=1, step=1)
        engine = InferenceEngine.from_manager(mgr, make_model(), "mnist")
        x = make_image(1)
        with Server(engine, manager=mgr) as server:
            before = server.predict_sync(x)
            mgr.save(make_model(rng=4), iteration=2, step=2)
            applied = server.request_swap(mgr.latest())
            assert applied.wait(10.0)
            after = server.predict_sync(x)
        assert before["version"] == 1 and after["version"] == 2
        fresh = InferenceEngine.from_checkpoint(
            mgr.path_for(2), make_model(), "mnist"
        )
        assert np.array_equal(after["logits"], fresh.classify(x[None])[0]["logits"])
        assert server.swaps_total == 1

    def test_no_request_dropped_across_swap(self, tmp_path):
        mgr = CheckpointManager(tmp_path, keep_last=5)
        mgr.save(make_model(rng=3), iteration=1, step=1)
        engine = _GatedEngine(make_model(), "mnist")
        engine.load_version(mgr.path_for(1))
        with Server(engine, DynamicBatcher(max_batch_size=2)) as server:
            reqs = [server.submit(make_image(i)) for i in range(6)]
            mgr.save(make_model(rng=4), iteration=2, step=2)
            server.request_swap(mgr.path_for(2))
            engine.gate.set()
            for req in reqs:
                assert req.wait(10.0)
        # every queued request was answered; the shed counter stayed 0,
        # so overload rejections are distinguishable from swap behaviour
        assert server.shed_total == 0
        assert not any(req.shed for req in reqs)
        assert server.swaps_total == 1
        # requests batched after the swap carry the new version
        versions = [req.result["version"] for req in reqs]
        assert versions == sorted(versions) and versions[-1] == 2

    def test_poll_detects_new_checkpoint(self, tmp_path):
        mgr = CheckpointManager(tmp_path, keep_last=5)
        mgr.save(make_model(rng=3), iteration=1, step=1)
        engine = InferenceEngine.from_manager(mgr, make_model(), "mnist")
        server = Server(engine, manager=mgr, swap_poll_batches=1)
        assert not server.poll_for_update()  # nothing newer yet
        mgr.save(make_model(rng=4), iteration=2, step=2)
        assert server.poll_for_update()
        with server:
            deadline = threading.Event()
            for _ in range(1000):
                if engine.version == 2:
                    break
                deadline.wait(0.01)
        assert engine.version == 2


class TestServeMetrics:
    def test_serve_instruments_recorded(self):
        reg = MetricsRegistry()
        engine = InferenceEngine(make_model(), "mnist")
        with activated(reg):
            batcher = DynamicBatcher(max_batch_size=4, max_queue_depth=64)
            server = Server(engine, batcher)
            shed = server.submit(make_image())  # before start -> shed
            with server:
                reqs = [server.submit(make_image(i)) for i in range(4)]
                for req in reqs:
                    assert req.wait(10.0)
        assert shed.shed
        snap = {s["name"]: s for s in reg.snapshot()}
        assert snap["serve/requests"]["value"] == 5
        assert snap["serve/shed"]["value"] == 1
        assert snap["serve/batches"]["value"] >= 1
        assert snap["serve/batch_size"]["count"] == snap["serve/batches"]["value"]
        assert snap["serve/latency_ms"]["count"] == 4
        assert "serve/queue_depth" in snap

    def test_tracer_spans_per_batch(self):
        obs = Obs(trace=True)
        engine = InferenceEngine(make_model(), "mnist")
        with Server(engine, obs=obs) as server:
            server.predict_sync(make_image())
        paths = [ev.path for ev in obs.tracer.events]
        assert "serve/batch" in paths


class TestBatcherEarlyDispatch:
    def test_full_head_bucket_dispatches_before_grace(self):
        # mixed-bucket traffic: the head bucket already fills a batch, so
        # next_batch must ship immediately instead of burning max_wait_ms
        # waiting for total depth to reach max_batch_size
        b = DynamicBatcher(max_batch_size=2, max_wait_ms=500.0, bucket_width=2)
        b.offer(Request(payload=0, seq_len=2))
        b.offer(Request(payload=1, seq_len=8))  # different bucket
        b.offer(Request(payload=2, seq_len=2))  # head bucket now full
        t0 = time.perf_counter()
        batch = b.next_batch(timeout=1.0)
        elapsed = time.perf_counter() - t0
        assert [r.payload for r in batch] == [0, 2]
        assert elapsed < 0.25, f"waited {elapsed:.3f}s with a full head bucket"

    def test_partial_head_bucket_still_waits(self):
        # only one head-bucket request queued: the grace window applies
        b = DynamicBatcher(max_batch_size=2, max_wait_ms=60.0, bucket_width=2)
        b.offer(Request(payload=0, seq_len=2))
        b.offer(Request(payload=1, seq_len=8))
        t0 = time.perf_counter()
        batch = b.next_batch(timeout=1.0)
        elapsed = time.perf_counter() - t0
        assert [r.payload for r in batch] == [0]
        assert elapsed >= 0.05

    def test_request_on_done_hook_fires_on_finish(self):
        seen = []
        req = Request(payload=1, on_done=seen.append)
        req.finish("r")
        assert seen == [req] and req.result == "r"

    def test_submit_forwards_on_done_even_on_shed(self):
        seen = []
        server = Server(InferenceEngine(make_model(), "mnist"))
        req = server.submit(make_image(), on_done=seen.append)  # not started
        assert req.shed and seen == [req]


class _CountingManager(CheckpointManager):
    """Counts directory scans — the TOCTOU fix allows exactly one per poll."""

    scans = 0

    def checkpoints(self):
        self.scans += 1
        return super().checkpoints()


class TestPollForUpdate:
    def test_poll_scans_the_directory_exactly_once(self, tmp_path):
        mgr = _CountingManager(tmp_path)
        mgr.save(make_model(rng=3), iteration=1, step=1)
        server = Server(InferenceEngine(make_model(), "mnist"), manager=mgr)
        mgr.scans = 0
        assert server.poll_for_update()
        # latest() resolved once; the step came from that path's name, not
        # a second scan that a concurrent writer could have changed
        assert mgr.scans == 1
        with server._swap_lock:
            staged = server._pending_swap
        assert CheckpointManager.step_of(staged) == 1

    def test_poll_under_concurrent_writer_stages_consistent_steps(
        self, tmp_path
    ):
        # a trainer lands checkpoints while the server polls: every staged
        # path must parse to a step that beats the engine version — the
        # pre-fix two-scan race could stage a path newer than the step it
        # compared (or miss the consistency entirely)
        mgr = CheckpointManager(tmp_path, keep_last=100)
        mgr.save(make_model(rng=3), iteration=1, step=1)
        engine = InferenceEngine(make_model(), "mnist")
        server = Server(engine, manager=mgr)
        stop = threading.Event()

        def writer():
            step = 2
            while not stop.is_set() and step < 40:
                mgr.save(make_model(rng=step % 5), iteration=step, step=step)
                step += 1

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            for _ in range(60):
                server.poll_for_update()
                with server._swap_lock:
                    staged = server._pending_swap
                if staged is not None:
                    step = CheckpointManager.step_of(staged)
                    assert step is not None and step > engine.version
        finally:
            stop.set()
            thread.join()


class TestServeFailureVisibility:
    def test_queue_depth_gauge_not_stale_after_failed_batch(self):
        reg = MetricsRegistry()
        engine = InferenceEngine(make_model(), "mnist")
        with activated(reg):
            with Server(engine, DynamicBatcher(max_batch_size=4)) as server:
                bad = server.submit(np.zeros((3, 3)))  # fails the batch
                assert bad.wait(10.0) and "error" in bad.result
                # pre-fix the gauge froze at the submit-time depth; now the
                # error path and idle loop ticks both refresh it
                deadline = time.perf_counter() + 5.0
                gauge = reg.gauge("serve/queue_depth")
                while gauge.value != 0 and time.perf_counter() < deadline:
                    time.sleep(0.01)
                assert gauge.value == 0

    def test_idle_ticks_refresh_queue_depth_gauge(self):
        reg = MetricsRegistry()
        engine = _GatedEngine(make_model(), "mnist")
        with activated(reg):
            batcher = DynamicBatcher(max_batch_size=1, max_queue_depth=64)
            with Server(engine, batcher) as server:
                reqs = [server.submit(make_image(i)) for i in range(4)]
                assert reg.gauge("serve/queue_depth").value > 0
                engine.gate.set()
                for req in reqs:
                    assert req.wait(10.0)
                # traffic stops; the idle loop must pull the gauge to the
                # true (empty) depth rather than leave the last burst value
                deadline = time.perf_counter() + 5.0
                gauge = reg.gauge("serve/queue_depth")
                while gauge.value != 0 and time.perf_counter() < deadline:
                    time.sleep(0.01)
                assert gauge.value == 0

    def test_engine_failure_counts_and_alarms(self):
        reg = MetricsRegistry()
        engine = InferenceEngine(make_model(), "mnist")
        with activated(reg):
            server = Server(
                engine,
                DynamicBatcher(max_batch_size=4),
                metrics_every_batches=1,
            )
            with server:
                bad = server.submit(np.zeros((3, 3)))
                assert bad.wait(10.0) and "error" in bad.result
                good = server.predict_sync(make_image())  # loop survived
                assert "label" in good
        assert server.errors_total == 1
        assert server.counters()["errors"] == 1
        snap = {s["name"]: s for s in reg.snapshot()}
        assert snap["serve/errors"]["value"] == 1
        # the error-alarm rule in default_serving_rules is critical:
        # a failed batch is an alarm, not a silent error dict
        assert server.alarms_total >= 1
        assert snap["serve/alarms"]["value"] >= 1
