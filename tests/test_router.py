"""The serving fleet: routing policies, coordinated swap, respawn.

Covers the scale-out acceptance criteria: policy determinism under fixed
seeds, zero dropped and zero stale requests across a fleet-wide
coordinated hot-swap, per-replica telemetry merge under ``serve/r<i>/``,
and replica-death recovery.

Engines are built *inside* each replica process by module-level
factories (fork-safe and picklable).  Pacing via
:class:`~repro.serve.PacedEngine` is used where a test needs requests to
stay in flight long enough to observe routing decisions — timing is
modelled, results are real.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.models import MnistLSTMClassifier
from repro.obs import MetricsRegistry, activated
from repro.serve import (
    POLICIES,
    InferenceEngine,
    PacedEngine,
    Router,
)
from repro.utils.checkpoint import CheckpointManager


def make_model(rng=3):
    return MnistLSTMClassifier(rng=rng, input_dim=8, transform_dim=8, hidden=8)


def make_image(seed=0):
    return np.random.default_rng(seed).standard_normal((8, 8))


def engine_factory():
    return InferenceEngine(make_model(), "mnist")


def slow_engine_factory():
    # 200 ms per batch: long enough that a burst of submissions is fully
    # routed before the first batch completes
    return PacedEngine(engine_factory(), t_fixed_ms=200.0, t_sample_ms=0.0)


BATCHER = dict(max_batch_size=8, max_wait_ms=2.0, max_queue_depth=4096)


class TestRouterValidation:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            Router(engine_factory, policy="random")

    def test_replica_bounds_validated(self):
        with pytest.raises(ValueError):
            Router(engine_factory, replicas=0)

    def test_policies_constant_matches(self):
        assert POLICIES == ("round-robin", "least-loaded", "jsq")


class TestPolicyDeterminism:
    def test_round_robin_cycles_deterministically(self):
        router = Router(
            engine_factory, replicas=2, policy="round-robin", batcher=BATCHER,
            telemetry=False,
        )
        with router:
            for i in range(10):
                result = router.predict_sync(make_image(i), timeout=30.0)
                assert "label" in result
            assert list(router.assignments) == [0, 1] * 5

    def test_least_loaded_ties_break_by_index(self):
        # sequential sync requests: every pick sees all depths equal (0),
        # so the deterministic tie-break sends everything to replica 0
        router = Router(
            engine_factory, replicas=3, policy="least-loaded",
            batcher=BATCHER, telemetry=False,
        )
        with router:
            for i in range(6):
                router.predict_sync(make_image(i), timeout=30.0)
            assert list(router.assignments) == [0] * 6

    def test_jsq_spreads_a_burst_deterministically(self):
        # a burst submitted faster than the 200 ms service time: in-flight
        # counts alternate 0/1, so jsq interleaves replicas exactly
        router = Router(
            slow_engine_factory, replicas=2, policy="jsq", batcher=BATCHER,
            telemetry=False,
        )
        with router:
            time.sleep(0.3)  # replicas up before the burst
            reqs = [router.submit(make_image(i)) for i in range(6)]
            assert list(router.assignments) == [0, 1, 0, 1, 0, 1]
            for req in reqs:
                assert req.wait(30.0) and not req.shed

    def test_same_seed_same_assignments(self):
        def run_once():
            router = Router(
                engine_factory, replicas=2, policy="round-robin",
                batcher=BATCHER, telemetry=False,
            )
            with router:
                rng = np.random.default_rng(0)
                for _ in range(8):
                    router.predict_sync(
                        rng.standard_normal((8, 8)), timeout=30.0
                    )
                return list(router.assignments)

        assert run_once() == run_once()


class TestCoordinatedSwap:
    def test_fleet_swap_drops_nothing_and_leaves_no_stale_version(
        self, tmp_path
    ):
        mgr = CheckpointManager(tmp_path, keep_last=5)
        mgr.save(make_model(rng=3), iteration=1, step=1)

        def factory():
            engine = InferenceEngine(make_model(), "mnist")
            engine.load_version(CheckpointManager(tmp_path).latest())
            return engine

        router = Router(
            factory, replicas=2, policy="round-robin", batcher=BATCHER,
            manager=mgr,
        )
        with router:
            time.sleep(0.3)
            streamed = []
            stop = threading.Event()

            def stream():
                i = 0
                while not stop.is_set():
                    streamed.append(router.submit(make_image(i)))
                    i += 1
                    time.sleep(0.002)

            thread = threading.Thread(target=stream)
            thread.start()
            try:
                time.sleep(0.1)
                new_path = mgr.save(make_model(rng=4), iteration=2, step=2)
                converged = router.request_swap(new_path)
                assert converged.wait(30.0), "fleet swap never converged"
                # after convergence no replica may answer with old weights
                post = [router.submit(make_image(i)) for i in range(10)]
                time.sleep(0.1)
            finally:
                stop.set()
                thread.join()
            for req in streamed + post:
                assert req.wait(30.0), "request dropped across the swap"
                assert not req.shed and "error" not in req.result
            assert all(req.result["version"] == 2 for req in post)
            assert router.versions() == {0: 2, 1: 2}
            assert router.counters()["swaps"] == 1
            assert router.counters()["shed"] == 0

    def test_repeated_swap_to_one_step_counts_once(self, tmp_path):
        # the manager poll and a caller can both ask for the same step;
        # every waiter fires, but the fleet swapped once
        mgr = CheckpointManager(tmp_path, keep_last=5)
        mgr.save(make_model(rng=3), iteration=1, step=1)

        def factory():
            engine = InferenceEngine(make_model(), "mnist")
            engine.load_version(CheckpointManager(tmp_path).latest())
            return engine

        router = Router(factory, replicas=2, batcher=BATCHER)
        with router:
            new_path = mgr.save(make_model(rng=4), iteration=2, step=2)
            first = router.request_swap(new_path)
            second = router.request_swap(new_path)
            assert first.wait(30.0) and second.wait(30.0)
            assert router.versions() == {0: 2, 1: 2}
            assert router.counters()["swaps"] == 1

    def test_manager_poll_stages_fleet_swap(self, tmp_path):
        mgr = CheckpointManager(tmp_path, keep_last=5)
        mgr.save(make_model(rng=3), iteration=1, step=1)

        def factory():
            engine = InferenceEngine(make_model(), "mnist")
            engine.load_version(CheckpointManager(tmp_path).latest())
            return engine

        router = Router(
            factory, replicas=2, policy="round-robin", batcher=BATCHER,
            manager=mgr,
        )
        with router:
            time.sleep(0.3)
            assert router.predict_sync(make_image(), timeout=30.0)["version"] == 1
            mgr.save(make_model(rng=4), iteration=2, step=2)
            deadline = time.perf_counter() + 30.0
            while (
                min(v if v is not None else -1 for v in router.versions().values()) < 2
                and time.perf_counter() < deadline
            ):
                time.sleep(0.02)
            assert router.versions() == {0: 2, 1: 2}
            assert router.predict_sync(make_image(), timeout=30.0)["version"] == 2

    def test_swap_rejects_unversioned_path(self, tmp_path):
        router = Router(engine_factory, replicas=1, batcher=BATCHER)
        weights = tmp_path / "weights.npz"
        weights.write_bytes(b"")
        with pytest.raises(ValueError):
            router.request_swap(weights)  # no step clock in the name


class TestDeadReplica:
    def test_dead_replica_respawned_and_pending_failed_loudly(self):
        router = Router(
            slow_engine_factory, replicas=2, policy="jsq", batcher=BATCHER,
            telemetry=False,
        )
        with router:
            time.sleep(0.3)
            reqs = [router.submit(make_image(i)) for i in range(4)]
            victim = router._handles[0]
            victim.proc.proc.kill()
            # the victim's pending requests fail with error dicts — never
            # hang — and the control loop restores the fleet floor
            for req in reqs:
                assert req.wait(30.0)
            failed = [
                req for req in reqs
                if isinstance(req.result, dict) and "error" in req.result
            ]
            assert failed, "killed replica's requests should fail loudly"
            deadline = time.perf_counter() + 10.0
            while (
                router.counters()["replicas"] < 2
                and time.perf_counter() < deadline
            ):
                time.sleep(0.05)
            assert router.counters()["replicas"] == 2
            # the respawned replica serves fresh traffic
            assert "label" in router.predict_sync(make_image(), timeout=30.0)


class TestFleetTelemetry:
    def test_replica_metrics_merge_under_prefixes(self):
        reg = MetricsRegistry()
        with activated(reg):
            router = Router(
                engine_factory, replicas=2, policy="round-robin",
                batcher=BATCHER, telemetry=True,
            )
            with router:
                for i in range(8):
                    router.predict_sync(make_image(i), timeout=30.0)
                time.sleep(0.3)  # one heartbeat past the traffic
        names = {s["name"] for s in reg.snapshot()}
        for i in range(2):
            assert f"serve/r{i}/requests" in names, sorted(names)
            assert f"serve/r{i}/queue_depth" in names
            assert f"serve/r{i}/batches" in names

    def test_counters_aggregate_fleet_totals(self):
        router = Router(
            engine_factory, replicas=2, policy="round-robin", batcher=BATCHER,
        )
        with router:
            for i in range(6):
                router.predict_sync(make_image(i), timeout=30.0)
            time.sleep(0.3)  # heartbeats carry the final replica counters
            totals = router.counters()
        assert totals["requests"] == 6
        assert totals["shed"] == 0
        assert totals["errors"] == 0
        assert totals["batches"] >= 2  # both replicas served
        assert totals["replicas"] == 2
