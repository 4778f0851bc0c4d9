"""Unit tests for the observability subsystem (`repro.obs`)."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.obs import (
    GRAD_NORM_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Obs,
    OpProfiler,
    Tracer,
    activated,
    get_active,
    set_active,
)
from repro.tensor import Tensor


class TestTracer:
    def test_span_records_event(self):
        tr = Tracer()
        with tr.span("work"):
            pass
        assert len(tr.events) == 1
        ev = tr.events[0]
        assert ev.name == "work" and ev.path == "work"
        assert ev.duration >= 0.0

    def test_nested_spans_build_paths(self):
        tr = Tracer()
        with tr.span("outer"):
            with tr.span("inner"):
                with tr.span("leaf"):
                    pass
            with tr.span("inner"):
                pass
        paths = sorted(ev.path for ev in tr.events)
        assert paths == ["outer", "outer/inner", "outer/inner", "outer/inner/leaf"]
        # children close before parents
        assert tr.events[-1].path == "outer"
        assert tr.open_spans == 0

    def test_span_closed_on_exception(self):
        tr = Tracer()
        with pytest.raises(RuntimeError):
            with tr.span("boom"):
                raise RuntimeError("x")
        assert tr.open_spans == 0
        assert tr.events[0].path == "boom"

    def test_unbalanced_end_is_noop(self):
        tr = Tracer()
        assert tr.end() is None
        tr.begin("a")
        assert tr.end() is not None
        assert tr.end() is None  # stack empty again
        assert len(tr.events) == 1

    def test_open_span_excluded_from_export(self):
        tr = Tracer()
        tr.begin("never-closed")
        with tr.span("closed"):
            pass
        trace = tr.to_chrome_trace()
        names = [e["name"] for e in trace["traceEvents"] if e["ph"] == "X"]
        assert names == ["closed"]
        assert tr.open_spans == 1

    def test_chrome_trace_is_valid_json_with_spec_fields(self, tmp_path):
        tr = Tracer()
        with tr.span("parent"):
            with tr.span("child"):
                pass
        path = tmp_path / "trace.json"
        tr.save_chrome_trace(str(path))
        loaded = json.loads(path.read_text())
        assert loaded["displayTimeUnit"] == "ms"
        spans = [e for e in loaded["traceEvents"] if e["ph"] == "X"]
        meta = [e for e in loaded["traceEvents"] if e["ph"] == "M"]
        assert len(spans) == 2
        for ev in spans:
            assert ev["ts"] >= 0 and ev["dur"] >= 0
            assert {"name", "pid", "tid", "cat", "args"} <= set(ev)
        # spans sorted by start time: parent opened first
        assert spans[0]["name"] == "parent"
        # per-spec metadata: a process_name and a thread_name event
        meta_names = {e["name"] for e in meta}
        assert {"process_name", "thread_name"} <= meta_names
        proc = next(e for e in meta if e["name"] == "process_name")
        assert proc["pid"] == spans[0]["pid"]
        assert proc["args"]["name"] == "driver"

    def test_totals_and_self_times(self):
        tr = Tracer()
        with tr.span("a"):
            with tr.span("b"):
                pass
            with tr.span("b"):
                pass
        totals = tr.totals()
        assert totals["a"][0] == 1 and totals["a/b"][0] == 2
        selfs = tr.self_times()
        # parent self time excludes children but stays non-negative-ish
        assert selfs["a"] <= totals["a"][1]
        assert selfs["a/b"] == pytest.approx(totals["a/b"][1])

    def test_flame_summary_renders_indented_rows(self):
        tr = Tracer()
        with tr.span("train"):
            with tr.span("forward"):
                pass
        out = tr.flame_summary()
        assert "train" in out and "  forward" in out
        assert "calls" in out and "self ms" in out

    def test_flame_summary_empty(self):
        assert "no spans" in Tracer().flame_summary()


class TestMetrics:
    def test_counter_accumulates_and_rejects_negative(self):
        c = Counter("n")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_last_write_wins(self):
        g = Gauge("g")
        assert math.isnan(g.value)
        g.set(1.0)
        g.set(2.0)
        assert g.value == 2.0

    def test_histogram_bucket_boundaries_le_semantics(self):
        h = Histogram("h", buckets=(1.0, 10.0))
        h.observe(0.5)  # below first bound -> bucket 0
        h.observe(1.0)  # exactly on a bound lands in that bound's bucket
        h.observe(5.0)  # -> bucket 1
        h.observe(10.0)  # boundary again -> bucket 1
        h.observe(11.0)  # above last bound -> +inf bucket
        assert h.counts == [2, 2, 1]
        assert h.count == 5
        assert h.vmin == 0.5 and h.vmax == 11.0
        assert h.mean == pytest.approx(27.5 / 5)

    def test_histogram_validates_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())
        with pytest.raises(ValueError):
            Histogram("h", buckets=(2.0, 1.0))

    def test_histogram_snapshot_has_inf_bucket(self):
        h = Histogram("h", buckets=(1.0,))
        h.observe(100.0)
        snap = h.snapshot()
        assert snap["buckets"][-1][0] == math.inf
        assert snap["buckets"][-1][1] == 1

    def test_registry_get_or_create_and_type_mismatch(self):
        reg = MetricsRegistry()
        c = reg.counter("x")
        assert reg.counter("x") is c
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_registry_jsonl_snapshot(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(2)
        reg.gauge("b").set(0.5)
        reg.histogram("c", GRAD_NORM_BUCKETS).observe(1.0)
        lines = reg.to_jsonl().strip().splitlines()
        objs = [json.loads(line) for line in lines]
        assert [o["type"] for o in objs] == ["counter", "gauge", "histogram"]
        assert objs[0]["value"] == 2.0

    def test_registry_save(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        path = tmp_path / "m.jsonl"
        reg.save(str(path))
        assert json.loads(path.read_text().splitlines()[0])["name"] == "a"

    def test_active_registry_scoping(self):
        assert get_active() is None
        reg = MetricsRegistry()
        with activated(reg):
            assert get_active() is reg
            inner = MetricsRegistry()
            with activated(inner):
                assert get_active() is inner
            assert get_active() is reg
        assert get_active() is None

    def test_set_active_returns_previous(self):
        reg = MetricsRegistry()
        assert set_active(reg) is None
        assert set_active(None) is reg


class TestOpProfiler:
    def test_counts_forward_and_backward_separately(self):
        prof = OpProfiler()
        with prof.attached_to_engine():
            a = Tensor(np.ones((4, 3)), requires_grad=True)
            b = Tensor(np.ones((3, 2)), requires_grad=True)
            ((a @ b).tanh().sum()).backward()
        assert prof.forward["matmul"].calls == 1
        assert prof.forward["matmul"].elements == 8
        assert prof.forward["tanh"].calls == 1
        assert prof.backward["matmul"].calls == 1
        assert prof.backward["tanh"].calls == 1
        # sum's upstream gradient is a scalar
        assert prof.backward["sum"].elements == 1

    def test_attach_detach_restores_engine_untouched(self):
        original = Tensor.__dict__["_make"]
        prof = OpProfiler()
        prof.attach()
        assert Tensor.__dict__["_make"] is not original
        prof.detach()
        assert Tensor.__dict__["_make"] is original
        # ops created after detach record nothing
        before = dict(prof.forward)
        t = Tensor(np.ones(3), requires_grad=True)
        (t * 2).sum().backward()
        assert prof.forward == before
        assert t.grad is not None  # engine still fully functional

    def test_attach_is_idempotent_and_detach_safe(self):
        original = Tensor.__dict__["_make"]
        prof = OpProfiler()
        prof.attach()
        prof.attach()
        prof.detach()
        assert Tensor.__dict__["_make"] is original
        prof.detach()  # second detach is a no-op
        assert Tensor.__dict__["_make"] is original

    def test_detached_graph_backward_still_reports(self):
        """Backward through a graph built while attached reports even
        after detach (the vjp wrappers travel with the graph)."""
        prof = OpProfiler()
        with prof.attached_to_engine():
            t = Tensor(np.ones(3), requires_grad=True)
            loss = (t * 3).sum()
        loss.backward()
        assert prof.backward["mul"].calls == 1

    def test_table_has_distinct_phase_rows(self):
        prof = OpProfiler()
        with prof.attached_to_engine():
            t = Tensor(np.ones((5, 5)), requires_grad=True)
            (t.tanh().sum()).backward()
        out = prof.table()
        assert "forward" in out and "backward" in out
        assert "tanh" in out and "Melem/s" in out

    def test_throughput_zero_without_time(self):
        from repro.obs import OpStat

        assert OpStat().throughput == 0.0


class TestObsBundle:
    def test_disabled_obs_is_inert(self):
        obs = Obs()
        assert not obs.enabled
        assert obs.tracer is None and obs.metrics is None and obs.profiler is None
        with obs.span("anything"):
            pass  # no tracer -> nothing recorded, nothing raised
        with obs.activate():
            assert get_active() is None

    def test_activate_installs_and_restores(self):
        obs = Obs(metrics=True, profile=True)
        original = Tensor.__dict__["_make"]
        with obs.activate():
            assert get_active() is obs.metrics
            assert Tensor.__dict__["_make"] is not original
        assert get_active() is None
        assert Tensor.__dict__["_make"] is original

    def test_activate_restores_on_exception(self):
        obs = Obs(metrics=True, profile=True)
        original = Tensor.__dict__["_make"]
        with pytest.raises(RuntimeError):
            with obs.activate():
                raise RuntimeError("boom")
        assert get_active() is None
        assert Tensor.__dict__["_make"] is original

    def test_span_traces_when_enabled(self):
        obs = Obs(trace=True)
        with obs.span("a"):
            with obs.span("b"):
                pass
        assert [e.path for e in obs.tracer.events] == ["a/b", "a"]


class TestGraphNodeCounter:
    """graph_nodes: how many _make calls retained a backward closure."""

    def test_counts_graph_building_ops(self):
        from repro.tensor import no_grad

        prof = OpProfiler()
        with prof.attached_to_engine():
            t = Tensor(np.ones(3), requires_grad=True)
            (t * 2).sum()
        assert prof.graph_nodes == 2  # mul + sum both kept a vjp

    def test_no_grad_builds_zero_nodes_but_still_profiles(self):
        from repro.tensor import no_grad

        prof = OpProfiler()
        with prof.attached_to_engine(), no_grad():
            t = Tensor(np.ones(3), requires_grad=True)
            (t * 2).sum()
        # forward work is still counted, but no graph was allocated
        assert prof.forward["mul"].calls == 1
        assert prof.graph_nodes == 0

    def test_constant_inputs_build_zero_nodes(self):
        prof = OpProfiler()
        with prof.attached_to_engine():
            (Tensor(np.ones(3)) * 2).sum()  # no requires_grad anywhere
        assert prof.graph_nodes == 0
