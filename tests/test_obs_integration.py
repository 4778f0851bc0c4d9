"""Observability wired through the stack: trainer, optimizers, all-reduce, CLI."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main
from repro.data import ArrayDataset, BatchIterator
from repro.nn import LSTM, Linear
from repro.obs import MetricsRegistry, Obs, activated
from repro.optim import LAMB, LARS, SGD
from repro.parallel import allreduce_mean
from repro.schedules import ConstantLR
from repro.tensor import Tensor, cross_entropy, fused_kernels
from repro.train import Trainer


def make_problem(rng, n=48, d=4, classes=3):
    w_true = rng.standard_normal((d, classes))
    x = rng.standard_normal((n, d))
    y = (x @ w_true).argmax(axis=1)
    ds = ArrayDataset(x, y)
    model = Linear(d, classes, rng=0)

    def loss_fn(batch):
        xb, yb = batch
        return cross_entropy(model(Tensor(xb)), yb)

    return ds, model, loss_fn


class TestTrainerInstrumentation:
    def test_spans_cover_all_phases(self, rng):
        ds, model, loss_fn = make_problem(rng)
        it = BatchIterator(ds, 16, rng=1)
        obs = Obs(trace=True)
        trainer = Trainer(
            loss_fn, SGD(model, lr=0.1), ConstantLR(0.1), it,
            eval_fn=lambda: {"m": 1.0}, grad_clip=1.0, obs=obs,
        )
        trainer.run(2)
        paths = {ev.path for ev in obs.tracer.events}
        assert paths == {
            "train",
            "train/forward",
            "train/backward",
            "train/clip",
            "train/step",
            "train/eval",
        }
        totals = obs.tracer.totals()
        steps = 2 * it.steps_per_epoch
        assert totals["train/forward"][0] == steps
        assert totals["train/backward"][0] == steps
        assert totals["train/eval"][0] == 2
        assert totals["train"][0] == 1

    def test_metrics_recorded_per_iteration(self, rng):
        ds, model, loss_fn = make_problem(rng)
        it = BatchIterator(ds, 16, rng=1)
        obs = Obs(metrics=True)
        Trainer(
            loss_fn, SGD(model, lr=0.1), ConstantLR(0.1), it,
            grad_clip=1.0, obs=obs,
        ).run(2)
        steps = 2 * it.steps_per_epoch
        assert obs.metrics.counter("train/iterations").value == steps
        assert obs.metrics.histogram("train/grad_norm").count == steps
        assert np.isfinite(obs.metrics.gauge("train/loss").value)

    def test_result_identical_with_and_without_obs(self, rng):
        """Instrumentation must not perturb the training protocol."""

        def run(obs):
            ds, model, loss_fn = make_problem(np.random.default_rng(7))
            it = BatchIterator(ds, 16, rng=1)
            return Trainer(
                loss_fn, SGD(model, lr=0.2), ConstantLR(0.2), it,
                grad_clip=1.0, obs=obs,
            ).run(3)

        plain = run(None)
        traced = run(Obs(trace=True, metrics=True))
        assert plain.log.values("loss") == traced.log.values("loss")
        assert plain.log.values("grad_norm") == traced.log.values("grad_norm")


class TestOptimizerTrustRatios:
    @staticmethod
    def _step(opt_cls, reg, **kwargs):
        w = Tensor(np.ones((3, 3)), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        opt = opt_cls([("w", w), ("b", b)], lr=0.1, **kwargs)
        with activated(reg):
            loss = (w.sum() + b.sum()) * 2.0
            loss.backward()
            opt.step()
        return opt

    def test_lars_records_per_layer_trust_ratio(self):
        reg = MetricsRegistry()
        self._step(LARS, reg)
        lam = reg.gauge("trust_ratio/w").value
        assert 0.0 < lam < 1.0  # real LARS λ for the matrix parameter
        assert reg.gauge("trust_ratio/b").value == 1.0  # 1-D bypass
        assert reg.histogram("trust_ratio").count == 2

    def test_lamb_records_per_layer_trust_ratio(self):
        reg = MetricsRegistry()
        self._step(LAMB, reg)
        assert reg.gauge("trust_ratio/w").value > 0.0
        assert reg.gauge("trust_ratio/b").value == 1.0

    def test_plain_solver_reports_unit_ratio(self):
        reg = MetricsRegistry()
        self._step(SGD, reg)
        assert reg.gauge("trust_ratio/w").value == 1.0

    def test_no_recording_without_active_registry(self):
        reg = MetricsRegistry()
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        opt = LARS([("w", w)], lr=0.1)
        (w.sum() * 2.0).backward()
        opt.step()  # no registry active
        assert len(reg) == 0


class TestAllreduceMetrics:
    def test_ring_rounds_and_bytes(self):
        reg = MetricsRegistry()
        buffers = [np.ones(8) for _ in range(4)]
        with activated(reg):
            allreduce_mean(buffers, algorithm="ring")
        assert reg.counter("allreduce/ring/calls").value == 1
        assert reg.counter("allreduce/ring/rounds").value == 2 * 3
        assert reg.counter("allreduce/ring/bytes").value == 2 * 3 * 8 * 8

    def test_tree_and_naive_record(self):
        reg = MetricsRegistry()
        buffers = [np.ones(4) for _ in range(3)]
        with activated(reg):
            allreduce_mean(buffers, algorithm="tree")
            allreduce_mean(buffers, algorithm="naive")
        # p=3 -> pow2=2: one fold, one exchange, one broadcast
        assert reg.counter("allreduce/tree/rounds").value == 3
        assert reg.counter("allreduce/naive/rounds").value == 2
        assert reg.counter("allreduce/naive/bytes").value == 2 * 2 * 4 * 8

    def test_results_unchanged_by_instrumentation(self):
        buffers = [np.arange(6, dtype=float) * (w + 1) for w in range(3)]
        plain = allreduce_mean(buffers, algorithm="ring")
        with activated(MetricsRegistry()):
            measured = allreduce_mean(buffers, algorithm="ring")
        for a, b in zip(plain, measured):
            np.testing.assert_array_equal(a, b)


class TestFusedKernelProfile:
    """Fused kernels must stay visible to the op profiler under stable
    names, and must actually shrink the per-step graph."""

    @staticmethod
    def _profile_step(fused_flag):
        with fused_kernels(fused_flag):
            rng = np.random.default_rng(3)
            lstm = LSTM(4, 6, num_layers=1, rng=0)
            head = Linear(6, 3, rng=1)
            x = rng.standard_normal((5, 2, 4))
            y = rng.integers(0, 3, size=2)
            prof = Obs(profile=True).profiler
            prof.attach()
            try:
                out, _ = lstm(Tensor(x))
                loss = cross_entropy(head(out[-1]), y)
                loss.backward()
            finally:
                prof.detach()
            return prof

    def test_fused_ops_have_stable_profile_names(self):
        prof = self._profile_step(True)
        # the documented, checkpoint/tooling-stable label set
        assert "fused_lstm_layer" in prof.forward
        assert "fused_lstm_out" in prof.forward
        assert "fused_softmax_xent" in prof.forward
        # the layer kernel runs once per direction per layer...
        assert prof.forward["fused_lstm_layer"].calls == 1
        # ...and its single vjp fires on the backward pass
        assert prof.backward["fused_lstm_layer"].calls == 1
        assert prof.backward["fused_softmax_xent"].calls == 1

    def test_reference_path_has_no_fused_ops(self):
        prof = self._profile_step(False)
        assert not any(op.startswith("fused_") for op in prof.forward)

    def test_fused_graph_has_fewer_ops_per_step(self):
        ref_nodes = sum(s.calls for s in self._profile_step(False).forward.values())
        fus_nodes = sum(s.calls for s in self._profile_step(True).forward.values())
        # T=5 reference steps build ~14 nodes each; fused builds ~4 per
        # layer plus the loss/head handful
        assert fus_nodes < ref_nodes / 3

    def test_fused_cell_label_on_masked_fallback(self):
        """Ragged batches fall back to per-step fused cells — still
        profiled under their own stable name."""
        with fused_kernels(True):
            rng = np.random.default_rng(4)
            lstm = LSTM(4, 6, num_layers=1, rng=0)
            x = rng.standard_normal((5, 2, 4))
            mask = np.ones((5, 2))
            mask[3:, 0] = 0.0
            prof = Obs(profile=True).profiler
            prof.attach()
            try:
                out, _ = lstm(Tensor(x), mask=mask)
            finally:
                prof.detach()
        assert prof.forward["fused_lstm_cell"].calls == 5
        assert "fused_lstm_layer" not in prof.forward


class TestCliObservability:
    """The smoke command from the issue, runnable from the test suite."""

    @pytest.mark.slow
    def test_train_with_full_observability(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        metrics = tmp_path / "m.jsonl"
        code = main(
            [
                "train", "mnist", "--batch-size", "64", "--epochs", "2",
                "--profile", "--trace-out", str(trace),
                "--metrics-out", str(metrics),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        # op-profile table with distinct forward/backward rows
        assert "op profile" in out
        assert "forward" in out and "backward" in out
        assert "trace flame summary" in out
        # valid Chrome trace_event JSON: metadata then the span events
        loaded = json.loads(trace.read_text())
        spans = [e for e in loaded["traceEvents"] if e["ph"] == "X"]
        assert spans
        paths = {e["args"]["path"] for e in spans}
        assert "train/forward" in paths and "train/backward" in paths
        # metrics JSONL includes per-layer trust ratios
        names = [
            json.loads(line)["name"]
            for line in metrics.read_text().splitlines()
        ]
        assert any(n.startswith("trust_ratio/") for n in names)
        assert "train/iterations" in names

    def test_experiment_with_observability(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        metrics = tmp_path / "m.jsonl"
        code = main(
            [
                "experiment", "figure4",
                "--trace-out", str(trace), "--metrics-out", str(metrics),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "trace flame summary" in out
        loaded = json.loads(trace.read_text())
        assert any(e["name"] == "figure4" for e in loaded["traceEvents"])
        assert metrics.exists()  # analytic driver: file written, maybe empty

    def test_flags_off_means_no_obs_output(self, capsys):
        code = main(["experiment", "figure4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "op profile" not in out and "flame" not in out
