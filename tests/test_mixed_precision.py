"""Emulated mixed precision: quantizers, amp trainer, wire, int8 PTQ."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data import ArrayDataset, BatchIterator, make_sequential_mnist
from repro.experiments import build_workload
from repro.models import MnistLSTMClassifier
from repro.nn import Linear, Parameter
from repro.obs.metrics import MetricsRegistry, activated, set_active
from repro.optim import (
    SGD,
    DynamicLossScaler,
    Momentum,
    clip_grad_norm,
    global_grad_norm,
)
from repro.parallel import MultiprocessCluster
from repro.parallel.buckets import GradientBuckets
from repro.parallel.cluster import SimCluster
from repro.parallel.cost import CommModel
from repro.schedules import ConstantLR
from repro.serve import InferenceEngine, QuantizedMnistRunner, quantize_int8
from repro.tensor import (
    Tensor,
    autocast,
    bf16_roundtrip,
    cross_entropy,
    fp16_roundtrip,
    fused,
    quantize_fp16_stochastic,
)
from repro.train import Trainer
from repro.utils.checkpoint import load_checkpoint, save_checkpoint


def make_linear_problem(rng, n=64, d=4, classes=3):
    w_true = rng.standard_normal((d, classes))
    x = rng.standard_normal((n, d))
    y = (x @ w_true).argmax(axis=1)
    ds = ArrayDataset(x, y)
    model = Linear(d, classes, rng=0)

    def loss_fn(batch):
        xb, yb = batch
        return cross_entropy(model(Tensor(xb)), yb)

    return ds, model, loss_fn


def _fused_lstm(a: Tensor):
    """The fused LSTM layer over ``a`` as a (T=1, B=2, D=3) sequence."""
    h0 = Tensor(np.zeros((2, 2)))
    kernel = Tensor(np.linspace(-1.0, 1.0, 5 * 8).reshape(5, 8))
    bias = Tensor(np.zeros(8))
    return fused.lstm_layer(a.reshape((1, 2, 3)), h0, h0, kernel, bias, 2)


# every op whose output is a view of its parent: autocast must not round it
_VIEW_SITES = {
    "reshape": lambda a: a.reshape((3, 2)),
    "transpose": lambda a: a.reshape((2, 3)).transpose(),
    "squeeze": lambda a: a.reshape((1, 6)).squeeze(0),
    "expand_dims": lambda a: a.expand_dims(0),
    "swapaxes": lambda a: a.reshape((2, 3)).swapaxes(0, 1),
    "getitem": lambda a: a[1:4],
    "fused_lstm_out_range": lambda a: _fused_lstm(a)[0],
    "fused_lstm_out_slice": lambda a: _fused_lstm(a)[1],
}

# ops that copy: their outputs land on the fp16 grid
_COPY_SITES = {
    "reshape_noncontiguous": lambda a: a.reshape((2, 3)).transpose().reshape(-1),
    "advanced_getitem": lambda a: a[np.array([0, 2, 4])],
}


# -- non-finite gradient clipping (the bugfix this PR is named for) ----------


class TestClipNonFinite:
    def test_inf_norm_leaves_gradients_untouched(self):
        p = Parameter(np.zeros(3))
        p.grad = np.array([np.inf, 1.0, -2.0])
        before = p.grad.copy()
        norm = clip_grad_norm([p], 1.0)
        assert np.isinf(norm)
        assert np.array_equal(p.grad, before), (
            "inf norm must not zero the gradient (inf scale bug)"
        )

    def test_nan_norm_leaves_gradients_untouched(self):
        p = Parameter(np.zeros(3))
        p.grad = np.array([np.nan, 1.0, -2.0])
        before = p.grad.copy()
        norm = clip_grad_norm([p], 1.0)
        assert np.isnan(norm)
        # NaN gradients propagate unchanged for the caller to detect
        assert np.array_equal(
            np.isnan(p.grad), np.isnan(before)
        ) and np.array_equal(p.grad[1:], before[1:])

    def test_zero_norm_is_a_no_op(self):
        p = Parameter(np.zeros(3))
        p.grad = np.zeros(3)
        assert clip_grad_norm([p], 1.0) == 0.0
        assert np.array_equal(p.grad, np.zeros(3))

    def test_finite_clipping_still_scales(self):
        p = Parameter(np.zeros(2))
        p.grad = np.array([3.0, 4.0])
        assert clip_grad_norm([p], 1.0) == pytest.approx(5.0)
        assert np.allclose(p.grad, np.array([0.6, 0.8]))

    def test_global_norm_nonfinite_reporting(self):
        p = Parameter(np.zeros(2))
        p.grad = np.array([np.inf, 0.0])
        assert np.isinf(global_grad_norm([p]))
        p.grad = np.array([np.nan, 0.0])
        assert np.isnan(global_grad_norm([p]))


# -- the emulated-precision quantizers ---------------------------------------


class TestQuantizers:
    def test_fp16_roundtrip_lands_on_the_grid(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(100)
        q = fp16_roundtrip(x)
        assert np.array_equal(q, q.astype(np.float16).astype(np.float64))
        assert q.dtype == np.float64

    def test_fp16_roundtrip_overflows_to_inf(self):
        assert np.isinf(fp16_roundtrip(np.array([1e5]))[0])
        assert np.isneginf(fp16_roundtrip(np.array([-1e5]))[0])

    def test_bf16_roundtrip_idempotent_and_nan_safe(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(100)
        q = bf16_roundtrip(x)
        assert np.array_equal(q, bf16_roundtrip(q))
        mixed = np.array([np.nan, 1.0, np.inf])
        out = bf16_roundtrip(mixed)
        assert np.isnan(out[0]) and out[1] == 1.0 and np.isinf(out[2])

    def test_stochastic_rounding_is_unbiased(self):
        # a value exactly between two fp16 grid points: round-to-nearest
        # always picks one side; the stochastic mean must recover x
        lo = np.float64(np.float16(1.0))
        hi = np.float64(np.nextafter(np.float16(1.0), np.float16(2.0)))
        x = np.full(4000, (lo + hi) / 2.0)
        rng = np.random.default_rng(2)
        draws = quantize_fp16_stochastic(x, rng).astype(np.float64)
        assert set(np.unique(draws)) <= {lo, hi}
        assert abs(draws.mean() - x[0]) < (hi - lo) / 10

    def test_stochastic_rounding_exact_values_fixed(self):
        x = np.array([1.0, -2.0, 0.0])  # exactly representable
        rng = np.random.default_rng(3)
        out = quantize_fp16_stochastic(x, rng).astype(np.float64)
        assert np.array_equal(out, x)

    def test_autocast_quantizes_op_outputs(self):
        a = Tensor(np.array([1.0001220703125e-1] * 4))
        with autocast():
            out = a * 3.0
        assert np.array_equal(out.data, fp16_roundtrip(a.data * 3.0))

    @pytest.mark.parametrize(
        "make", list(_VIEW_SITES.values()), ids=list(_VIEW_SITES)
    )
    def test_autocast_leaves_views_sharing_storage(self, make):
        a = Tensor(np.arange(1, 7, dtype=np.float64) / 3.0, requires_grad=True)
        with autocast():
            v = make(a)
        assert np.shares_memory(v.data, v._parents[0].data)

    @pytest.mark.parametrize(
        "make", list(_COPY_SITES.values()), ids=list(_COPY_SITES)
    )
    def test_autocast_rounds_copies(self, make):
        a = Tensor(np.arange(1, 7, dtype=np.float64) / 3.0, requires_grad=True)
        with autocast():
            out = make(a)
        with autocast(False):
            exact = make(a)
        assert not np.shares_memory(out.data, a.data)
        assert not np.array_equal(out.data, exact.data)
        assert np.array_equal(out.data, fp16_roundtrip(exact.data))

    def test_autocast_off_is_exact(self):
        a = Tensor(np.array([1.0000001]))
        out = a * 1.0000001
        assert out.data[0] == 1.0000001 * 1.0000001


# -- the amp training loop ---------------------------------------------------


class TestAmpTrainer:
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_amp_trajectory_tracks_fp32(self, seed):
        """fp16-emulated training stays within tolerance of pure fp64."""
        rng = np.random.default_rng(seed)
        ds, model_a, loss_a = make_linear_problem(rng)
        it_a = BatchIterator(ds, 16, rng=1)
        model_b = Linear(4, 3, rng=0)

        def loss_b(batch):
            xb, yb = batch
            return cross_entropy(model_b(Tensor(xb)), yb)

        it_b = BatchIterator(ds, 16, rng=1)
        full = Trainer(
            loss_a, SGD(model_a, lr=0.2), ConstantLR(0.2), it_a, amp=False
        ).run(5)
        amp = Trainer(
            loss_b, SGD(model_b, lr=0.2), ConstantLR(0.2), it_b, amp=True
        ).run(5)
        assert not full.diverged and not amp.diverged
        for (name, a), (_, b) in zip(
            model_a.named_parameters(), model_b.named_parameters()
        ):
            scale = max(1.0, float(np.abs(a.data).max()))
            assert float(np.abs(a.data - b.data).max()) < 2e-2 * scale, name
        full_loss = full.log.values("loss")[-1]
        amp_loss = amp.log.values("loss")[-1]
        assert abs(full_loss - amp_loss) < 0.1

    def test_overflow_skip_leaves_state_bit_identical(self, rng):
        """A skipped step must change nothing: params, velocity, master."""
        ds, model, _ = make_linear_problem(rng)
        it = BatchIterator(ds, 16, rng=1)

        def exploding_loss(batch):
            # finite loss whose *scaled* gradients overflow fp16: the
            # scaler (2^15) pushes |grad| ~ 100 past the 65504 ceiling
            xb, _ = batch
            return (model(Tensor(xb)) * 100.0).sum()

        opt = Momentum(model, lr=0.1)
        scaler = DynamicLossScaler(initial_scale=2.0**15)
        trainer = Trainer(
            exploding_loss, opt, ConstantLR(0.1), it,
            grad_clip=1.0, amp=True, loss_scaler=scaler,
        )
        params_before = {
            n: p.data.copy() for n, p in model.named_parameters()
        }
        state_before = {
            n: {k: v.copy() for k, v in st.items()}
            for n, st in opt.state.items()
        }
        reg = MetricsRegistry()
        prev = set_active(reg)
        try:
            result = trainer.run(1)
        finally:
            set_active(prev)
        iters = it.steps_per_epoch
        assert reg.counter("amp/steps_skipped").value == iters
        assert reg.counter("amp/steps_clean").value == 0
        for n, p in model.named_parameters():
            assert np.array_equal(p.data, params_before[n]), n
        for n, st_ in opt.state.items():
            for k, v in st_.items():
                if n in state_before and k in state_before[n]:
                    assert np.array_equal(v, state_before[n][k]), (n, k)
                else:
                    # state seeded at first step (master/velocity) must
                    # still be pristine: master == param, velocity == 0
                    if k == "master":
                        assert np.array_equal(v, params_before[n]), n
                    else:
                        assert not np.any(v), (n, k)
        assert scaler.scale < 2.0**15  # backed off, never clipped/applied
        assert result.epochs_completed == 1

    @pytest.mark.slow
    def test_amp_tracks_float64_on_the_mnist_workload(self):
        """One epoch of the mnist smoke workload: amp's accuracy within
        0.05 of float64's, and no step lost to an overflow skip."""
        wl = build_workload("mnist", "smoke")
        schedule = wl.legw_schedule(wl.base_batch, 1)
        reg = MetricsRegistry()
        with activated(reg):
            amp = wl.run(wl.base_batch, schedule, epochs=1, amp=True)
        full = wl.run(wl.base_batch, schedule, epochs=1, amp=False)
        assert not amp.diverged and not full.diverged
        assert reg.counter("amp/steps_skipped").value == 0
        assert reg.counter("amp/steps_clean").value == wl.steps_per_epoch(
            wl.base_batch
        )
        assert amp.final_metrics["accuracy"] >= (
            full.final_metrics["accuracy"] - 0.05
        )


# -- fp32 master weights -----------------------------------------------------


class TestMasterWeights:
    def test_param_storage_follows_quantized_master(self):
        p = Parameter(np.array([1.0, -0.5, 0.25]))
        opt = SGD([p], lr=0.5)
        opt.use_master_weights()
        p.grad = np.array([0.1, 0.2, 0.3])
        opt.step()
        master = opt.state["param0"]["master"]
        expected_master = np.array([1.0, -0.5, 0.25]) - 0.5 * p.grad
        assert np.array_equal(master, expected_master)
        assert np.array_equal(p.data, fp16_roundtrip(master))

    def test_master_updates_accumulate_below_fp16_grid(self):
        """Updates far below the fp16 quantum survive in the master copy."""
        p = Parameter(np.array([1.0]))
        opt = SGD([p], lr=1.0)
        opt.use_master_weights()
        tiny = 1e-5  # fp16 quantum at 1.0 is ~4.9e-4
        for _ in range(200):
            p.grad = np.array([tiny])
            opt.step()
        master = opt.state["param0"]["master"]
        assert master[0] == pytest.approx(1.0 - 200 * tiny, rel=1e-12)
        # fp16 storage alone would have stalled at 1.0 forever
        assert p.data[0] < 1.0

    def test_master_coexists_with_momentum_state(self):
        p = Parameter(np.array([1.0, 2.0]))
        opt = Momentum([p], lr=0.1, momentum=0.9)
        opt.use_master_weights()
        p.grad = np.array([1.0, 1.0])
        opt.step()
        assert "master" in opt.state["param0"]
        assert "v" in opt.state["param0"]

    def test_master_rides_checkpoints(self, tmp_path):
        ds_rng = np.random.default_rng(0)
        model = Linear(3, 2, rng=0)
        opt = SGD(model, lr=0.1)
        opt.use_master_weights()
        for _, p in model.named_parameters():
            p.grad = ds_rng.standard_normal(p.data.shape)
        opt.step()
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, model, optimizer=opt, iteration=1)

        model2 = Linear(3, 2, rng=1)
        opt2 = SGD(model2, lr=0.1)
        opt2.use_master_weights()
        load_checkpoint(path, model2, optimizer=opt2)
        for name, st_ in opt.state.items():
            assert np.array_equal(st_["master"], opt2.state[name]["master"])
        for (_, a), (_, b) in zip(
            model.named_parameters(), model2.named_parameters()
        ):
            assert np.array_equal(a.data, b.data)


# -- fp16 wire compression parity across cluster backends --------------------


def tiny_model_factory():
    """Module-level so mp worker processes can unpickle it."""
    return MnistLSTMClassifier(rng=0, input_dim=8, transform_dim=8, hidden=8)


def _wire_cluster(model, **wire):
    """4 workers over 0.02 MiB buckets: several buckets per step."""
    cluster = SimCluster(
        list(model.parameters()), model.loss, 4, bucket_mb=0.02,
        comm=CommModel(alpha=1e-7, beta=1e-9), **wire,
    )
    assert cluster.buckets.num_buckets > 1
    return cluster


def _wire_problem():
    model = MnistLSTMClassifier(rng=1, input_dim=14, transform_dim=32, hidden=32)
    rng = np.random.default_rng(0)
    return model, (rng.standard_normal((64, 14, 14)), rng.integers(0, 10, 64))


class TestWireCompression:
    def test_wire_bytes_halve_vs_fp32_and_quarter_vs_float64(self):
        model, batch = _wire_problem()
        moved = {}
        for wire in (None, "fp32", "fp16"):
            reg = MetricsRegistry()
            with activated(reg):
                _wire_cluster(model, wire_dtype=wire).gradient_step(batch)
            moved[wire] = reg.counter("allreduce/ring/bytes").value
        assert moved["fp32"] == 2 * moved["fp16"]
        assert moved[None] == 4 * moved["fp16"]

    def test_timeline_comm_falls_with_the_fp16_wire(self):
        """On a bandwidth-bound link (β dominates these small buckets)
        the α-β timeline prices each bucket at its wire width; the α
        terms keep the drop just under the 2x byte ratio."""
        model, batch = _wire_problem()
        comm = {
            wire: _wire_cluster(model, wire_dtype=wire)
            .simulate_step(len(batch[0]) // 4)
            .total_comm
            for wire in ("fp32", "fp16")
        }
        assert comm["fp32"] / comm["fp16"] >= 1.8

    def test_stochastic_rounding_mean_beats_round_to_nearest(self):
        """Unbiased rounding: the mean of 8 successive reductions by one
        cluster (its rounding stream runs on) lands nearer the float64
        reduction than round-to-nearest's fixed bias."""
        model, batch = _wire_problem()

        def flat(grads):
            return np.concatenate([g.ravel() for g in grads])

        exact = flat(_wire_cluster(model).gradient_step(batch)[1])
        nearest = flat(_wire_cluster(model, wire_dtype="fp16").gradient_step(batch)[1])
        cluster = _wire_cluster(model, wire_dtype="fp16", stochastic_rounding=True)
        mean = np.mean(
            [flat(cluster.gradient_step(batch)[1]) for _ in range(8)], axis=0
        )
        assert np.abs(mean - exact).mean() < np.abs(nearest - exact).mean()

    def test_pack_guard_names_offending_parameter(self):
        p = Parameter(np.zeros((2, 2)))
        buckets = GradientBuckets([p], names=["layer.weight"])
        with pytest.raises(TypeError, match="layer.weight"):
            buckets.pack([np.zeros((2, 2), dtype=np.float32)])

    def test_sim_fp16_wire_parity_on_uneven_shards(self):
        # 10 examples over 4 workers: shards of 3/3/2/2
        train, _ = make_sequential_mnist(10, 8, rng=1, size=8)
        batch = (train.inputs, train.targets)

        ref = tiny_model_factory()
        ref.zero_grad()
        ref.loss(batch).backward()

        model = tiny_model_factory()
        cluster = SimCluster(
            list(model.parameters()), model.loss, 4,
            bucket_mb=0.001, wire_dtype="fp16",
        )
        cluster.gradient_step(batch)
        for (name, a), b in zip(ref.named_parameters(), model.parameters()):
            scale = max(float(np.abs(a.grad).max()), 1e-12)
            err = float(np.abs(a.grad - b.grad).max())
            assert err <= 5e-3 * scale, (name, err / scale)

    @pytest.mark.slow
    def test_mp_fp16_wire_matches_sim(self):
        train, _ = make_sequential_mnist(10, 8, rng=1, size=8)
        batch = (train.inputs, train.targets)

        sim_model = tiny_model_factory()
        sim = SimCluster(
            list(sim_model.parameters()), sim_model.loss, 3,
            wire_dtype="fp16",
        )
        sim.gradient_step(batch)

        mp_model = tiny_model_factory()
        with MultiprocessCluster(
            tiny_model_factory, n_workers=3, wire_dtype="fp16"
        ) as cluster:
            cluster.gradient_step(mp_model, batch)
        for (name, a), b in zip(
            sim_model.named_parameters(), mp_model.parameters()
        ):
            assert np.allclose(a.grad, b.grad, atol=1e-12), name

    def test_stochastic_rounding_requires_fp16(self):
        p = Parameter(np.zeros(4))
        with pytest.raises(ValueError):
            GradientBuckets([p], wire_dtype="bf16", stochastic_rounding=True)
        with pytest.raises(ValueError):
            SimCluster(
                [p], lambda b: Tensor(np.zeros(())), 2,
                wire_dtype="bf16", stochastic_rounding=True,
            )


# -- int8 post-training quantization ----------------------------------------


class TestInt8Serving:
    def make_engines(self):
        model = MnistLSTMClassifier(
            rng=0, input_dim=28, transform_dim=32, hidden=32
        )
        return (
            model,
            InferenceEngine(model, "mnist"),
            InferenceEngine(model, "mnist", quantize="int8"),
        )

    def test_labels_agree_with_full_precision(self):
        _, full, quant = self.make_engines()
        rng = np.random.default_rng(1)
        images = rng.standard_normal((64, 28, 28))
        full_labels = [r["label"] for r in full.classify(images)]
        quant_labels = [r["label"] for r in quant.classify(images)]
        assert full_labels == quant_labels

    def test_quantize_int8_reconstruction_bound(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal((16, 8))
        q, scales = quantize_int8(w, axis=0)
        assert q.dtype == np.int8 and scales.shape == (1, 8)
        # symmetric rounding error is at most half a step per channel
        err = np.abs(w - q.astype(np.float64) * scales)
        assert np.all(err <= 0.5 * scales + 1e-12)

    def test_zero_channel_gets_unit_scale(self):
        w = np.zeros((4, 2))
        w[:, 1] = 3.0
        q, scales = quantize_int8(w, axis=0)
        assert scales[0, 0] == 1.0
        assert np.all(q[:, 0] == 0)

    def test_engine_validation(self):
        model = MnistLSTMClassifier(
            rng=0, input_dim=28, transform_dim=32, hidden=32
        )
        with pytest.raises(ValueError):
            InferenceEngine(model, "mnist", quantize="int4")
        with pytest.raises(ValueError):
            InferenceEngine(model, "ptb", quantize="int8")

    def test_hot_swap_requantizes(self):
        model, _, quant = self.make_engines()
        rng = np.random.default_rng(3)
        images = rng.standard_normal((8, 28, 28))
        before = np.stack(
            [r["logits"] for r in quant.classify(images)]
        )
        other = MnistLSTMClassifier(
            rng=7, input_dim=28, transform_dim=32, hidden=32
        )
        state = {n: p.data.copy() for n, p in other.named_parameters()}
        quant.swap_state(state, version=2)
        after = np.stack([r["logits"] for r in quant.classify(images)])
        assert not np.allclose(before, after)
        fresh = InferenceEngine(other, "mnist", quantize="int8")
        expected = np.stack(
            [r["logits"] for r in fresh.classify(images)]
        )
        assert np.allclose(after, expected)

    def test_runner_rejects_wrong_architecture(self):
        with pytest.raises(ValueError, match="missing"):
            QuantizedMnistRunner(Linear(4, 3, rng=0))
