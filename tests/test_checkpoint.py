"""Checkpointing: bit-exact resume of model + optimizer state."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import BatchIterator, make_sequential_mnist
from repro.models import MnistLSTMClassifier
from repro.optim import Adam, Momentum
from repro.schedules import ConstantLR
from repro.train import Trainer
from repro.utils import load_checkpoint, save_checkpoint


def make_model():
    return MnistLSTMClassifier(rng=3, input_dim=8, transform_dim=8, hidden=8)


@pytest.fixture
def mnist_small():
    train, _ = make_sequential_mnist(32, 8, rng=0, size=8)
    return train


class TestCheckpoint:
    def test_model_roundtrip(self, tmp_path, mnist_small):
        model = make_model()
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, model, iteration=42)
        other = make_model()
        other.transform.weight.data[:] = 0.0
        it = load_checkpoint(path, other)
        assert it == 42
        for a, b in zip(model.parameters(), other.parameters()):
            assert np.array_equal(a.data, b.data)

    def test_resume_equals_uninterrupted_run(self, tmp_path, mnist_small):
        """Train 4 epochs straight vs 2 + checkpoint + resume + 2."""
        train = mnist_small
        sched = ConstantLR(0.05)

        straight = make_model()
        opt_s = Adam(straight, lr=0.05)
        it_s = BatchIterator(train, 8, rng=1, shuffle=False)
        Trainer(straight.loss, opt_s, sched, it_s).run(4)

        first = make_model()
        opt_f = Adam(first, lr=0.05)
        it_f = BatchIterator(train, 8, rng=1, shuffle=False)
        Trainer(first.loss, opt_f, sched, it_f).run(2)
        path = tmp_path / "mid.npz"
        save_checkpoint(path, first, opt_f, iteration=8)

        resumed = make_model()
        opt_r = Adam(resumed, lr=0.05)
        saved_iter = load_checkpoint(path, resumed, opt_r)
        assert saved_iter == 8
        assert opt_r.iteration == opt_f.iteration  # Adam bias correction state
        it_r = BatchIterator(train, 8, rng=1, shuffle=False)
        Trainer(resumed.loss, opt_r, sched, it_r).run(2)

        for (name, a), (_, b) in zip(
            straight.named_parameters(), resumed.named_parameters()
        ):
            assert np.allclose(a.data, b.data, atol=1e-12), name

    def test_momentum_velocity_restored(self, tmp_path, mnist_small):
        train = mnist_small
        model = make_model()
        opt = Momentum(model, lr=0.1)
        batch = (train.inputs[:8], train.targets[:8])
        model.zero_grad()
        model.loss(batch).backward()
        opt.step()
        path = tmp_path / "m.npz"
        save_checkpoint(path, model, opt)
        fresh_opt = Momentum(model, lr=0.1)
        load_checkpoint(path, model, fresh_opt)
        for name in opt.state:
            assert np.array_equal(opt.state[name]["v"], fresh_opt.state[name]["v"])

    def test_architecture_mismatch_rejected(self, tmp_path):
        big = MnistLSTMClassifier(rng=0, input_dim=8, transform_dim=16, hidden=8)
        path = tmp_path / "x.npz"
        save_checkpoint(path, big)
        small = make_model()
        with pytest.raises(ValueError):
            load_checkpoint(path, small)

    def test_without_optimizer(self, tmp_path):
        model = make_model()
        path = tmp_path / "noopt.npz"
        save_checkpoint(path, model)
        assert load_checkpoint(path, make_model()) == 0


class TestHardenedCheckpoint:
    def test_corruption_detected_by_checksum(self, tmp_path):
        from repro.utils import CheckpointCorruptError

        model = make_model()
        path = tmp_path / "c.npz"
        save_checkpoint(path, model, iteration=1)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF  # flip one byte mid-archive
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(path, make_model())

    def test_unreadable_file_reported_as_corrupt(self, tmp_path):
        from repro.utils import CheckpointCorruptError

        path = tmp_path / "junk.npz"
        path.write_bytes(b"not an archive")
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(path, make_model())

    def test_atomic_save_leaves_no_temp_files(self, tmp_path):
        model = make_model()
        save_checkpoint(tmp_path / "a.npz", model)
        assert [p.name for p in tmp_path.iterdir()] == ["a.npz"]

    def test_optimizer_lr_and_rng_roundtrip(self, tmp_path, mnist_small):
        model = make_model()
        opt = Momentum(model, lr=0.1)
        opt.lr = 0.025  # mutated mid-run (schedules do this every step)
        rng = np.random.default_rng(5)
        rng.random(17)  # advance the stream
        path = tmp_path / "full.npz"
        save_checkpoint(path, model, opt, iteration=9, rng=rng)
        probe = rng.random(4)

        fresh_opt = Momentum(make_model(), lr=0.1)
        fresh_rng = np.random.default_rng(5)
        other = make_model()
        load_checkpoint(path, other, fresh_opt, rng=fresh_rng)
        assert fresh_opt.lr == 0.025
        assert np.array_equal(fresh_rng.random(4), probe)  # bit-exact stream

    def test_scaler_roundtrip(self, tmp_path, mnist_small):
        from repro.optim import DynamicLossScaler

        model = make_model()
        scaler = DynamicLossScaler(initial_scale=32.0)
        scaler.scale = 4.0
        scaler.steps_skipped = 3
        path = tmp_path / "se.npz"
        save_checkpoint(path, model, loss_scaler=scaler)

        other = make_model()
        other_scaler = DynamicLossScaler()
        load_checkpoint(path, other, loss_scaler=other_scaler)
        assert other_scaler.scale == 4.0
        assert other_scaler.steps_skipped == 3

    def test_extra_scalars_roundtrip(self, tmp_path):
        from repro.utils import read_checkpoint_extra

        model = make_model()
        path = tmp_path / "e.npz"
        save_checkpoint(path, model, extra={"epoch": 7.0, "lr_scale": 0.5})
        extra = read_checkpoint_extra(path)
        assert extra == {"epoch": 7.0, "lr_scale": 0.5}


class TestCheckpointManager:
    def test_retention_keeps_newest_k(self, tmp_path):
        from repro.utils import CheckpointManager

        model = make_model()
        mgr = CheckpointManager(tmp_path, keep_last=2)
        for step in (1, 2, 3, 4):
            mgr.save(model, iteration=step)
        names = [p.name for p in mgr.checkpoints()]
        assert names == ["ckpt_0000000003.npz", "ckpt_0000000004.npz"]
        assert mgr.latest().name == "ckpt_0000000004.npz"

    def test_load_latest_skips_corrupt_newest(self, tmp_path):
        from repro.utils import CheckpointManager

        model = make_model()
        mgr = CheckpointManager(tmp_path, keep_last=None)
        mgr.save(model, iteration=1)
        good = model.transform.weight.data.copy()
        model.transform.weight.data[:] = 9.0
        newest = mgr.save(model, iteration=2)
        newest.write_bytes(b"truncated garbage")

        other = make_model()
        loaded = CheckpointManager(tmp_path).load_latest(other)
        assert loaded is not None
        iteration, path = loaded
        assert iteration == 1
        assert np.array_equal(other.transform.weight.data, good)

    def test_load_latest_empty_directory(self, tmp_path):
        from repro.utils import CheckpointManager

        assert CheckpointManager(tmp_path).load_latest(make_model()) is None


class TestSnapshotVersions:
    """latest() + step_of(): the serving hot-swap's staleness probe."""

    def test_step_of_parses_manager_names(self, tmp_path):
        from repro.utils import CheckpointManager

        mgr = CheckpointManager(tmp_path)
        assert CheckpointManager.step_of(mgr.path_for(42)) == 42
        assert CheckpointManager.step_of("ckpt_0000000007.npz") == 7
        assert CheckpointManager.step_of("hand_named.npz") is None

    def test_latest_tracks_saves(self, tmp_path):
        from repro.utils import CheckpointManager

        mgr = CheckpointManager(tmp_path, keep_last=2)
        assert mgr.latest() is None
        model = make_model()
        for step in (3, 8, 21):
            mgr.save(model, iteration=step, step=step)
            assert CheckpointManager.step_of(mgr.latest()) == step
        # retention pruned older files but the newest step survives
        assert [CheckpointManager.step_of(p) for p in mgr.checkpoints()] == [8, 21]

    def test_concurrent_writer_never_tears_a_read(self, tmp_path):
        """A trainer saving while a server polls and loads: atomic
        ``os.replace`` means every load sees a complete archive."""
        import threading

        from repro.utils import CheckpointManager

        mgr = CheckpointManager(tmp_path, keep_last=None)
        writer_model = make_model()
        # each step writes recognisably distinct weights
        saved_states: dict[int, np.ndarray] = {}
        n_steps = 20

        def writer():
            for step in range(1, n_steps + 1):
                writer_model.transform.weight.data[:] = float(step)
                saved_states[step] = writer_model.transform.weight.data.copy()
                mgr.save(writer_model, iteration=step, step=step)

        stop = threading.Event()
        observed: list[int] = []
        errors: list[BaseException] = []

        def reader():
            reader_mgr = CheckpointManager(tmp_path, keep_last=None)
            reader_model = make_model()
            try:
                while not stop.is_set():
                    if reader_mgr.latest() is None:
                        continue
                    loaded = reader_mgr.load_latest(reader_model)
                    if loaded is None:
                        continue
                    iteration, _ = loaded
                    observed.append(iteration)
                    # a loaded state is exactly one that was saved, never
                    # a torn mix of two saves
                    assert np.array_equal(
                        reader_model.transform.weight.data,
                        saved_states[iteration],
                    )
            except BaseException as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        w = threading.Thread(target=writer)
        r = threading.Thread(target=reader)
        r.start()
        w.start()
        w.join()
        stop.set()
        r.join()
        assert not errors, errors[0]
        assert observed, "reader never completed a load"
        # the reader's view only moves forward: each poll lists at least
        # the files the previous poll saw
        assert observed == sorted(observed)
        assert observed[-1] <= n_steps
