"""Command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


def _final_metrics(path) -> dict:
    """name -> value of a metrics JSONL's snapshot lines."""
    lines = [json.loads(line) for line in open(path)]
    return {l["name"]: l.get("value") for l in lines if "name" in l}


class TestList:
    def test_lists_experiments_and_workloads(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table2" in out and "figure1" in out
        assert "mnist" in out and "gnmt" in out


class TestExperiment:
    def test_runs_analytic_driver(self, capsys):
        assert main(["experiment", "figure4"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out and "gnmt" in out

    def test_json_output_parses(self, capsys):
        assert main(["experiment", "figure4", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert pytest.approx(payload["average"], abs=0.3) == 5.3

    def test_chart_renders_series(self, capsys):
        assert main(["experiment", "ablation_allreduce", "--chart"]) == 0
        out = capsys.readouterr().out
        assert "series view" in out and "=ring" in out

    def test_chart_on_seriesless_driver_warns(self, capsys):
        assert main(["experiment", "table1", "--chart"]) == 0
        err = capsys.readouterr().err
        assert "no chartable series" in err

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "figure99"])

    @pytest.mark.parametrize(
        "argv",
        [["experiment", "figure4", "--no-fused", "--amp"],
         ["train", "mnist", "--no-fused", "--amp", "--resume"]],
        ids=["experiment", "refused-train"],
    )
    def test_engine_switches_are_restored_on_exit(self, capsys, argv):
        from repro.tensor import amp_enabled, fused_enabled, fused_kernels
        from repro.tensor.amp import mixed_precision

        with fused_kernels(True), mixed_precision(False):
            main(argv)
            assert fused_enabled() and not amp_enabled()
        capsys.readouterr()


class TestTrain:
    @pytest.mark.slow
    def test_trains_mnist_legw(self, capsys):
        code = main(
            ["train", "mnist", "--batch", "64", "--epochs", "3", "--seed", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "LEGW" in out and "accuracy" in out

    @pytest.mark.slow
    def test_trains_with_scaling_rule(self, capsys):
        code = main(
            [
                "train", "mnist", "--schedule", "sqrt", "--batch", "64",
                "--warmup-epochs", "1", "--epochs", "3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "sqrt scaling" in out

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["train", "cifar"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            main([])


class TestTrainResilience:
    def test_resume_requires_checkpoint_dir(self, capsys):
        assert main(["train", "mnist", "--resume"]) == 2
        assert "resume requires checkpoint_dir" in capsys.readouterr().err

    def test_fault_rate_requires_checkpoint_dir(self, capsys):
        assert main(["train", "mnist", "--fault-rate", "0.1"]) == 2
        assert "fault_rate requires checkpoint_dir" in capsys.readouterr().err

    @pytest.mark.slow
    def test_checkpointed_train_and_resume(self, capsys, tmp_path):
        ckpt = str(tmp_path / "ckpts")
        code = main(
            ["train", "mnist", "--batch", "64", "--epochs", "1",
             "--checkpoint-dir", ckpt]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "resilience:" in out and "checkpoints in" in out
        # a second process picks the run up where it stopped
        code = main(
            ["train", "mnist", "--batch", "64", "--epochs", "2",
             "--checkpoint-dir", ckpt, "--resume"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "accuracy" in out

    @pytest.mark.slow
    def test_fault_injection_reports_counters(self, capsys, tmp_path):
        code = main(
            ["train", "mnist", "--batch", "64", "--epochs", "2",
             "--checkpoint-dir", str(tmp_path / "f"), "--fault-rate", "0.05",
             "--max-recoveries", "20"]
        )
        out = capsys.readouterr().out
        assert code == 0  # generous budget: injected faults never end the run
        line = next(l for l in out.splitlines() if l.startswith("resilience:"))
        faults = int(line.split()[1])
        assert faults >= 1  # p=0.05 per step is seeded; this run does fault


class TestTrainParallel:
    def test_workers_rejects_nonpositive(self, capsys):
        assert main(["train", "mnist", "--workers", "0"]) == 2
        assert "workers must be >= 1" in capsys.readouterr().err

    def test_workers_with_checkpoint_dir_runs_on_sim_backend(
        self, capsys, tmp_path
    ):
        code = main(
            ["train", "mnist", "--batch", "64", "--epochs", "1",
             "--workers", "2", "--checkpoint-dir", str(tmp_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "parallel: 2 workers (sim)" in out and "resilience:" in out

    @pytest.mark.parametrize(
        "flags, reason",
        [(["--wire-dtype", "fp16"], "require workers"),
         (["--workers", "2", "--stochastic-rounding"],
          "requires wire_dtype fp16"),
         (["--workers", "2", "--wire-dtype", "fp16", "--stochastic-rounding",
           "--checkpoint-dir", "x"], "rounding stream is not checkpointed"),
         (["--workers", "2", "--amp"], "compress the wire with wire_dtype"),
         (["--adaptive-batch", "--noise-every", "0"],
          "noise_every must be >= 1")],
        ids=["wire-without-workers", "stochastic-without-fp16",
             "stochastic-checkpointed", "amp-workers",
             "adaptive-noise-every-0"],
    )
    def test_refusal_prints_the_validator_reason(self, capsys, flags, reason):
        assert main(["train", "mnist", *flags]) == 2
        assert reason in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [["--checkpoint-dir", "ckpt", "--parallel-backend", "mp"],
         ["--adaptive-batch"]],
        ids=["checkpoint-mp", "adaptive"],
    )
    def test_reduction_flags_reach_every_policy(self, capsys, tmp_path, flags):
        metrics = tmp_path / "m.jsonl"
        flags = [str(tmp_path / f) if f == "ckpt" else f for f in flags]
        code = main(
            ["train", "mnist", "--epochs", "1", "--workers", "2",
             "--allreduce-algo", "tree", "--bucket-mb", "0.01",
             "--metrics-out", str(metrics), *flags]
        )
        capsys.readouterr()
        assert code == 0
        final = _final_metrics(metrics)
        assert "allreduce/ring/calls" not in final
        # 0.01 MiB buckets split every step's reduction into several
        steps = final["train/iterations"]
        assert final["allreduce/tree/calls"] == final["parallel/buckets/reduced"]
        assert final["parallel/buckets/reduced"] > steps

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            main(["train", "mnist", "--workers", "2", "--allreduce-algo", "mesh"])

    @pytest.mark.slow
    def test_parallel_train_runs_and_reports(self, capsys, tmp_path):
        metrics = str(tmp_path / "metrics.jsonl")
        code = main(
            ["train", "mnist", "--batch", "64", "--epochs", "2",
             "--workers", "3", "--allreduce-algo", "tree",
             "--bucket-mb", "0.01", "--metrics-out", metrics]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "parallel: 3 workers (sim), tree all-reduce" in out
        names = [json.loads(l)["name"] for l in open(metrics)]
        assert "allreduce/tree/calls" in names
        assert "parallel/buckets/reduced" in names
        assert "parallel/overlap/fraction" in names

    @pytest.mark.slow
    def test_parallel_matches_single_process(self, capsys):
        """--workers is numerically transparent: same final accuracy."""
        args = ["train", "mnist", "--batch", "64", "--epochs", "2",
                "--seed", "3"]
        assert main(args) == 0
        single = capsys.readouterr().out
        assert main(args + ["--workers", "4"]) == 0
        parallel = capsys.readouterr().out
        pick = lambda out: next(  # noqa: E731
            l for l in out.splitlines() if "accuracy" in l
        )
        assert pick(single) == pick(parallel)

    @pytest.mark.slow
    def test_monolithic_bucket_mb_zero(self, capsys):
        code = main(
            ["train", "mnist", "--batch", "64", "--epochs", "1",
             "--workers", "2", "--bucket-mb", "0"]
        )
        assert code == 0
        assert "parallel: 2 workers" in capsys.readouterr().out

    def test_compressed_wire_with_bucket_mb_zero(self, capsys, tmp_path):
        """``--bucket-mb 0`` is one bucket a step, and it compresses too."""
        metrics = tmp_path / "m.jsonl"
        code = main(
            ["train", "mnist", "--batch", "64", "--epochs", "1",
             "--workers", "2", "--wire-dtype", "fp16", "--bucket-mb", "0",
             "--metrics-out", str(metrics)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "fp16 wire" in out
        final = _final_metrics(metrics)
        assert final["parallel/buckets/reduced"] == final["train/iterations"]


class TestAdaptiveBatch:
    def test_tuning_flags_require_adaptive_batch(self, capsys):
        for flag, value in (
            ("--noise-every", "8"),
            ("--target-ratio", "2.0"),
            ("--max-batch", "128"),
        ):
            assert main(["train", "mnist", flag, value]) == 2
            assert "require adaptive_batch" in capsys.readouterr().err

    def test_adaptive_owns_the_batch_size(self, capsys):
        assert main(
            ["train", "mnist", "--adaptive-batch", "--batch", "64"]
        ) == 2
        assert "owns the batch size" in capsys.readouterr().err

    def test_adaptive_rejects_fault_injection(self, capsys, tmp_path):
        assert main(
            ["train", "mnist", "--adaptive-batch", "--fault-rate", "0.1",
             "--checkpoint-dir", str(tmp_path)]
        ) == 2
        assert "has no rollback" in capsys.readouterr().err

    def test_adaptive_requires_legw_schedule(self, capsys):
        assert main(
            ["train", "mnist", "--adaptive-batch", "--schedule", "sqrt"]
        ) == 2
        assert "LEGW schedule" in capsys.readouterr().err

    def test_adaptive_samples_metrics_every_n(self, capsys, tmp_path):
        metrics = tmp_path / "m.jsonl"
        code = main(
            ["train", "mnist", "--adaptive-batch", "--epochs", "1",
             "--metrics-every", "4", "--metrics-out", str(metrics)]
        )
        capsys.readouterr()
        assert code == 0
        lines = [json.loads(line) for line in open(metrics)]
        # one epoch at the base batch: 64 steps, a sample every 4
        assert sum(l.get("type") == "sample" for l in lines) == 16

    @pytest.mark.slow
    def test_adaptive_train_reports_trajectory(self, capsys):
        code = main(
            ["train", "mnist", "--adaptive-batch", "--epochs", "3",
             "--noise-every", "8", "--target-ratio", "4.0", "--seed", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "adaptive batch" in out and "trajectory" in out


class TestServeBench:
    def test_closed_loop_fresh_model(self, capsys):
        code = main(
            ["serve-bench", "mnist", "--mode", "closed", "--clients", "2",
             "--requests-per-client", "3"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "serving mnist" in out and "fresh model" in out
        assert "closed-loop: 6/6 served" in out

    def test_open_loop_reports_percentiles(self, capsys):
        code = main(
            ["serve-bench", "mnist", "--arrival-rate", "100",
             "--duration", "0.15"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "open-loop:" in out and "p95" in out
        assert "shed: 0" in out

    def test_snapshot_directory_reports_version(self, capsys, tmp_path):
        from repro.experiments import build_workload
        from repro.utils import CheckpointManager

        wl = build_workload("mnist", "smoke")
        CheckpointManager(tmp_path).save(wl.make_model(0), iteration=5, step=5)
        code = main(
            ["serve-bench", "mnist", "--snapshot", str(tmp_path),
             "--mode", "closed", "--clients", "1",
             "--requests-per-client", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "version 5" in out

    def test_gnmt_head_serves_variable_lengths(self, capsys):
        code = main(
            ["serve-bench", "gnmt", "--mode", "closed", "--clients", "2",
             "--requests-per-client", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "serving gnmt (gnmt head" in out
        assert "4/4 served" in out

    @pytest.mark.parametrize(
        "flags, switch, expected",
        [([], True, True), ([], False, False),
         (["--fused"], False, True), (["--no-fused"], True, False)],
    )
    def test_engine_follows_the_fused_switch(
        self, capsys, flags, switch, expected
    ):
        """No flag means the REPRO_FUSED setting, as for ``train``; the ops
        the served forwards built show which engine path ran."""
        from repro.obs import OpProfiler
        from repro.tensor import fused_kernels

        profiler = OpProfiler()
        with fused_kernels(switch), profiler.attached_to_engine():
            code = main(
                ["serve-bench", "mnist", "--mode", "closed", "--clients", "1",
                 "--requests-per-client", "1", *flags]
            )
        capsys.readouterr()
        assert code == 0
        assert any(op.startswith("fused_") for op in profiler.forward) == expected

    def test_resnet_has_no_serving_head(self):
        with pytest.raises(SystemExit):
            main(["serve-bench", "resnet"])
