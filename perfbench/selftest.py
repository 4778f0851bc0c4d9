"""Smoke self-test of the benchmark: every workload for a few steps.

    python3 perfbench/selftest.py

Runs each workload with ``--smoke`` (two epochs, or a few requests per
serving phase) untraced and traced, and asserts that the last line has the
contract's keys, that every metric is present with its unit, and that every
output check ran.  Smoke runs are too short to reach the quality targets,
so those checks run but may fail; the loss, reference-decode and
loss-parity checks must pass.  Takes about a minute on 2 cores.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

# checks that must pass even in a smoke run, per workload
MUST_PASS = {
    "train-ptb": ("budget_completed", "no_failed_steps"),
    "train-gnmt": ("budget_completed", "no_failed_steps"),
    "train-mnist-dp": ("budget_completed", "no_failed_steps"),
    "serve-gnmt": ("served_equal_reference", "bleu_target", "no_failed_requests"),
}
# quality-target checks run in a smoke run but cannot pass there
TARGET_CHECK = {
    "train-ptb": "perplexity_target",
    "train-gnmt": "bleu_target",
    "serve-gnmt": "bleu_target",
}


def run(workload: str, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=180,
    )
    lines = done.stdout.strip().splitlines()
    assert len(lines) >= 2, f"{workload}: no result\n{done.stderr[-2000:]}"
    result = json.loads(lines[-1])
    assert lines[-2].startswith("record "), lines[-2]
    record = json.loads(lines[-2][len("record "):])
    return result, record


def check(workload: str, trace: int) -> None:
    result, record = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    units = PER_LAYER if trace else END_TO_END
    assert set(result["metrics"]) == set(units), set(units) ^ set(result["metrics"])
    for name, unit in units.items():
        metric = result["metrics"][name]
        assert metric["unit"] == unit, (name, metric)
        assert isinstance(metric["value"], (int, float)), (name, metric)
    checks = record["checks"]
    prefixes = ("untraced.", "traced.") if trace else ("",)
    for prefix in prefixes:
        if workload in TARGET_CHECK:
            assert prefix + TARGET_CHECK[workload] in checks, (workload, checks)
        for name in MUST_PASS[workload]:
            assert checks.get(prefix + name) is True, (workload, name, checks)
    if trace:
        assert checks["trace_keeps_results"] is True, checks
        if workload == "train-mnist-dp":
            assert checks["losses_match_serial"] is True, checks
    for key in ("git_sha", "source_digest", "python", "numpy", "blas", "nproc",
                "started", "steal_share"):
        assert key in record, key
    print(f"ok  {workload} trace={trace}")


def main() -> None:
    for workload in WORKLOADS:
        for trace in (0, 1):
            check(workload, trace)


if __name__ == "__main__":
    main()
