"""The example scripts stay runnable (they are documentation that rots).

Each example is executed via runpy in-process.  The fast ones run in the
normal suite; the training-heavy ones carry the ``slow`` marker but still
run by default (the whole suite stays around a minute).
"""

from __future__ import annotations

import pathlib
import runpy
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def run_example(name: str, capsys) -> str:
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


class TestFastExamples:
    def test_data_parallel_cluster(self, capsys):
        out = run_example("data_parallel_cluster.py", capsys)
        assert "max parameter difference" in out
        assert "average" in out
        # the equivalence demo must report an (effectively) zero gap
        line = next(
            l for l in out.splitlines() if "max parameter difference" in l
        )
        assert "e-" in line  # scientific notation, tiny


@pytest.mark.slow
class TestTrainingExamples:
    def test_lipschitz_analysis(self, capsys):
        out = run_example("lipschitz_analysis.py", capsys)
        assert "peak at iteration" in out
        assert out.count("batch") >= 4

    def test_noise_scale(self, capsys):
        out = run_example("noise_scale_critical_batch.py", capsys)
        assert "B_noise" in out
        assert "noise-dominated" in out

    def test_resilient_training(self, capsys):
        out = run_example("resilient_training.py", capsys)
        # the acceptance bar: nonzero fault/recovery counters AND a final
        # accuracy matching the fault-free reference within noise
        assert "within noise" in out
        assert "resilience/recoveries" in out
        line = next(
            l for l in out.splitlines() if "worker faults detected" in l
        )
        assert int(line.split(":")[1].split()[0]) > 0
