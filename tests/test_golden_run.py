"""Golden-run regression: a 30-step MNIST-LSTM training trajectory.

The fixture ``tests/fixtures/golden_mnist_lstm.json`` pins the loss and
global-gradient-norm series of a small, fully-seeded MNIST-shaped LSTM
classifier run.  Both engine paths — reference graphs and fused kernels —
must reproduce the committed series, which catches two failure classes at
once:

* a change to either path that silently alters training dynamics (the
  classic "still converges, but differently" bug that per-op unit tests
  miss), and
* fused/reference drift beyond round-off accumulation.

Regenerate after an *intentional* change with::

    PYTHONPATH=src python tests/test_golden_run.py --regen

(regeneration always uses the reference path).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.nn import LSTM, Linear
from repro.nn.module import Module
from repro.optim.sgd import Momentum
from repro.tensor import Tensor, cross_entropy, fused_kernels
from repro.utils.rng import spawn

FIXTURE = Path(__file__).parent / "fixtures" / "golden_mnist_lstm.json"

# small MNIST-shaped stand-in: 8x8 "images" as 8-step rows, 10 classes
SEQ_LEN, INPUT, HIDDEN, CLASSES = 8, 8, 12, 10
BATCH, STEPS, LR, SEED = 16, 30, 0.05, 1234


class _TinyMNISTLSTM(Module):
    def __init__(self, rng):
        super().__init__()
        r1, r2 = spawn(rng, 2)
        self.lstm = LSTM(INPUT, HIDDEN, num_layers=1, rng=r1)
        self.head = Linear(HIDDEN, CLASSES, r2)

    def forward(self, x):
        out, _ = self.lstm(x)
        return self.head(out[-1])


def _run_golden() -> dict:
    """Train 30 steps on seeded synthetic data; return the trajectory."""
    data_rng = np.random.default_rng(SEED)
    model = _TinyMNISTLSTM(np.random.default_rng(SEED + 1))
    opt = Momentum(model.named_parameters(), lr=LR)
    losses, grad_norms = [], []
    for _ in range(STEPS):
        x = data_rng.standard_normal((SEQ_LEN, BATCH, INPUT))
        y = data_rng.integers(0, CLASSES, size=BATCH)
        opt.zero_grad()
        loss = cross_entropy(model(Tensor(x)), y)
        loss.backward()
        sq = 0.0
        for _, p in model.named_parameters():
            sq += float((p.grad**2).sum())
        losses.append(float(loss.data))
        grad_norms.append(float(np.sqrt(sq)))
        opt.step()
    return {
        "config": {
            "seq_len": SEQ_LEN, "input": INPUT, "hidden": HIDDEN,
            "classes": CLASSES, "batch": BATCH, "steps": STEPS,
            "lr": LR, "seed": SEED,
        },
        "loss": losses,
        "grad_norm": grad_norms,
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    if not FIXTURE.exists():  # pragma: no cover - regen instructions
        pytest.fail(
            f"missing fixture {FIXTURE}; regenerate with "
            "`PYTHONPATH=src python tests/test_golden_run.py --regen`"
        )
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("fused_flag", [False, True], ids=["reference", "fused"])
def test_trajectory_matches_fixture(golden, fused_flag):
    with fused_kernels(fused_flag):
        got = _run_golden()
    assert got["config"] == golden["config"]
    np.testing.assert_allclose(
        got["loss"], golden["loss"], rtol=1e-6, atol=1e-9,
        err_msg="loss series drifted from the golden run",
    )
    np.testing.assert_allclose(
        got["grad_norm"], golden["grad_norm"], rtol=1e-6, atol=1e-9,
        err_msg="grad-norm series drifted from the golden run",
    )


def test_paths_agree_with_each_other():
    """Tighter bound than the fixture: the two engines side by side."""
    with fused_kernels(False):
        ref = _run_golden()
    with fused_kernels(True):
        fus = _run_golden()
    np.testing.assert_allclose(ref["loss"], fus["loss"], rtol=1e-9)
    np.testing.assert_allclose(ref["grad_norm"], fus["grad_norm"], rtol=1e-9)


def test_state_dicts_interchangeable():
    """A checkpoint written on one path loads and continues on the other."""
    with fused_kernels(True):
        m1 = _TinyMNISTLSTM(np.random.default_rng(7))
        sd = m1.state_dict()
    with fused_kernels(False):
        m2 = _TinyMNISTLSTM(np.random.default_rng(8))
        m2.load_state_dict(sd)
    for (n1, p1), (n2, p2) in zip(
        m1.named_parameters(), m2.named_parameters()
    ):
        assert n1 == n2
        assert np.array_equal(p1.data, p2.data)


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        FIXTURE.parent.mkdir(parents=True, exist_ok=True)
        with fused_kernels(False):
            data = _run_golden()
        FIXTURE.write_text(json.dumps(data, indent=2) + "\n")
        print(f"wrote {FIXTURE}")
    else:
        print(__doc__)
