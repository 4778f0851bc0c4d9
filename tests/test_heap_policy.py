"""The heap policy (:mod:`repro.tensor.heap`): a training step that reuses
the shapes of the step before it faults in no new pages.

Under glibc's default allocator an MNIST-LSTM batch-128 step hands its
freed buffers back to the OS and faults them in again on the next step,
about 1,800 minor faults per step; with the policy it takes none.
"""

from __future__ import annotations

import platform
import resource

import pytest

from repro import tensor
from repro.experiments import build_workload
from repro.tensor import fused_kernels

pytestmark = pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc",
    reason="the heap policy is set through glibc's mallopt",
)


def test_policy_applied_on_glibc():
    assert tensor.HEAP_POLICY_APPLIED is True


def test_training_steps_fault_in_no_pages():
    # the train-mnist-dp shard shape: batch 128 of the smoke preset
    wl = build_workload("mnist", "smoke")
    model = wl.make_model(0)
    optimizer = wl.make_optimizer(model)
    batches = iter(wl.make_train_iter(128, 1))

    def step():
        optimizer.zero_grad()
        model.loss(next(batches)).backward()
        optimizer.step(lr=0.01)

    with fused_kernels(True):
        for _ in range(2):  # warm-up: the heap grows to the working set
            step()
        before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
        for _ in range(5):
            step()
        faults = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before
    assert faults <= 100, f"{faults} minor faults in 5 steps"
