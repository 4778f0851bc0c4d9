"""Hypothesis property tests for the cost/performance models."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from repro.parallel import (
    CommModel,
    DeviceModel,
    epoch_time,
    naive_time,
    ring_time,
    speedup,
    tree_time,
)

pos_float = st.floats(1e-6, 1e6, allow_nan=False, allow_infinity=False)
bytes_st = st.floats(1.0, 1e10)
workers = st.integers(1, 4096)


@settings(max_examples=60, deadline=None)
@given(bytes_st, workers, pos_float, pos_float)
def test_allreduce_costs_nonnegative_and_ordered(nbytes, p, alpha, beta):
    m = CommModel(alpha=alpha, beta=beta)
    r, t, n = ring_time(nbytes, p, m), tree_time(nbytes, p, m), naive_time(nbytes, p, m)
    assert r >= 0 and t >= 0 and n >= 0
    # naive is never cheaper than ring (same latency term, worse bandwidth)
    assert r <= n + 1e-9


@settings(max_examples=60, deadline=None)
@given(bytes_st, st.integers(2, 2048), pos_float)
def test_ring_bandwidth_term_bounded_by_2n_beta(nbytes, p, beta):
    m = CommModel(alpha=0.0, beta=beta)
    assert ring_time(nbytes, p, m) <= 2.0 * nbytes * beta + 1e-9


@settings(max_examples=60, deadline=None)
@given(pos_float, pos_float, st.integers(1, 1 << 15), st.integers(1, 64))
def test_speedup_at_least_one_and_bounded_by_k(t_fixed, t_sample, base, k):
    model = DeviceModel(t_fixed=t_fixed, t_sample=t_sample)
    s = speedup(model, base, base * k)
    assert 1.0 - 1e-9 <= s <= k + 1e-9


@settings(max_examples=60, deadline=None)
@given(pos_float, pos_float, st.integers(1, 1 << 12), st.integers(1, 6))
def test_speedup_monotone_in_batch(t_fixed, t_sample, base, doublings):
    model = DeviceModel(t_fixed=t_fixed, t_sample=t_sample)
    values = [speedup(model, base, base * 2**j) for j in range(doublings + 1)]
    assert all(a <= b + 1e-9 for a, b in zip(values, values[1:]))


@settings(max_examples=40, deadline=None)
@given(st.integers(100, 100_000), st.integers(1, 512), pos_float, pos_float)
def test_epoch_time_positive_and_follows_iteration_law(n, batch, tf, ts):
    assume(batch <= n)
    model = DeviceModel(t_fixed=tf, t_sample=ts)
    one = epoch_time(model, n, batch)
    assert one > 0
    assert np.isclose(one, math.ceil(n / batch) * model.iteration_time(batch))
