"""Utilities: RNG plumbing, tables, run logs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils import RunLog, Table, as_generator, spawn


class TestRng:
    def test_int_seed_deterministic(self):
        assert as_generator(5).random() == as_generator(5).random()

    def test_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert as_generator(g) is g

    def test_spawn_children_independent_and_stable(self):
        a1, b1 = spawn(7, 2)
        a2, b2 = spawn(7, 2)
        assert a1.random() == a2.random()
        assert b1.random() == b2.random()
        assert a1.random() != b1.random()

    def test_spawn_prefix_stability(self):
        """Child i is unchanged when more children are spawned later."""
        first = spawn(3, 2)
        more = spawn(3, 5)
        assert first[0].random() == more[0].random()
        assert first[1].random() == more[1].random()


class TestTable:
    def test_render_contains_all_cells(self):
        t = Table("Title", ["a", "b"])
        t.add_row([1, 2.5])
        t.add_row(["x", 0.00012])
        out = t.render()
        assert "Title" in out and "1" in out and "2.5" in out and "x" in out

    def test_row_width_validated(self):
        t = Table("T", ["a", "b"])
        with pytest.raises(ValueError):
            t.add_row([1])

    def test_to_dicts(self):
        t = Table("T", ["a", "b"])
        t.add_row([1, 2])
        assert t.to_dicts() == [{"a": "1", "b": "2"}]

    def test_float_formatting_compact(self):
        t = Table("T", ["v"])
        t.add_row([123456.789])
        t.add_row([0.000004])
        rendered = t.render()
        assert "1.23e+05" in rendered and "4e-06" in rendered


class TestRunLog:
    def test_record_and_read(self):
        log = RunLog()
        log.record("loss", 0, 1.0)
        log.record("loss", 1, 0.5)
        assert log.steps("loss") == [0, 1]
        assert log.values("loss") == [1.0, 0.5]
