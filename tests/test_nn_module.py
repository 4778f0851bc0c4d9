"""Module system: traversal, state dicts, modes, containers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import BatchNorm2d, Linear, Module, ModuleList, Parameter
from repro.tensor import Tensor


class Tiny(Module):
    def __init__(self, rng=0):
        super().__init__()
        self.fc1 = Linear(3, 4, rng=rng)
        self.fc2 = Linear(4, 2, rng=rng)
        self.scale = Parameter([2.0])

    def forward(self, x):
        return self.fc2(self.fc1(x).relu()) * self.scale


class TestTraversal:
    def test_named_parameters_dotted(self):
        names = [n for n, _ in Tiny().named_parameters()]
        assert "fc1.weight" in names and "fc2.bias" in names and "scale" in names

    def test_parameters_count(self):
        m = Tiny()
        # fc1: 3*4 + 4; fc2: 4*2 + 2; scale: 1
        assert m.num_parameters() == 12 + 4 + 8 + 2 + 1

    def test_modules_preorder(self):
        m = Tiny()
        mods = list(m.modules())
        assert mods[0] is m and len(mods) == 3

    def test_module_list_traversal(self):
        ml = ModuleList([Linear(2, 2, rng=0), Linear(2, 2, rng=1)])
        names = [n for n, _ in ml.named_parameters()]
        assert "0.weight" in names and "1.bias" in names

    def test_module_list_len_getitem_append(self):
        ml = ModuleList()
        ml.append(Linear(2, 2, rng=0))
        assert len(ml) == 1 and isinstance(ml[0], Linear)

    def test_module_list_forward_raises(self):
        with pytest.raises(RuntimeError):
            ModuleList()(None)


class TestStateDict:
    def test_roundtrip(self, rng):
        a, b = Tiny(rng=1), Tiny(rng=2)
        state = a.state_dict()
        b.load_state_dict(state)
        x = rng.standard_normal((5, 3))
        assert np.allclose(a(Tensor(x)).data, b(Tensor(x)).data)

    def test_state_dict_is_a_copy(self):
        m = Tiny()
        state = m.state_dict()
        state["scale"][0] = 99.0
        assert m.scale.data[0] == 2.0

    def test_missing_key_raises(self):
        m = Tiny()
        state = m.state_dict()
        del state["scale"]
        with pytest.raises(KeyError):
            m.load_state_dict(state)

    def test_unexpected_key_raises(self):
        m = Tiny()
        state = m.state_dict()
        state["ghost"] = np.zeros(1)
        with pytest.raises(KeyError):
            m.load_state_dict(state)

    def test_shape_mismatch_raises(self):
        m = Tiny()
        state = m.state_dict()
        state["scale"] = np.zeros(3)
        with pytest.raises(ValueError):
            m.load_state_dict(state)


class TestModes:
    def test_train_eval_propagates(self):
        m = ModuleList([Linear(2, 2, rng=0), BatchNorm2d(2)])
        m.eval()
        assert all(not mod.training for mod in m.modules())
        m.train()
        assert all(mod.training for mod in m.modules())

    def test_zero_grad_clears(self, rng):
        m = Tiny()
        out = m(Tensor(rng.standard_normal((2, 3))))
        out.sum().backward()
        assert any(p.grad is not None for p in m.parameters())
        m.zero_grad()
        assert all(p.grad is None for p in m.parameters())

    def test_forward_abstract(self):
        with pytest.raises(NotImplementedError):
            Module()(1)


class TestTrainingFlagPropagation:
    """Serving depends on eval()/train() reaching every nested module:
    an eval-mode server with a training-mode BatchNorm buried three levels
    deep would normalise each served batch by its own statistics."""

    @staticmethod
    def _deep_model():
        class Inner(Module):
            def __init__(self):
                super().__init__()
                self.bn = BatchNorm2d(3)

            def forward(self, x):
                return self.bn(x)

        class Outer(Module):
            def __init__(self):
                super().__init__()
                self.stack = ModuleList([Inner(), Inner()])
                self.tail = ModuleList([Inner()])

            def forward(self, x):
                for inner in self.stack:
                    x = inner(x)
                return self.tail[0](x)

        return Outer()

    def test_flags_reach_every_descendant(self):
        model = self._deep_model()
        assert all(m.training for m in model.modules())
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())

    def test_round_trips_are_stable(self):
        model = self._deep_model()
        for _ in range(3):
            model.eval()
            model.train()
        assert all(m.training for m in model.modules())
        modes = [m.training for m in model.modules()]
        model.eval().train().eval()
        assert all(not m.training for m in model.modules())
        assert len(modes) == sum(1 for _ in model.modules())

    def test_batchnorm_uses_running_stats_in_eval(self, rng):
        from repro.nn import BatchNorm2d

        bn = BatchNorm2d(2)
        x = Tensor(rng.standard_normal((4, 2, 3, 3)) * 5.0 + 2.0)
        train_out = bn(x).data  # training: batch stats + EMA update
        bn.eval()
        eval_out = bn(x).data  # eval: frozen running estimates
        assert not np.allclose(train_out, eval_out)
        # eval mode must not move the running estimates
        mean_before = bn._buffer_running_mean.copy()
        bn(Tensor(rng.standard_normal((4, 2, 3, 3))))
        assert np.array_equal(bn._buffer_running_mean, mean_before)

    def test_eval_train_roundtrip_restores_behaviour(self, rng):
        # eval() then train() returns to batch-stat normalisation exactly
        from repro.nn import BatchNorm2d

        bn = BatchNorm2d(2)
        x = Tensor(rng.standard_normal((4, 2, 3, 3)))
        bn_twin = BatchNorm2d(2)
        ref = bn_twin(x).data
        bn.eval()
        bn.train()
        assert np.allclose(bn(x).data, ref)
