import math
import re

import numpy as np
import pytest

from ringtrain.errors import StaleCacheError
from ringtrain.model import RealModel
from support import finite_difference_check, weight_checksum


def test_zero_weights_uniform_softmax_loss():
    model = RealModel([5, 10], seed=0)
    model.weights[0][:] = 0.0
    x = np.random.default_rng(0).normal(size=(7, 5)).astype(np.float32)
    y = np.arange(7) % 10
    loss, _ = model.forward(x, y)
    assert loss == pytest.approx(math.log(10.0), rel=1e-6)


def test_loss_mean_invariance_under_duplication():
    model = RealModel([4, 6, 3], seed=1)
    x = np.random.default_rng(1).normal(size=(1, 4)).astype(np.float32)
    y = np.array([2])
    loss_one, _ = model.forward(x, y)
    loss_two, _ = model.forward(np.vstack([x, x]), np.array([2, 2]))
    assert loss_two == pytest.approx(loss_one, rel=1e-6)


def test_forward_matches_straightline_recomputation():
    # independent oracle: the same arithmetic written out longhand in float64
    model = RealModel([4, 8, 3], seed=0)
    rng = np.random.default_rng(123)
    x = rng.normal(size=(6, 4)).astype(np.float32)
    y = np.array([0, 1, 2, 0, 1, 2])

    w0 = model.weights[0].astype(np.float64)
    w1 = model.weights[1].astype(np.float64)
    h = x.astype(np.float64) @ w0
    h = np.where(h > 0, h, 0.0)
    logits = h @ w1
    z = logits - logits.max(axis=1, keepdims=True)
    p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    expected = -np.log(p[np.arange(6), y]).mean()

    loss, _ = model.forward(x, y)
    assert loss == pytest.approx(expected, rel=1e-5)


def test_backward_matches_finite_differences():
    model = RealModel([6, 10, 4], seed=3)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(8, 6)).astype(np.float32)
    y = rng.integers(0, 4, size=8)
    assert finite_difference_check(model, x, y, step=1e-3) <= 1e-3


def test_mean_gradient_invariant_under_sample_duplication():
    model = RealModel([4, 5, 3], seed=4)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 4)).astype(np.float32)
    y = np.array([0, 1, 2])
    _, cache = model.forward(x, y)
    g1 = [g.copy() for g in model.backward(cache)]   # the next backward overwrites the views
    _, cache2 = model.forward(np.vstack([x, x]), np.concatenate([y, y]))
    g2 = model.backward(cache2)
    for a, b in zip(g1, g2):
        np.testing.assert_allclose(a, b, rtol=1e-5, atol=1e-7)


def test_backward_rejects_foreign_cache():
    m1 = RealModel([3, 2], seed=0)
    m2 = RealModel([3, 2], seed=0)
    x = np.zeros((1, 3), np.float32)
    _, cache = m1.forward(x, np.array([0]))
    with pytest.raises(StaleCacheError):
        m2.backward(cache)
    with pytest.raises(StaleCacheError):
        m1.backward(None)


def test_shape_errors():
    model = RealModel([3, 2], seed=0)
    with pytest.raises(ValueError):
        model.forward(np.zeros((2, 4), np.float32), np.array([0, 1]))
    with pytest.raises(ValueError):
        model.forward(np.zeros((2, 3), np.float32), np.array([0]))


@pytest.mark.parametrize("labels,message", [
    (np.full((2, 2), 0.5, np.float32), "got float32 with shape (2, 2)"),
    (np.array([0.0, 1.0]), "got float64 with shape (2,)"),
    (np.array([False, True]), "got bool with shape (2,)"),
    (np.zeros((2, 1), np.int64), "got int64 with shape (2, 1)"),
    (np.array([-1, 0]), "labels must lie in [0, 2), got -1"),
    (np.array([0, 2]), "labels must lie in [0, 2), got 2"),
], ids=["soft-targets", "float", "bool", "column", "negative", "past-the-last-class"])
def test_labels_must_be_a_1d_integer_array(labels, message):
    model = RealModel([3, 2], seed=0)
    with pytest.raises(ValueError, match=re.escape(message)):
        model.forward(np.zeros((2, 3), np.float32), labels)


class TestSgdUpdate:
    def test_zero_lr_keeps_weights(self):
        model = RealModel([3, 2], seed=5)
        before = [w.copy() for w in model.weights]
        model.flat_grads[...] = 1.0
        model.sgd_update(lr=0.0, weight_decay=0.5)
        for w, b in zip(model.weights, before):
            assert (w == b).all()

    def test_zero_grads_zero_decay_keeps_weights(self):
        model = RealModel([3, 2], seed=5)
        before = [w.copy() for w in model.weights]
        model.flat_grads[...] = 0.0
        model.sgd_update(lr=0.1, weight_decay=0.0)
        for w, b in zip(model.weights, before):
            assert (w == b).all()

    def test_scalar_hand_arithmetic(self):
        # w=1.0, g=0.5, lr=0.01, wd=0.0002 -> 1.0 - 0.01*(0.5 + 0.0002*1.0)
        model = RealModel([1, 1], seed=0)
        model.weights[0][:] = 1.0
        model.grads[0][:] = 0.5
        model.sgd_update(lr=0.01, weight_decay=0.0002)
        assert model.weights[0][0, 0] == pytest.approx(0.994998, abs=1e-9)


def test_seed_determinism_over_iterations():
    def run():
        model = RealModel([4, 8, 3], seed=9)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(8, 4)).astype(np.float32)
        y = rng.integers(0, 3, size=8)
        for _ in range(10):
            _, cache = model.forward(x, y)
            model.backward(cache)
            model.sgd_update(lr=0.05, weight_decay=0.0002)
        return weight_checksum(model)

    assert run() == run()


def test_gradient_chunks_one_per_parametric_layer():
    model = RealModel([5, 7, 6, 2], seed=6)
    x = np.random.default_rng(6).normal(size=(4, 5)).astype(np.float32)
    _, cache = model.forward(x, np.array([0, 1, 0, 1]))
    grads = model.backward(cache)
    assert len(grads) == 3
    assert [g.shape for g in grads] == [(5, 7), (7, 6), (6, 2)]
    assert all(np.isfinite(g).all() for g in grads)


def test_layers_are_views_of_one_flat_weight_and_one_flat_gradient_array():
    model = RealModel([5, 7, 6, 2], seed=6)
    assert model.flat_weights.size == model.flat_grads.size == model.param_count() == 89
    for views, flat in ((model.weights, model.flat_weights), (model.grads, model.flat_grads)):
        assert all(np.shares_memory(v, flat) for v in views)
        assert b"".join(v.tobytes() for v in views) == flat.tobytes()
    x = np.random.default_rng(6).normal(size=(4, 5)).astype(np.float32)
    _, cache = model.forward(x, np.array([0, 1, 0, 1]))
    grads = model.backward(cache)
    assert grads is model.grads and model.flat_grads.any()
    # the in-place update gives the bytes of the formula written out
    expected = [w - 0.05 * (g + 0.0002 * w) for w, g in zip(model.weights, grads)]
    model.sgd_update(lr=0.05, weight_decay=0.0002)
    assert [w.tobytes() for w in model.weights] == [e.tobytes() for e in expected]
