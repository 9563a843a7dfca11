import re

import numpy as np
import pytest

from graphmatch.autodiff import Tensor, backward
from graphmatch.optim import BETA1, BETA2, EPS, Adam


def test_zero_grad_leaves_params_unchanged():
    w = Tensor([1.0, 2.0], requires_grad=True)
    w.grad = np.zeros(2)
    opt = Adam({"w": w}, lr=0.1)
    opt.step()
    assert np.array_equal(w.data, [1.0, 2.0])


def test_first_step_is_bias_corrected_lr():
    # with g=1 the bias-corrected ratio is 1, so the step is ~lr
    w = Tensor([0.0], requires_grad=True)
    w.grad = np.array([1.0])
    opt = Adam({"w": w}, lr=0.1)
    opt.step()
    assert abs(w.data[0] + 0.1) < 1e-6


def test_grads_zeroed_after_step():
    w = Tensor([0.0], requires_grad=True)
    w.grad = np.array([1.0])
    opt = Adam({"w": w}, lr=0.1)
    opt.step()
    assert w.grad is None


def test_missing_grad_raises():
    w = Tensor([0.0], requires_grad=True)
    opt = Adam({"w": w}, lr=0.1)
    with pytest.raises(RuntimeError):
        opt.step()


def test_converges_on_quadratic():
    w = Tensor([0.0], requires_grad=True)
    opt = Adam({"w": w}, lr=0.1)
    for _ in range(100):
        diff = w - Tensor([3.0])
        backward((diff * diff).mean())
        opt.step()
    assert abs(w.data[0] - 3.0) < 0.1


@pytest.mark.parametrize("lr", [-1.0, float("nan"), float("inf")])
def test_negative_lr_rejected(lr):
    with pytest.raises(ValueError, match=re.escape(f"lr must be a finite number >= 0, got {lr!r}")):
        Adam({}, lr=lr)


def test_step_is_the_textbook_update_bit_for_bit():
    """The in-place update equals m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2,
    p -= lr (m / bc1) / (sqrt(v / bc2) + eps), evaluated as written."""
    rng = np.random.default_rng(0)
    shapes = {"w": (7, 5), "b": (1, 5), "s": (3,)}
    params = {k: Tensor(rng.normal(size=s), requires_grad=True) for k, s in shapes.items()}
    want = {k: p.data.copy() for k, p in params.items()}
    m = {k: np.zeros(s) for k, s in shapes.items()}
    v = {k: np.zeros(s) for k, s in shapes.items()}
    opt = Adam(params, lr=0.01)
    for t in range(1, 51):
        grads = {k: rng.normal(size=s) * 10.0 ** rng.integers(-8, 3) for k, s in shapes.items()}
        grads["s"][0] = -0.0
        for k, p in params.items():
            p.grad = grads[k].copy()
        opt.step()
        for k, g in grads.items():
            m[k] = BETA1 * m[k] + (1.0 - BETA1) * g
            v[k] = BETA2 * v[k] + (1.0 - BETA2) * (g * g)
            mhat = m[k] / (1.0 - BETA1 ** t)
            vhat = v[k] / (1.0 - BETA2 ** t)
            want[k] = want[k] - 0.01 * mhat / (np.sqrt(vhat) + EPS)
            for got, exp in ((params[k].data, want[k]), (opt.m[k], m[k]), (opt.v[k], v[k])):
                assert got.tobytes() == exp.tobytes(), (t, k)
