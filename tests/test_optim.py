import numpy as np
import pytest

from graphmatch.autodiff import Tensor, backward
from graphmatch.optim import Adam


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
        backward((diff * diff).sum())
        opt.step()
    assert abs(w.data[0] - 3.0) < 0.1


def test_negative_lr_rejected():
    with pytest.raises(ValueError):
        Adam({}, lr=-1.0)
