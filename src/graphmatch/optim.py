"""Adam optimizer over named parameter dicts."""

import numpy as np

from .model import FINITE_AT_LEAST_0, check_bounds

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Standard Adam with bias correction.

    Parameters are a dict name -> Tensor; moment buffers are kept per name so
    the whole optimizer state can be serialized next to a checkpoint.
    """

    def __init__(self, params, lr):
        check_bounds({"lr": lr}, {"lr": FINITE_AT_LEAST_0}, ValueError)
        self.params = params
        self.lr = lr
        self.step_count = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self):
        """One update using current .grad of every parameter; grads are zeroed."""
        for name, p in self.params.items():
            if p.grad is None:
                raise RuntimeError(f"parameter {name!r} has no gradient")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1 ** t
        bc2 = 1.0 - BETA2 ** t
        for name, p in self.params.items():
            # in place, in the order of m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2,
            # p -= lr (m / bc1) / (sqrt(v / bc2) + eps), through two work arrays
            g, m, v = p.grad, self.m[name], self.v[name]
            step, denom = np.empty_like(g), np.empty_like(g)
            m *= BETA1
            m += np.multiply(1.0 - BETA1, g, out=step)
            v *= BETA2
            v += np.multiply(1.0 - BETA2, np.multiply(g, g, out=step), out=step)
            np.sqrt(np.divide(v, bc2, out=denom), out=denom)
            denom += EPS
            np.multiply(self.lr, np.divide(m, bc1, out=step), out=step)
            step /= denom
            p.data -= step
            p.grad = None
