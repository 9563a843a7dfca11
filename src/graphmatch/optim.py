"""Adam optimizer over named parameter dicts."""

import numpy as np

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Standard Adam with bias correction.

    Parameters are a dict name -> Tensor; moment buffers are kept per name so
    the whole optimizer state can be serialized next to a checkpoint.
    """

    def __init__(self, params, lr):
        if lr < 0.0:
            raise ValueError(f"learning rate must be >= 0, got {lr}")
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
            g = p.grad
            m = self.m[name]
            v = self.v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            mhat = m / bc1
            vhat = v / bc2
            p.data -= self.lr * mhat / (np.sqrt(vhat) + EPS)
            p.grad = None
