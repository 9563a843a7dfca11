"""Adam optimizer over named parameter dicts."""

import numpy as np


class Adam:
    """Standard Adam with bias correction.

    Parameters are a dict name -> Tensor; moment buffers are kept per name so
    the whole optimizer state can be serialized next to a checkpoint.
    """

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        if lr < 0.0:
            raise ValueError(f"learning rate must be >= 0, got {lr}")
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
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
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for name, p in self.params.items():
            g = p.grad
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            mhat = m / bc1
            vhat = v / bc2
            p.data -= self.lr * mhat / (np.sqrt(vhat) + self.eps)
            p.grad = None
