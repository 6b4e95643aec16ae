"""AdamW with decoupled multiplicative weight decay."""

from __future__ import annotations

import numpy as np

from .errors import NumericError


def adamw_step(param, grad, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8,
               weight_decay=0.0):
    """One in-place update of ``param`` given moment buffers ``m``/``v``.

    Decay multiplies the parameter by (1 - lr * weight_decay) before the
    bias-corrected Adam move; ``t`` is the 1-based step count.
    """
    if weight_decay:
        param *= 1.0 - lr * weight_decay
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * (grad * grad)
    mhat = m / (1.0 - beta1 ** t)
    vhat = v / (1.0 - beta2 ** t)
    param -= lr * mhat / (np.sqrt(vhat) + eps)


class AdamW:
    """Optimizer over a list of (name, tensor) pairs.

    Moment buffers exist only for the tensors handed in, so frozen model
    components never acquire optimizer state. A missing gradient is treated
    as zero; a NaN or ±inf gradient aborts, naming the offending tensor.
    """

    def __init__(self, named_params, lr, betas=(0.9, 0.999), eps=1e-8,
                 weight_decay=0.0):
        self.named_params = list(named_params)
        self.lr = float(lr)
        self.beta1, self.beta2 = betas
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self.t = 0
        self.state = {
            name: (np.zeros_like(p.data), np.zeros_like(p.data))
            for name, p in self.named_params
        }

    def step(self):
        self.t += 1
        for name, p in self.named_params:
            grad = p.grad
            if grad is None:
                grad = np.zeros_like(p.data)
            elif not np.isfinite(grad).all():
                raise NumericError(f"non-finite gradient on tensor {name!r}")
            m, v = self.state[name]
            adamw_step(p.data, grad, m, v, self.t, self.lr, self.beta1,
                       self.beta2, self.eps, self.weight_decay)

    def zero_grad(self):
        for _, p in self.named_params:
            p.grad = None
