"""Gradient-descent optimisers operating on lists of parameter dictionaries.

A "parameter group" is a ``dict[str, np.ndarray]`` (e.g. ``layer.params``);
the matching gradient group has the same keys.  Optimisers update parameters
in place so that layers keep referencing the same arrays.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List

import numpy as np

ParamGroup = Dict[str, np.ndarray]


def clip_gradients(grad_groups: List[ParamGroup], max_norm: float) -> float:
    """Clip the global L2 norm of all gradients to ``max_norm`` (in place).

    Returns the pre-clipping global norm.
    """
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    total = 0.0
    for group in grad_groups:
        for grad in group.values():
            # BLAS dot on the raveled view: no grad*grad temporary.
            flat = np.ravel(grad)
            total += float(np.dot(flat, flat))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for group in grad_groups:
            for grad in group.values():
                grad *= scale
    return norm


class Optimizer(ABC):
    """Base class: pairs parameter groups with gradient groups."""

    def __init__(self, params: List[ParamGroup], grads: List[ParamGroup], lr: float) -> None:
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        if len(params) != len(grads):
            raise ValueError("params and grads must have the same number of groups")
        for param_group, grad_group in zip(params, grads):
            if set(param_group) != set(grad_group):
                raise ValueError("parameter and gradient groups must have matching keys")
        self.params = params
        self.grads = grads
        self.lr = lr

    @abstractmethod
    def step(self) -> None:
        """Apply one update using the current gradients."""

    def zero_grad(self) -> None:
        """Zero all gradient arrays in place."""
        for group in self.grads:
            for grad in group.values():
                grad[...] = 0.0


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(
        self,
        params: List[ParamGroup],
        grads: List[ParamGroup],
        lr: float = 0.01,
        momentum: float = 0.0,
    ) -> None:
        super().__init__(params, grads, lr)
        if not (0.0 <= momentum < 1.0):
            raise ValueError("momentum must be in [0, 1)")
        self.momentum = momentum
        self._velocity = [
            {key: np.zeros_like(value) for key, value in group.items()} for group in params
        ]

    def step(self) -> None:
        for group_index, (param_group, grad_group) in enumerate(zip(self.params, self.grads)):
            for key, param in param_group.items():
                grad = grad_group[key]
                if self.momentum > 0:
                    velocity = self._velocity[group_index][key]
                    velocity *= self.momentum
                    velocity -= self.lr * grad
                    param += velocity
                else:
                    param -= self.lr * grad


class Adam(Optimizer):
    """Adam optimiser (Kingma & Ba, 2015)."""

    def __init__(
        self,
        params: List[ParamGroup],
        grads: List[ParamGroup],
        lr: float = 0.01,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        super().__init__(params, grads, lr)
        if not (0.0 <= beta1 < 1.0) or not (0.0 <= beta2 < 1.0):
            raise ValueError("beta1 and beta2 must be in [0, 1)")
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._step_count = 0
        self._m = [
            {key: np.zeros_like(value) for key, value in group.items()} for group in params
        ]
        self._v = [
            {key: np.zeros_like(value) for key, value in group.items()} for group in params
        ]
        # Reusable per-parameter scratch: step() runs every minibatch, and
        # allocating fresh m_hat/v_hat temporaries each call costs more than
        # the arithmetic on feature-matrix-sized groups.
        self._scratch_m = [
            {key: np.empty_like(value) for key, value in group.items()} for group in params
        ]
        self._scratch_v = [
            {key: np.empty_like(value) for key, value in group.items()} for group in params
        ]

    def step(self) -> None:
        """One Adam update of every parameter, using the scratch buffers.

        Every elementwise operation runs in the same order as the classic
        ``m_hat = m / bias1; param -= lr * m_hat / (sqrt(v_hat) + eps)``
        formulation, so results are bit-identical — only the temporaries are
        reused instead of reallocated.
        """
        self._step_count += 1
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count
        for group_index, (param_group, grad_group) in enumerate(zip(self.params, self.grads)):
            for key, param in param_group.items():
                grad = grad_group[key]
                m = self._m[group_index][key]
                v = self._v[group_index][key]
                sm = self._scratch_m[group_index][key]
                sv = self._scratch_v[group_index][key]
                m *= self.beta1
                np.multiply(grad, 1.0 - self.beta1, out=sm)
                m += sm
                v *= self.beta2
                np.multiply(grad, 1.0 - self.beta2, out=sv)
                sv *= grad
                v += sv
                np.divide(m, bias1, out=sm)  # m_hat
                np.divide(v, bias2, out=sv)  # v_hat
                np.sqrt(sv, out=sv)
                sv += self.eps
                sm *= self.lr
                sm /= sv
                param -= sm
