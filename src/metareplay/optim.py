"""Functional optimizer steps over ParamVectors."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .params import ParamVector


def sgd_step(params: ParamVector, grads: ParamVector, lr: float) -> ParamVector:
    """theta - lr * grad, as a fresh vector."""
    return params.zip_map(grads, lambda p, g: p - np.float32(lr) * g)


@dataclass(frozen=True)
class AdamState:
    """First/second moment estimates plus the step counter."""
    step: int
    m: ParamVector
    v: ParamVector

    @classmethod
    def init(cls, params: ParamVector) -> "AdamState":
        return cls(step=0, m=params.zeros_like(), v=params.zeros_like())


_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8     # Adam's moment decay rates and epsilon


def adam_step(params: ParamVector, grads: ParamVector, state: Optional[AdamState],
              lr: float, weight_decay: float = 0.0) -> tuple[ParamVector, AdamState]:
    """One Adam update; weight decay is decoupled and applied before the
    adaptive step (p -= lr * wd * p), so with zero gradient the only change
    is the decay shrinkage."""
    if state is None:
        state = AdamState.init(params)
    t = state.step + 1
    if weight_decay:
        params = params.map(lambda _, p: p - np.float32(lr * weight_decay) * p)
    m = state.m.zip_map(grads, lambda m_, g: _BETA1 * m_ + (1.0 - _BETA1) * g)
    v = state.v.zip_map(grads, lambda v_, g: _BETA2 * v_ + (1.0 - _BETA2) * g * g)
    bc1 = 1.0 - _BETA1 ** t
    bc2 = 1.0 - _BETA2 ** t
    mhat = m.scale(1.0 / bc1)
    vhat = v.scale(1.0 / bc2)
    delta = mhat.zip_map(vhat, lambda mh, vh: mh / (np.sqrt(vh) + np.float32(_EPS)))
    new_params = params.zip_map(delta, lambda p, d: p - np.float32(lr) * d)
    return new_params, AdamState(step=t, m=m, v=v)
