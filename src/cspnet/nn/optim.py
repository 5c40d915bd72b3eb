"""Adam with bias correction and coupled L2 weight decay.

Decay is added to the raw gradient (g <- g + wd * value) before the moment
updates, skipped for decay-exempt parameters (batchnorm scale/shift and
biases). Frozen parameters are never touched and hold no moments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ParameterError
from .graph import ModelGraph


@dataclass
class AdamState:
    lr: float
    weight_decay: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def init_adam(graph: ModelGraph, lr: float, weight_decay: float = 0.0) -> AdamState:
    """Fresh state for `graph`; `adam_step` allocates each trainable
    parameter's moments at its first update."""
    if lr < 0 or weight_decay < 0:
        raise ParameterError("learning rate and weight decay must be nonnegative")
    return AdamState(lr=lr, weight_decay=weight_decay)


def adam_step(state: AdamState, graph: ModelGraph) -> None:
    """One update from the parameters' current grad buffers."""
    state.step += 1
    bc1 = 1.0 - state.beta1**state.step
    bc2 = 1.0 - state.beta2**state.step
    for name, p in graph.params.items():
        if not p.trainable:
            continue
        if name not in state.m:  # first step, or unfrozen since the last
            state.m[name] = np.zeros_like(p.value)
            state.v[name] = np.zeros_like(p.value)
        g = p.grad
        if state.weight_decay != 0.0 and not p.decay_exempt:
            g = g + state.weight_decay * p.value
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        p.value -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
