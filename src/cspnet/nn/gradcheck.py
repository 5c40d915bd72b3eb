"""Central-difference verification of analytic gradients.

Every evaluation re-creates the dropout stream from the same seed, so
masks are pinned and the loss is a deterministic function of the
parameters alone.
"""

from __future__ import annotations

import numpy as np

from ..errors import ParameterError
from ..rng import substream
from .graph import ModelGraph, model_backward, model_forward
from .layers import LayerSpec
from .loss import softmax_xent

REL_ERROR_FLOOR = 1e-4  # denominator floor keeps near-zero grads comparable


def _pinned_loss(graph: ModelGraph, batch, labels, dropout_seed: int) -> float:
    rng = substream(dropout_seed, "gradcheck-dropout")
    logits = model_forward(graph, batch, mode="train", dropout_rng=rng)
    loss, _ = softmax_xent(logits, labels)
    return loss


def grad_check(graph: ModelGraph, batch, labels, h: float = 1e-5,
               dropout_seed: int = 0,
               max_elements_per_param: int | None = None) -> float:
    """Worst relative error between analytic and central-difference grads.

    Every trainable parameter is checked; with max_elements_per_param set,
    a seeded random subset of each parameter's elements is probed (two
    forward passes per element add up quickly on big layers). Returns 0.0
    when nothing is trainable. Parameter values and running statistics are
    restored on exit.
    """
    if max_elements_per_param is not None and max_elements_per_param < 1:
        raise ParameterError("element cap must be >= 1")
    prior_mode = graph.mode
    saved_buffers = {name: b.copy() for name, b in graph.buffers.items()}
    graph.set_mode("train")
    try:
        model_backward(
            graph, batch, labels,
            dropout_rng=substream(dropout_seed, "gradcheck-dropout"),
        )
        analytic = {
            name: p.grad.copy()
            for name, p in graph.params.items()
            if p.trainable
        }
        worst = 0.0
        for name, grad in analytic.items():
            value = graph.params[name].value
            flat = value.reshape(-1)
            flat_grad = grad.reshape(-1)
            indices = np.arange(flat.size)
            if (max_elements_per_param is not None
                    and flat.size > max_elements_per_param):
                picker = substream(dropout_seed, "gradcheck-elements", name)
                indices = np.sort(picker.choice(
                    flat.size, size=max_elements_per_param, replace=False
                ))
            for i in indices:
                kept = flat[i]
                flat[i] = kept + h
                up = _pinned_loss(graph, batch, labels, dropout_seed)
                flat[i] = kept - h
                down = _pinned_loss(graph, batch, labels, dropout_seed)
                flat[i] = kept
                numeric = (up - down) / (2.0 * h)
                denom = max(abs(numeric), abs(flat_grad[i]), REL_ERROR_FLOOR)
                worst = max(worst, abs(numeric - flat_grad[i]) / denom)
        return worst
    finally:
        graph.set_mode(prior_mode)
        for name, b in saved_buffers.items():
            graph.buffers[name][...] = b


def layer_probe_graph(spec: LayerSpec, in_shape, seed: int = 0) -> ModelGraph:
    """`spec` between a dense head and a trainable 1x1 conv whose gradients
    carry the probed layer's input gradient into the check. For `safelog`
    the conv weights are non-negative, so positive inputs stay clear of
    the clamp."""
    if spec.kind == "dense":
        stack = [LayerSpec("flatten"), spec]
    elif spec.kind == "flatten":
        stack = [spec, LayerSpec("dense", units=2)]
    else:
        stack = [spec, LayerSpec("flatten"), LayerSpec("dense", units=2)]
    below = LayerSpec("conv2d", out_maps=in_shape[0], kernel=(1, 1))
    graph = ModelGraph([below, *stack], input_shape=in_shape, seed=seed)
    if spec.kind == "safelog":
        weight = graph.layer_params(0)["weight"]
        np.abs(weight, out=weight)
    return graph
