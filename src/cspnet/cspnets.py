"""Hybrid models that seat CSP filters inside the CNN backbones.

Two constructions. The first prepends a channel-projection layer whose
kernels are the CSP columns, so the backbone sees f filtered surrogate
channels instead of the c recorded ones. The second keeps the backbone
topology untouched and overwrites its `spatial_filter` kernels with
replicated CSP columns. In either case the filter-bearing layer can stay
frozen, train freely, or start over from random values of the same shape.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .csp import CSPModel
from .errors import ParameterError, WriteError
from .models import (
    SPATIAL_FILTER_LAYER,
    BackboneSpec,
    backbone_layers,
    build_backbone,
)
from .nn import LayerSpec, ModelGraph, Parameter
from .nn.layers import init_params
from .rng import substream

CSP_LAYER_VARIANTS = ("fix", "upd", "rad")
PROJECTION_LAYER = "csp_projection"


@dataclass
class CspLayerMode:
    """How the filter-bearing layer behaves during training.

    `fix` freezes the kernels at the CSP solution, `upd` lets them train
    like any convolution, and `rad` discards the solution for fresh
    Glorot-uniform values drawn from `seed`, which then train; a random
    layer is the ablation control.
    """

    variant: str
    seed: int = 0

    def __post_init__(self) -> None:
        if self.variant not in CSP_LAYER_VARIANTS:
            raise ParameterError(f"unknown CSP layer mode {self.variant!r}")

    @property
    def trainable(self) -> bool:
        return self.variant != "fix"


@dataclass
class CspNetModel:
    graph: ModelGraph
    family: str  # "cspnet1" or "cspnet2"
    backbone_kind: str
    csp_source: CSPModel
    mode: CspLayerMode

    @property
    def csp_layer_name(self) -> str:
        return PROJECTION_LAYER if self.family == "cspnet1" else SPATIAL_FILTER_LAYER

    def csp_param(self) -> Parameter:
        return self.graph.parameter(f"{self.csp_layer_name}.weight")


def _seat_filters(graph: ModelGraph, layer_name: str, values: np.ndarray,
                  mode: CspLayerMode) -> None:
    """Overwrite one conv weight with filter columns, honoring the mode."""
    param = graph.parameter(f"{layer_name}.weight")
    if mode.variant == "rad":
        index = graph.layer_names.index(layer_name)
        in_shape = graph.shapes[index - 1] if index else graph.input_shape
        rng = substream(mode.seed, "csp-rad")
        param.value[...] = init_params(graph.specs[index], in_shape, rng)["weight"]
    else:
        param.value[...] = values
    param.trainable = mode.trainable


def make_cspnet1(backbone: BackboneSpec, csp: CSPModel, mode: CspLayerMode,
                 seed: int = 0) -> CspNetModel:
    """Projection construction: filters first, then the unmodified backbone.

    The projection is a (c, 1) convolution with one kernel per filter and
    no bias, computing W'X per trial; a parameter-free axis swap then
    presents the f filtered signals to the backbone as input channels, so
    the backbone is built at n_channels = f.
    """
    c, f = csp.n_channels, csp.f
    if backbone.n_channels != c:
        raise ParameterError(
            f"CSP filters span {c} channels but the backbone expects "
            f"{backbone.n_channels}")
    inner = dataclasses.replace(backbone, n_channels=f)
    specs = [
        LayerSpec("conv2d", name=PROJECTION_LAYER, out_maps=f, kernel=(c, 1),
                  bias=False),
        LayerSpec("permute", name="csp_permute"),
        *backbone_layers(inner),
    ]
    graph = ModelGraph(specs, input_shape=(1, c, backbone.n_samples), seed=seed)
    _seat_filters(graph, PROJECTION_LAYER, csp.W.T[:, None, :, None], mode)
    return CspNetModel(graph=graph, family="cspnet1",
                       backbone_kind=backbone.kind, csp_source=csp, mode=mode)


def make_cspnet2(backbone: BackboneSpec, csp: CSPModel, mode: CspLayerMode,
                 seed: int = 0) -> CspNetModel:
    """Replacement construction: backbone spatial kernels become filters.

    With n spatial kernels and f filters, every column is placed
    floor(n/f) times and the remaining n mod f slots take distinct
    columns chosen at random from the mode seed. Kernels with several
    input slices receive their column on every slice.
    """
    c, f = csp.n_channels, csp.f
    if backbone.n_channels != c:
        raise ParameterError(
            f"CSP filters span {c} channels but the backbone expects "
            f"{backbone.n_channels}")
    graph = build_backbone(backbone, seed=seed)
    param = graph.parameter(f"{SPATIAL_FILTER_LAYER}.weight")
    n = param.value.shape[0]
    if n < f:
        raise ParameterError(f"{n} spatial kernels cannot hold {f} filters")
    slots = list(range(f)) * (n // f)
    extra = n - len(slots)
    if extra:
        rng = substream(mode.seed, "csp-extra")
        slots.extend(int(j) for j in rng.choice(f, size=extra, replace=False))
    cols = csp.W[:, slots].T  # (n, c)
    values = np.broadcast_to(cols[:, None, :, None], param.value.shape)
    _seat_filters(graph, SPATIAL_FILTER_LAYER, values, mode)
    return CspNetModel(graph=graph, family="cspnet2",
                       backbone_kind=backbone.kind, csp_source=csp, mode=mode)


def csp_layer_weights(model: CspNetModel) -> np.ndarray:
    """Current filter-layer kernels as a (channels, filters) matrix.

    Kernels with several input slices are averaged over them; at
    construction every slice holds the same column, so the average is
    exact until training moves the slices apart.
    """
    w = model.csp_param().value
    return w.mean(axis=1)[:, :, 0].T.copy()


def save_csp_layer_csv(model: CspNetModel, path) -> None:
    """Write the filter matrix as CSV, one row per channel."""
    weights = csp_layer_weights(model)
    try:
        np.savetxt(path, weights, delimiter=",", fmt="%.17g")
    except OSError as exc:
        raise WriteError(f"cannot write {path}: {exc}") from exc
