"""The three CNN backbones, built layer-for-layer from their published tables.

Shared conventions: input arrives as one map of shape (channels, time);
every backbone owns exactly one channel-spanning convolution layer named
`spatial_filter` with kernels (c, 1); convolutions immediately followed by
batch normalization carry no bias.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .nn import LayerSpec, ModelGraph

BACKBONE_KINDS = ("eegnet", "shallowcnn", "deepcnn")
SPATIAL_FILTER_LAYER = "spatial_filter"


@dataclass
class BackboneSpec:
    kind: str
    n_channels: int
    n_samples: int
    fs: float
    n_classes: int
    dropout_p: float = 0.25

    def __post_init__(self) -> None:
        if self.kind not in BACKBONE_KINDS:
            raise ParameterError(f"unknown backbone kind {self.kind!r}")
        if self.n_channels < 2:
            raise ParameterError("need at least 2 channels")
        if self.n_samples < 2:
            raise ParameterError("need at least 2 samples")
        if self.fs <= 0:
            raise ParameterError("sampling rate must be positive")
        if self.n_classes < 2:
            raise ParameterError("need at least 2 classes")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ParameterError("dropout probability must be in [0, 1)")


def eegnet_layers(spec: BackboneSpec) -> list[LayerSpec]:
    """Temporal (1, fs/2) x4 same-width; depthwise (c,1) doubling 4 maps to 8;
    separable = depthwise (1,16) + pointwise (1,1) to 8; average pools (1,4)
    and (1,8).
    """
    c, k, p = spec.n_channels, spec.n_classes, spec.dropout_p
    fs_half = max(1, int(spec.fs) // 2)
    layers = [
        LayerSpec("conv2d", name="temporal", out_maps=4, kernel=(1, fs_half),
                  padding="same-width", bias=False),
        LayerSpec("batchnorm", name="temporal_bn"),
        LayerSpec("conv2d", name=SPATIAL_FILTER_LAYER, out_maps=8,
                  kernel=(c, 1), groups=4, bias=False),
        LayerSpec("batchnorm", name="spatial_bn"),
        LayerSpec("elu", name="spatial_elu"),
        LayerSpec("avgpool", name="spatial_pool", window=(1, 4)),
        LayerSpec("dropout", name="spatial_drop", p=p),
        LayerSpec("conv2d", name="sep_depthwise", out_maps=8, kernel=(1, 16),
                  groups=8, padding="same-width", bias=False),
        LayerSpec("batchnorm", name="sep_depthwise_bn"),
        LayerSpec("conv2d", name="sep_pointwise", out_maps=8, kernel=(1, 1),
                  bias=False),
        LayerSpec("batchnorm", name="sep_pointwise_bn"),
        LayerSpec("elu", name="sep_elu"),
        LayerSpec("avgpool", name="sep_pool", window=(1, 8)),
        LayerSpec("dropout", name="sep_drop", p=p),
        LayerSpec("flatten", name="flatten"),
        LayerSpec("dense", name="classifier", units=k),
    ]
    return layers


def shallowcnn_layers(spec: BackboneSpec) -> list[LayerSpec]:
    """Temporal (1,13) x40; spatial (c,1) x40; square, overlapping average
    pool (1,35) stride (1,7), log.
    """
    c, k, p = spec.n_channels, spec.n_classes, spec.dropout_p
    layers = [
        LayerSpec("conv2d", name="temporal", out_maps=40, kernel=(1, 13),
                  bias=True),
        LayerSpec("conv2d", name=SPATIAL_FILTER_LAYER, out_maps=40,
                  kernel=(c, 1), bias=False),
        LayerSpec("batchnorm", name="spatial_bn"),
        LayerSpec("square", name="square"),
        LayerSpec("avgpool", name="pool", window=(1, 35), stride=(1, 7)),
        LayerSpec("safelog", name="safelog"),
        LayerSpec("dropout", name="drop", p=p),
        LayerSpec("flatten", name="flatten"),
        LayerSpec("dense", name="classifier", units=k),
    ]
    return layers


def deepcnn_layers(spec: BackboneSpec) -> list[LayerSpec]:
    """Temporal (1,5) x25; spatial (c,1) x25; two standard conv blocks with
    50 and 100 maps; max pool (1,2) after each block.
    """
    c, k, p = spec.n_channels, spec.n_classes, spec.dropout_p
    layers = [
        LayerSpec("conv2d", name="temporal", out_maps=25, kernel=(1, 5),
                  bias=True),
        LayerSpec("conv2d", name=SPATIAL_FILTER_LAYER, out_maps=25,
                  kernel=(c, 1), bias=False),
        LayerSpec("batchnorm", name="block1_bn"),
        LayerSpec("elu", name="block1_elu"),
        LayerSpec("maxpool", name="block1_pool", window=(1, 2)),
        LayerSpec("dropout", name="block1_drop", p=p),
        LayerSpec("conv2d", name="block2_conv", out_maps=50, kernel=(1, 5),
                  bias=False),
        LayerSpec("batchnorm", name="block2_bn"),
        LayerSpec("elu", name="block2_elu"),
        LayerSpec("maxpool", name="block2_pool", window=(1, 2)),
        LayerSpec("dropout", name="block2_drop", p=p),
        LayerSpec("conv2d", name="block3_conv", out_maps=100, kernel=(1, 5),
                  bias=False),
        LayerSpec("batchnorm", name="block3_bn"),
        LayerSpec("elu", name="block3_elu"),
        LayerSpec("maxpool", name="block3_pool", window=(1, 2)),
        LayerSpec("dropout", name="block3_drop", p=p),
        LayerSpec("flatten", name="flatten"),
        LayerSpec("dense", name="classifier", units=k),
    ]
    return layers


_LAYER_STACKS = {
    "eegnet": eegnet_layers,
    "shallowcnn": shallowcnn_layers,
    "deepcnn": deepcnn_layers,
}


def backbone_layers(spec: BackboneSpec) -> list[LayerSpec]:
    """Layer stack for a backbone, before any parameters exist."""
    return _LAYER_STACKS[spec.kind](spec)


def build_backbone(spec: BackboneSpec, seed: int = 0) -> ModelGraph:
    layers = backbone_layers(spec)
    return ModelGraph(layers, input_shape=(1, spec.n_channels, spec.n_samples),
                      seed=seed)


def trials_to_batch(trials) -> np.ndarray:
    """Stack (c, t) trial views into the (N, 1, c, t) input layout; an
    EpochSet's own batch is the view `epochs.x[:, None]`."""
    return np.stack([np.asarray(tr.data, dtype=np.float64) for tr in trials])[
        :, None, :, :
    ]
