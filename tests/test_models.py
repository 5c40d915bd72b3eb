"""Backbone construction: shapes, parameter counts, gradient fidelity."""

import numpy as np
import pytest

from cspnet.errors import BuildError, ParameterError
from cspnet.models import BackboneSpec, build_backbone
from cspnet.nn import grad_check, model_forward

FULL = dict(n_channels=22, n_samples=1000, fs=250, n_classes=4)
MINI = dict(n_channels=4, n_samples=64, fs=32, n_classes=2)


def forward_shape(graph, n=2, seed=0):
    x = np.random.default_rng(seed).standard_normal((n,) + graph.input_shape)
    return model_forward(graph, x, mode="eval").shape


class TestEegnet:
    def test_full_size_logits_and_spatial_shape(self):
        graph = build_backbone(BackboneSpec("eegnet", **FULL))
        assert forward_shape(graph) == (2, 4)
        assert graph.parameter("spatial_filter.weight").value.shape == (8, 1, 22, 1)

    def test_parameter_count_hand_tally(self):
        graph = build_backbone(BackboneSpec("eegnet", n_channels=3,
                                            n_samples=64, fs=128, n_classes=2))
        # temporal (4,1,1,64); four batchnorms (4+4, 8+8, 8+8, 8+8);
        # depthwise (8,1,3,1); separable (8,1,1,16); pointwise (8,8,1,1);
        # dense 16 -> 2 with bias
        expected = (
            4 * 64
            + (4 + 4) + (8 + 8) + (8 + 8) + (8 + 8)
            + 8 * 3
            + 8 * 16
            + 8 * 8
            + (16 * 2 + 2)
        )
        assert graph.n_parameters() == expected

    def test_too_short_input_fails_at_build(self):
        with pytest.raises(BuildError):
            build_backbone(BackboneSpec("eegnet", n_channels=4, n_samples=8,
                                        fs=32, n_classes=2))


class TestShallowcnn:
    def test_full_size_logits_and_spatial_shape(self):
        graph = build_backbone(BackboneSpec("shallowcnn", **FULL))
        assert forward_shape(graph) == (2, 4)
        assert graph.parameter("spatial_filter.weight").value.shape == (40, 40, 22, 1)

    def test_too_short_input_fails_at_build(self):
        with pytest.raises(BuildError):
            build_backbone(BackboneSpec("shallowcnn", n_channels=4,
                                        n_samples=20, fs=32, n_classes=2))

    def test_overlapping_pool_width(self):
        graph = build_backbone(BackboneSpec("shallowcnn", **FULL))
        pool_index = graph.layer_names.index("pool")
        # (1000 - 12) time points, window 35 stride 7
        assert graph.shapes[pool_index] == (40, 1, (988 - 35) // 7 + 1)


class TestDeepcnn:
    def test_full_size_logits_and_spatial_shape(self):
        graph = build_backbone(BackboneSpec("deepcnn", **FULL))
        assert forward_shape(graph) == (2, 4)
        assert graph.parameter("spatial_filter.weight").value.shape == (25, 25, 22, 1)

    def test_widths_halve_per_block(self):
        graph = build_backbone(BackboneSpec("deepcnn", **FULL))
        widths = {
            name: shape[-1]
            for name, shape in zip(graph.layer_names, graph.shapes)
        }
        assert widths["temporal"] == 996
        assert widths["block1_pool"] == 498
        assert widths["block2_conv"] == 494
        assert widths["block2_pool"] == 247
        assert widths["block3_conv"] == 243
        assert widths["block3_pool"] == 121

    def test_too_short_input_fails_at_build(self):
        with pytest.raises(BuildError):
            build_backbone(BackboneSpec("deepcnn", n_channels=4, n_samples=12,
                                        fs=32, n_classes=2))


class TestSharedContracts:
    @pytest.mark.parametrize("kind", ["eegnet", "shallowcnn", "deepcnn"])
    def test_single_spatial_filter_spanning_channels(self, kind):
        graph = build_backbone(BackboneSpec(kind, **FULL))
        spatial = [
            (name, spec)
            for name, spec in zip(graph.layer_names, graph.specs)
            if name == "spatial_filter"
        ]
        assert len(spatial) == 1
        assert spatial[0][1].kernel == (22, 1)

    @pytest.mark.parametrize("kind", ["eegnet", "shallowcnn", "deepcnn"])
    def test_conv_bias_only_without_following_batchnorm(self, kind):
        graph = build_backbone(BackboneSpec(kind, **FULL))
        for i, spec in enumerate(graph.specs):
            if spec.kind != "conv2d":
                continue
            followed_by_bn = (
                i + 1 < len(graph.specs)
                and graph.specs[i + 1].kind == "batchnorm"
            )
            assert spec.bias == (not followed_by_bn)

    @pytest.mark.parametrize("kind", ["eegnet", "shallowcnn", "deepcnn"])
    def test_build_purity(self, kind):
        spec = BackboneSpec(kind, **MINI)
        a = build_backbone(spec, seed=3)
        b = build_backbone(spec, seed=3)
        c = build_backbone(spec, seed=4)
        for name in a.params:
            np.testing.assert_array_equal(
                a.params[name].value, b.params[name].value
            )
        assert any(
            not np.array_equal(a.params[n].value, c.params[n].value)
            for n in a.params
            if a.params[n].value.size and "weight" in n
        )

    @pytest.mark.parametrize("kind", ["eegnet", "shallowcnn", "deepcnn"])
    def test_miniature_grad_check(self, kind):
        graph = build_backbone(BackboneSpec(kind, **MINI), seed=1)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3,) + graph.input_shape)
        y = rng.integers(0, 2, size=3)
        err = grad_check(graph, x, y, h=1e-5, max_elements_per_param=20)
        assert err < 1e-3

    def test_bad_spec_rejected(self):
        with pytest.raises(ParameterError):
            BackboneSpec("vgg", **MINI)
        with pytest.raises(ParameterError):
            BackboneSpec("eegnet", n_channels=1, n_samples=64, fs=32,
                         n_classes=2)
        with pytest.raises(ParameterError):
            BackboneSpec("eegnet", n_channels=4, n_samples=64, fs=32,
                         n_classes=1)
