"""Individual layer kinds against hand-computed and finite-difference oracles."""

import tracemalloc

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cspnet.cli import GRADCHECK_INPUT, GRADCHECK_LAYERS
from cspnet.errors import BuildError, ParameterError
from cspnet.models import BACKBONE_KINDS, BackboneSpec, build_backbone
from cspnet.nn import LayerSpec, grad_check, layer_forward
from cspnet.nn import layers
from cspnet.nn.gradcheck import layer_probe_graph
from cspnet.nn.layers import (
    backward,
    forward,
    init_buffers,
    init_params,
    out_shape,
)


def rng_of(seed):
    return np.random.default_rng(seed)


class TestShapePropagation:
    def test_conv_valid(self):
        spec = LayerSpec("conv2d", out_maps=5, kernel=(3, 7))
        assert out_shape(spec, (2, 8, 32)) == (5, 6, 26)

    def test_conv_same_width(self):
        spec = LayerSpec("conv2d", out_maps=4, kernel=(1, 16),
                         padding="same-width")
        assert out_shape(spec, (1, 22, 100)) == (4, 22, 100)

    def test_conv_group_divisibility(self):
        spec = LayerSpec("conv2d", out_maps=6, kernel=(1, 1), groups=4)
        with pytest.raises(BuildError):
            out_shape(spec, (4, 8, 8))

    def test_conv_kernel_too_tall(self):
        spec = LayerSpec("conv2d", out_maps=2, kernel=(9, 1))
        with pytest.raises(BuildError):
            out_shape(spec, (1, 8, 16))

    def test_pool_with_stride(self):
        spec = LayerSpec("avgpool", window=(1, 35), stride=(1, 7))
        assert out_shape(spec, (40, 1, 113)) == (40, 1, 12)

    def test_pool_window_too_large(self):
        spec = LayerSpec("maxpool", window=(1, 9))
        with pytest.raises(BuildError):
            out_shape(spec, (2, 1, 8))

    def test_flatten_then_dense(self):
        assert out_shape(LayerSpec("flatten"), (8, 1, 4)) == (32,)
        assert out_shape(LayerSpec("dense", units=4), (32,)) == (4,)

    def test_dense_requires_flat_input(self):
        with pytest.raises(BuildError):
            out_shape(LayerSpec("dense", units=4), (8, 1, 4))

    def test_permute_swaps_maps_and_height(self):
        assert out_shape(LayerSpec("permute"), (6, 1, 50)) == (1, 6, 50)

    def test_bad_dropout_probability(self):
        with pytest.raises(BuildError):
            out_shape(LayerSpec("dropout", p=1.0), (2, 3, 4))


class TestConv2d:
    def test_identity_kernel(self):
        spec = LayerSpec("conv2d", out_maps=1, kernel=(1, 1))
        x = rng_of(0).standard_normal((2, 1, 3, 5))
        params = {"weight": np.ones((1, 1, 1, 1)), "bias": np.zeros(1)}
        np.testing.assert_array_equal(layer_forward(spec, params, x), x)

    def test_matches_direct_convolution(self):
        spec = LayerSpec("conv2d", out_maps=3, kernel=(2, 4), bias=True)
        x = rng_of(1).standard_normal((2, 2, 5, 9))
        params = init_params(spec, (2, 5, 9), rng_of(2))
        got = layer_forward(spec, params, x)
        w, b = params["weight"], params["bias"]
        want = np.zeros_like(got)
        for n in range(2):
            for o in range(3):
                for i in range(4):
                    for j in range(6):
                        acc = 0.0
                        for m in range(2):
                            for u in range(2):
                                for v in range(4):
                                    acc += x[n, m, i + u, j + v] * w[o, m, u, v]
                        want[n, o, i, j] = acc + b[o]
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_same_width_padding_centers_kernel(self):
        # impulse input: correlation writes the reversed kernel around it
        spec = LayerSpec("conv2d", out_maps=1, kernel=(1, 3),
                         padding="same-width", bias=False)
        x = np.zeros((1, 1, 1, 5))
        x[0, 0, 0, 2] = 1.0
        params = {"weight": np.arange(1.0, 4.0).reshape(1, 1, 1, 3)}
        out = layer_forward(spec, params, x)
        np.testing.assert_allclose(out[0, 0, 0], [0.0, 3.0, 2.0, 1.0, 0.0])

    def test_depthwise_grouping(self):
        # groups = input maps: each output map sees exactly one input map
        spec = LayerSpec("conv2d", out_maps=4, kernel=(1, 1), groups=2,
                         bias=False)
        x = rng_of(3).standard_normal((1, 2, 2, 2))
        w = np.ones((4, 1, 1, 1))
        out = layer_forward(spec, {"weight": w}, x)
        np.testing.assert_allclose(out[:, 0], x[:, 0])
        np.testing.assert_allclose(out[:, 1], x[:, 0])
        np.testing.assert_allclose(out[:, 2], x[:, 1])
        np.testing.assert_allclose(out[:, 3], x[:, 1])


class TestConvAdjoint:
    """Dot-product tests of a bias-free conv: <conv(x), gy> = <x, gx>
    = <w, gw>."""

    CASES = [
        # grouped, several maps per group on both sides, same-width
        (LayerSpec("conv2d", out_maps=6, kernel=(2, 3), groups=2,
                   padding="same-width", bias=False), (4, 5, 9)),
        # channel-spanning (c, 1) spatial conv, valid
        (LayerSpec("conv2d", out_maps=5, kernel=(7, 1), bias=False),
         (3, 7, 20)),
        # EEGNet-style depthwise temporal conv, groups = maps
        (LayerSpec("conv2d", out_maps=8, kernel=(1, 16), groups=8,
                   padding="same-width", bias=False), (8, 1, 40)),
        # more than DIRECT_CONV_MAX_MAPS maps per group: the BLAS path
        (LayerSpec("conv2d", out_maps=12, kernel=(2, 3), bias=False),
         (3, 5, 9)),
        (LayerSpec("conv2d", out_maps=20, kernel=(2, 3), groups=2,
                   padding="same-width", bias=False), (4, 5, 9)),
        # wide full-height (c, 1) convs: the input gradient needs no fold
        (LayerSpec("conv2d", out_maps=12, kernel=(7, 1), bias=False),
         (3, 7, 20)),
        (LayerSpec("conv2d", out_maps=20, kernel=(5, 1), groups=2,
                   bias=False), (4, 5, 12)),
    ]

    @pytest.mark.parametrize("spec, in_shape", CASES,
                             ids=["grouped", "spatial", "depthwise", "wide",
                                  "wide-grouped", "wide-spatial",
                                  "wide-grouped-spatial"])
    def test_input_and_weight_gradients_are_adjoint(self, spec, in_shape):
        rng = rng_of(11)
        params = init_params(spec, in_shape, rng)
        x = rng.standard_normal((3,) + in_shape)
        y, cache = forward(spec, params, {}, x, "train", None)
        gy = rng.standard_normal(y.shape)
        gx, grads = backward(spec, params, cache, gy, True)
        assert gx.shape == x.shape
        lhs = np.vdot(y, gy)
        assert np.vdot(x, gx) == pytest.approx(lhs, rel=1e-12)
        assert np.vdot(params["weight"], grads["weight"]) == pytest.approx(
            lhs, rel=1e-12)


def pool_grad(spec, x, gy):
    y, cache = forward(spec, {}, {}, x, "train", None)
    assert y.shape == gy.shape
    gx, grads = backward(spec, {}, cache, gy, True)
    assert grads == {}
    return gx


def conv_geometries():
    """Every conv of the three backbones at 22x256 and fs 128, and
    CSP-Net-1's f = 4 and f = 8 projections, as (spec, in_shape) params."""
    cases = []
    for kind in BACKBONE_KINDS:
        graph = build_backbone(BackboneSpec(kind, n_channels=22, n_samples=256,
                                            fs=128.0, n_classes=4))
        in_shapes = [graph.input_shape, *graph.shapes[:-1]]
        cases += [pytest.param(spec, shape, id=f"{kind}-{name}")
                  for spec, shape, name in zip(graph.specs, in_shapes,
                                               graph.layer_names)
                  if spec.kind == "conv2d"]
    for f in (4, 8):
        spec = LayerSpec("conv2d", out_maps=f, kernel=(22, 1), bias=False)
        cases.append(pytest.param(spec, (1, 22, 256), id=f"cspnet1-f{f}"))
    return cases


def frozen_direct_conv(spec, w, x, gy):
    """The direct forward and weight-gradient contractions as they stood
    over a (n, groups, maps/group, ho, wo, kh, kw) window view."""
    o, mg, kh, kw = w.shape
    g = spec.groups
    if spec.padding == "same-width":
        left = (kw - 1) // 2
        x = np.pad(x, ((0, 0), (0, 0), (0, 0), (left, kw - 1 - left)))
    win = sliding_window_view(x, spec.kernel, axis=(2, 3))
    win = win.reshape(x.shape[0], g, mg, *win.shape[2:])
    wg = w.reshape(g, o // g, mg, kh, kw)
    y = np.einsum("ngmhwij,gomij->ngohw", win, wg, optimize=False)
    gyg = gy.reshape(x.shape[0], g, o // g, *gy.shape[2:])
    gw = np.einsum("ngmhwij,ngohw->gomij", win, gyg, optimize=False)
    return y.reshape(gy.shape), gw.reshape(w.shape)


def direct_geometries():
    return [p for p in conv_geometries()
            if p.values[0].out_maps // p.values[0].groups
            <= layers.DIRECT_CONV_MAX_MAPS]


class TestConvContractionRule:
    @pytest.mark.parametrize("spec, in_shape", conv_geometries())
    def test_chosen_path_agrees_with_the_other(self, spec, in_shape,
                                               monkeypatch):
        rng = rng_of(21)
        params = init_params(spec, in_shape, rng)
        x = rng.standard_normal((2,) + in_shape)
        gy = rng.standard_normal((2,) + out_shape(spec, in_shape))

        def output_and_weight_grad():
            y, cache = forward(spec, params, {}, x, "train", None)
            _, grads = backward(spec, params, cache, gy, True, False)
            return y, grads["weight"]

        chosen = output_and_weight_grad()
        direct = spec.out_maps // spec.groups <= layers.DIRECT_CONV_MAX_MAPS
        monkeypatch.setattr(layers, "DIRECT_CONV_MAX_MAPS",
                            -1 if direct else 10**9)
        for got, want in zip(chosen, output_and_weight_grad()):
            np.testing.assert_allclose(got, want, rtol=0,
                                       atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("spec, in_shape", direct_geometries())
    def test_direct_path_matches_the_frozen_contraction(self, spec, in_shape):
        rng = rng_of(24)
        params = init_params(spec, in_shape, rng)
        x = rng.standard_normal((2,) + in_shape)
        gy = rng.standard_normal((2,) + out_shape(spec, in_shape))
        y, cache = forward(spec, params, {}, x, "train", None)
        _, grads = backward(spec, params, cache, gy, True, False)
        want_y, want_gw = frozen_direct_conv(spec, params["weight"], x, gy)
        if spec.bias:
            want_y += params["bias"][None, :, None, None]
        np.testing.assert_array_equal(y, want_y)
        np.testing.assert_array_equal(grads["weight"], want_gw)

    def test_shallowcnn_spatial_eval_forward_copies_no_input(self):
        # a wide full-height (22, 1) conv reads its columns as a view
        spec = LayerSpec("conv2d", out_maps=40, kernel=(22, 1), bias=False)
        params = init_params(spec, (40, 22, 244), rng_of(25))
        x = rng_of(26).standard_normal((16, 40, 22, 244))
        tracemalloc.start()
        try:
            layer_forward(spec, params, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < x.nbytes / 4

    def test_eegnet_temporal_eval_forward_copies_no_window(self):
        spec = LayerSpec("conv2d", out_maps=4, kernel=(1, 64),
                         padding="same-width", bias=False)
        params = init_params(spec, (1, 22, 256), rng_of(22))
        x = rng_of(23).standard_normal((16, 1, 22, 256))
        window_bytes = x.nbytes * 64  # one (positions x taps) copy: 46 MB
        tracemalloc.start()
        try:
            layer_forward(spec, params, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < window_bytes / 8


class TestPoolBackward:
    def test_overlapping_avgpool_is_adjoint(self):
        spec = LayerSpec("avgpool", window=(2, 4), stride=(1, 2))
        rng = rng_of(12)
        x = rng.standard_normal((2, 3, 4, 11))
        y = layer_forward(spec, {}, x)
        gy = rng.standard_normal(y.shape)
        gx = pool_grad(spec, x, gy)
        assert np.vdot(x, gx) == pytest.approx(np.vdot(y, gy), rel=1e-12)

    def test_overlapping_maxpool_matches_loop(self):
        spec = LayerSpec("maxpool", window=(1, 3), stride=(1, 2))
        rng = rng_of(13)
        x = rng.standard_normal((2, 3, 2, 11))
        gy = rng.standard_normal((2, 3, 2, 5))
        want = np.zeros_like(x)
        for ow in range(5):
            seg = x[..., 2 * ow : 2 * ow + 3]
            hit = seg.argmax(axis=-1)
            for idx in np.ndindex(hit.shape):
                want[idx + (2 * ow + hit[idx],)] += gy[idx + (ow,)]
        np.testing.assert_allclose(pool_grad(spec, x, gy), want, atol=1e-15)

    @pytest.mark.parametrize("kind", ["avgpool", "maxpool"])
    def test_gapped_windows_leave_skipped_samples_at_zero(self, kind):
        # windows of 2 every 3 samples: columns 2, 5, 8 and 9 are never read
        spec = LayerSpec(kind, window=(1, 2), stride=(1, 3))
        x = rng_of(14).standard_normal((2, 2, 1, 10))
        gx = pool_grad(spec, x, np.ones((2, 2, 1, 3)))
        np.testing.assert_array_equal(gx[..., [2, 5, 8, 9]], 0.0)
        for start in (0, 3, 6):
            np.testing.assert_allclose(gx[..., start : start + 2].sum(-1), 1.0)

    def test_maxpool_tie_goes_to_first_maximum(self):
        spec = LayerSpec("maxpool", window=(2, 2))
        x = np.array([[[[1.0, 3.0, 3.0, 3.0],
                        [3.0, 0.0, 3.0, 3.0]]]])
        gx = pool_grad(spec, x, np.array([[[[5.0, 7.0]]]]))
        np.testing.assert_array_equal(
            gx, [[[[0.0, 5.0, 7.0, 0.0], [0.0, 0.0, 0.0, 0.0]]]])


class TestActivations:
    def test_elu_negative_one(self):
        out = layer_forward(LayerSpec("elu"), {}, np.full((1, 1, 1, 1), -1.0))
        assert abs(out[0, 0, 0, 0] - (np.exp(-1) - 1)) < 1e-12

    def test_elu_positive_identity(self):
        x = np.abs(rng_of(0).standard_normal((1, 2, 3, 4))) + 0.1
        np.testing.assert_array_equal(layer_forward(LayerSpec("elu"), {}, x), x)

    def test_square(self):
        x = rng_of(1).standard_normal((1, 2, 2, 2))
        np.testing.assert_allclose(
            layer_forward(LayerSpec("square"), {}, x), x * x
        )

    def test_safelog_clamps(self):
        x = np.array([[[[1e-9, 1.0, np.e]]]])
        out = layer_forward(LayerSpec("safelog"), {}, x)
        np.testing.assert_allclose(
            out[0, 0, 0], [np.log(1e-6), 0.0, 1.0], atol=1e-12
        )


class TestPooling:
    def test_avgpool_example(self):
        x = np.array([[[[1.0, 2.0, 3.0, 4.0]]]])
        out = layer_forward(LayerSpec("avgpool", window=(1, 4)), {}, x)
        np.testing.assert_allclose(out, [[[[2.5]]]])

    def test_maxpool_example(self):
        x = np.array([[[[1.0, 5.0, 2.0, 4.0]]]])
        out = layer_forward(LayerSpec("maxpool", window=(1, 2)), {}, x)
        np.testing.assert_allclose(out, [[[[5.0, 4.0]]]])

    def test_overlapping_avgpool_matches_loop(self):
        x = rng_of(2).standard_normal((2, 3, 1, 20))
        spec = LayerSpec("avgpool", window=(1, 6), stride=(1, 3))
        got = layer_forward(spec, {}, x)
        for ow in range(got.shape[3]):
            np.testing.assert_allclose(
                got[:, :, 0, ow], x[:, :, 0, 3 * ow : 3 * ow + 6].mean(axis=-1)
            )

    def test_maxpool_eval_output_equals_train(self):
        # eval mode skips the argmax cache but must pool identically
        spec = LayerSpec("maxpool", window=(2, 3), stride=(1, 2))
        x = np.round(rng_of(15).standard_normal((3, 2, 4, 13)), 1)  # ties
        train = layer_forward(spec, {}, x, mode="train")
        assert train.shape == (3, 2, 3, 6)
        np.testing.assert_array_equal(layer_forward(spec, {}, x, mode="eval"),
                                      train)


class TestBatchnorm:
    def test_train_mode_normalizes(self):
        spec = LayerSpec("batchnorm")
        x = rng_of(4).standard_normal((16, 3, 4, 5)) * 3.0 + 1.5
        params = init_params(spec, (3, 4, 5), rng_of(0))
        out = layer_forward(spec, params, x, mode="train")
        mean = out.mean(axis=(0, 2, 3))
        var = out.var(axis=(0, 2, 3))
        np.testing.assert_allclose(mean, 0.0, atol=1e-6)
        np.testing.assert_allclose(var, 1.0, atol=1e-4)

    def test_eval_uses_running_stats(self):
        spec = LayerSpec("batchnorm")
        params = init_params(spec, (2, 1, 4), rng_of(0))
        buffers = init_buffers(spec, (2, 1, 4))
        x = rng_of(5).standard_normal((8, 2, 1, 4))
        layer_forward(spec, params, x, mode="train", buffers=buffers)
        expected_mean = 0.1 * x.mean(axis=(0, 2, 3))
        np.testing.assert_allclose(buffers["running_mean"], expected_mean)
        # fresh-start running stats: eval normalizes with (0, 1), not batch
        fresh = init_buffers(spec, (2, 1, 4))
        out = layer_forward(spec, params, x, mode="eval", buffers=fresh)
        np.testing.assert_allclose(out, x / np.sqrt(1 + 1e-5), atol=1e-12)


class TestDropout:
    def test_eval_identity(self):
        x = rng_of(6).standard_normal((2, 2, 2, 2))
        out = layer_forward(LayerSpec("dropout", p=0.5), {}, x, mode="eval")
        np.testing.assert_array_equal(out, x)

    def test_train_requires_rng(self):
        x = np.ones((1, 1, 1, 1))
        with pytest.raises(ParameterError):
            layer_forward(LayerSpec("dropout", p=0.5), {}, x, mode="train")

    def test_inverted_scaling_preserves_mean(self):
        x = np.ones((1, 1, 1, 100000))
        out = layer_forward(
            LayerSpec("dropout", p=0.25), {}, x, mode="train", rng=rng_of(7)
        )
        assert abs(out.mean() - 1.0) < 0.01
        kept = out[out != 0]
        np.testing.assert_allclose(kept, 1.0 / 0.75)


class TestPermute:
    def test_round_trip(self):
        x = rng_of(8).standard_normal((2, 3, 4, 5))
        once = layer_forward(LayerSpec("permute"), {}, x)
        assert once.shape == (2, 4, 3, 5)
        np.testing.assert_array_equal(once.transpose(0, 2, 1, 3), x)


class TestLayerGradients:
    @pytest.mark.parametrize(
        "kind, spec", GRADCHECK_LAYERS,
        ids=[f"{kind}-{i}" for i, (kind, _) in enumerate(GRADCHECK_LAYERS)],
    )
    @pytest.mark.parametrize("seed", range(5))
    def test_each_kind_against_central_differences(self, kind, spec, seed):
        rng = rng_of(100 + seed)
        graph = layer_probe_graph(spec, GRADCHECK_INPUT, seed=seed)
        batch = rng.standard_normal((3,) + GRADCHECK_INPUT)
        if kind == "safelog":
            batch = np.abs(batch) + 0.1  # keep clear of the clamp kink
        labels = rng.integers(0, 2, size=3)
        assert grad_check(graph, batch, labels, h=1e-5) < 1e-4
