"""CSP-Net assembly: projection wiring, kernel replication, layer modes."""

import numpy as np
import pytest

from conftest import make_separable_epochset
from cspnet.csp import (
    CSPModel,
    apply_filters,
    class_mean_covariance,
    default_ridge,
    solve_csp,
)
from cspnet.cspnets import (
    CspLayerMode,
    csp_layer_weights,
    make_cspnet1,
    make_cspnet2,
    save_csp_layer_csv,
)
from cspnet.errors import ParameterError, WriteError
from cspnet.models import BackboneSpec, build_backbone
from cspnet.nn import adam_step, init_adam, model_backward
from cspnet.nn.layers import layer_forward
from cspnet.rng import substream

FULL = dict(n_samples=1000, fs=250, n_classes=4)
MINI = dict(n_samples=64, fs=32, n_classes=2)


def random_csp(c, f, seed=0):
    """Synthetic filter bank; construction never looks at how W was fit."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((c, f))
    vals = np.sort(rng.uniform(0.1, 2.0, size=f))[::-1]
    return CSPModel(W=w, eigenvalues=vals, f=f, scheme="binary")


def fitted_csp(c=6, f=4, seed=0):
    epochs = make_separable_epochset(n_per_class=30, c=c, t=64, seed=seed)
    c1 = class_mean_covariance(epochs, 0)
    c2 = class_mean_covariance(epochs, 1)
    return solve_csp(c1, c2, f, default_ridge(c2)), epochs


def take_adam_steps(graph, n_steps=2, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((4,) + graph.input_shape)
    y = rng.integers(0, 2, size=4)
    graph.set_mode("train")
    state = init_adam(graph, lr=0.01, weight_decay=0.0005)
    for i in range(n_steps):
        graph.zero_grads()
        model_backward(graph, x, y, dropout_rng=substream(seed, "step", i))
        adam_step(state, graph)


class TestLayerMode:
    def test_unknown_variant_rejected(self):
        with pytest.raises(ParameterError):
            CspLayerMode("frozen")

    def test_trainable_flags(self):
        assert CspLayerMode("fix").trainable is False
        assert CspLayerMode("upd").trainable is True
        assert CspLayerMode("rad").trainable is True


class TestCspNet1:
    def test_full_size_wiring(self):
        csp = random_csp(22, 8)
        spec = BackboneSpec("eegnet", n_channels=22, **FULL)
        model = make_cspnet1(spec, csp, CspLayerMode("fix"))
        assert model.family == "cspnet1"
        assert model.backbone_kind == "eegnet"
        assert model.graph.layer_names[:2] == ["csp_projection", "csp_permute"]
        assert model.graph.shapes[0] == (8, 1, 1000)
        assert model.graph.shapes[1] == (1, 8, 1000)
        # backbone spatial kernels now span the 8 filtered channels
        spatial = model.graph.parameter("spatial_filter.weight")
        assert spatial.value.shape == (8, 1, 8, 1)

    def test_fix_weights_equal_columns(self):
        csp = random_csp(22, 8)
        spec = BackboneSpec("eegnet", n_channels=22, **FULL)
        model = make_cspnet1(spec, csp, CspLayerMode("fix"))
        w = model.csp_param().value
        for i in range(8):
            np.testing.assert_array_equal(w[i, 0, :, 0], csp.W[:, i])
        np.testing.assert_array_equal(csp_layer_weights(model), csp.W)

    def test_first_layer_output_matches_apply_filters(self):
        csp, epochs = fitted_csp()
        spec = BackboneSpec("eegnet", n_channels=6, **MINI)
        model = make_cspnet1(spec, csp, CspLayerMode("fix"))
        trials = epochs.x[:3]
        out = layer_forward(model.graph.specs[0], model.graph.layer_params(0),
                            trials[:, None])
        assert out.shape == (3, 4, 1, 64)
        for n, trial in enumerate(trials):
            np.testing.assert_allclose(
                out[n, :, 0, :], apply_filters(csp, trial), rtol=0, atol=1e-12
            )

    @pytest.mark.parametrize("kind", ["eegnet", "shallowcnn", "deepcnn"])
    def test_parameter_count_ledger(self, kind):
        csp = random_csp(6, 4)
        spec = BackboneSpec(kind, n_channels=6, **MINI)
        model = make_cspnet1(spec, csp, CspLayerMode("upd"))
        inner = build_backbone(BackboneSpec(kind, n_channels=4, **MINI))
        assert model.graph.n_parameters() == inner.n_parameters() + 6 * 4

    def test_channel_mismatch_rejected(self):
        spec = BackboneSpec("eegnet", n_channels=6, **MINI)
        with pytest.raises(ParameterError):
            make_cspnet1(spec, random_csp(4, 4), CspLayerMode("fix"))

    def test_fix_is_frozen_through_training(self):
        csp, _ = fitted_csp()
        spec = BackboneSpec("eegnet", n_channels=6, **MINI)
        model = make_cspnet1(spec, csp, CspLayerMode("fix"), seed=1)
        before_cls = model.graph.parameter("classifier.weight").value.copy()
        take_adam_steps(model.graph)
        np.testing.assert_array_equal(csp_layer_weights(model), csp.W)
        assert not np.array_equal(
            model.graph.parameter("classifier.weight").value, before_cls
        )

    def test_upd_moves_after_one_step(self):
        csp, _ = fitted_csp()
        spec = BackboneSpec("eegnet", n_channels=6, **MINI)
        model = make_cspnet1(spec, csp, CspLayerMode("upd"), seed=1)
        take_adam_steps(model.graph, n_steps=1)
        assert not np.array_equal(csp_layer_weights(model), csp.W)

    def test_frozen_projection_leaves_rest_trainable(self):
        csp = random_csp(6, 4)
        spec = BackboneSpec("eegnet", n_channels=6, **MINI)
        model = make_cspnet1(spec, csp, CspLayerMode("fix"))
        for name, p in model.graph.params.items():
            expected = not name.startswith("csp_projection.")
            assert p.trainable is expected

    def test_rad_depends_only_on_mode_seed(self):
        csp = random_csp(6, 4)
        spec = BackboneSpec("eegnet", n_channels=6, **MINI)
        a = make_cspnet1(spec, csp, CspLayerMode("rad", seed=5), seed=0)
        b = make_cspnet1(spec, csp, CspLayerMode("rad", seed=5), seed=9)
        c = make_cspnet1(spec, csp, CspLayerMode("rad", seed=6), seed=0)
        np.testing.assert_array_equal(csp_layer_weights(a), csp_layer_weights(b))
        assert not np.array_equal(csp_layer_weights(a), csp_layer_weights(c))
        assert not np.array_equal(csp_layer_weights(a), csp.W)

    def test_rad_manifest_matches_upd_except_csp_layer(self):
        csp = random_csp(6, 4)
        spec = BackboneSpec("eegnet", n_channels=6, **MINI)
        upd = make_cspnet1(spec, csp, CspLayerMode("upd"), seed=2)
        rad = make_cspnet1(spec, csp, CspLayerMode("rad", seed=7), seed=2)
        assert upd.graph.layer_names == rad.graph.layer_names
        assert list(upd.graph.params) == list(rad.graph.params)
        for name in upd.graph.params:
            pu, pr = upd.graph.params[name], rad.graph.params[name]
            assert pu.value.shape == pr.value.shape
            assert pu.trainable == pr.trainable
            if name == "csp_projection.weight":
                assert not np.array_equal(pu.value, pr.value)
            else:
                np.testing.assert_array_equal(pu.value, pr.value)


def slot_columns(model):
    """Map each spatial kernel back to the filter column it carries."""
    w = model.csp_param().value
    csp = model.csp_source
    cols = []
    for i in range(w.shape[0]):
        matches = [
            j
            for j in range(csp.f)
            if np.array_equal(w[i, 0, :, 0], csp.W[:, j])
        ]
        assert len(matches) == 1
        cols.append(matches[0])
    return cols


class TestCspNet2:
    def test_eegnet_kernels_in_order(self):
        csp = random_csp(22, 8)
        spec = BackboneSpec("eegnet", n_channels=22, **FULL)
        model = make_cspnet2(spec, csp, CspLayerMode("fix"))
        assert model.family == "cspnet2"
        assert slot_columns(model) == list(range(8))
        np.testing.assert_array_equal(csp_layer_weights(model), csp.W)

    def test_shallow_multiset_each_column_five_times(self):
        csp = random_csp(22, 8)
        spec = BackboneSpec("shallowcnn", n_channels=22, **FULL)
        model = make_cspnet2(spec, csp, CspLayerMode("fix"))
        w = model.csp_param().value
        assert w.shape == (40, 40, 22, 1)
        # every input slice of a kernel carries the same column
        for i in range(40):
            assert np.all(w[i] == w[i, :1])
        counts = np.bincount(slot_columns(model), minlength=8)
        assert counts.tolist() == [5] * 8

    def test_deep_multiset_three_each_plus_one_extra(self):
        csp = random_csp(22, 8)
        spec = BackboneSpec("deepcnn", n_channels=22, **FULL)
        model = make_cspnet2(spec, csp, CspLayerMode("fix"))
        counts = np.bincount(slot_columns(model), minlength=8)
        assert sorted(counts.tolist()) == [3] * 7 + [4]

    def test_uneven_extras_are_distinct_columns(self):
        # 40 slots over 12 filters: 3 copies each plus 4 distinct extras
        csp = random_csp(22, 12)
        spec = BackboneSpec("shallowcnn", n_channels=22, **FULL)
        model = make_cspnet2(spec, csp, CspLayerMode("fix"))
        counts = np.bincount(slot_columns(model), minlength=12)
        assert sorted(counts.tolist()) == [3] * 8 + [4] * 4

    def test_extra_slot_choice_seeded(self):
        csp = random_csp(6, 4)
        spec = BackboneSpec("deepcnn", n_channels=6, **MINI)
        a = make_cspnet2(spec, csp, CspLayerMode("fix", seed=3))
        b = make_cspnet2(spec, csp, CspLayerMode("fix", seed=3))
        np.testing.assert_array_equal(
            a.csp_param().value, b.csp_param().value
        )
        extras = set()
        for seed in range(8):
            m = make_cspnet2(spec, csp, CspLayerMode("fix", seed=seed))
            counts = np.bincount(slot_columns(m), minlength=4)
            extras.add(int(np.argmax(counts)))
        assert len(extras) > 1

    def test_too_few_kernels_rejected(self):
        csp = random_csp(16, 12)
        spec = BackboneSpec("eegnet", n_channels=16, **MINI)
        with pytest.raises(ParameterError):
            make_cspnet2(spec, csp, CspLayerMode("fix"))

    def test_channel_mismatch_rejected(self):
        spec = BackboneSpec("shallowcnn", n_channels=6, **MINI)
        with pytest.raises(ParameterError):
            make_cspnet2(spec, random_csp(5, 4), CspLayerMode("fix"))

    @pytest.mark.parametrize("kind", ["eegnet", "shallowcnn", "deepcnn"])
    def test_parameter_count_equals_backbone(self, kind):
        csp = random_csp(6, 4)
        spec = BackboneSpec(kind, n_channels=6, **MINI)
        model = make_cspnet2(spec, csp, CspLayerMode("upd"))
        assert model.graph.n_parameters() == build_backbone(spec).n_parameters()

    def test_only_spatial_kernels_touched(self):
        csp = random_csp(6, 4)
        spec = BackboneSpec("shallowcnn", n_channels=6, **MINI)
        model = make_cspnet2(spec, csp, CspLayerMode("fix"), seed=4)
        plain = build_backbone(spec, seed=4)
        assert model.graph.layer_names == plain.layer_names
        for name in plain.params:
            if name == "spatial_filter.weight":
                continue
            np.testing.assert_array_equal(
                model.graph.params[name].value, plain.params[name].value
            )
            assert model.graph.params[name].trainable

    def test_fix_is_frozen_through_training(self):
        csp, _ = fitted_csp()
        spec = BackboneSpec("shallowcnn", n_channels=6, **MINI)
        model = make_cspnet2(spec, csp, CspLayerMode("fix"), seed=1)
        frozen = model.csp_param().value.copy()
        before_temporal = model.graph.parameter("temporal.weight").value.copy()
        take_adam_steps(model.graph)
        np.testing.assert_array_equal(model.csp_param().value, frozen)
        assert not np.array_equal(
            model.graph.parameter("temporal.weight").value, before_temporal
        )

    def test_upd_moves_after_one_step(self):
        csp, _ = fitted_csp()
        spec = BackboneSpec("shallowcnn", n_channels=6, **MINI)
        model = make_cspnet2(spec, csp, CspLayerMode("upd"), seed=1)
        take_adam_steps(model.graph, n_steps=1)
        assert not np.array_equal(csp_layer_weights(model), csp.W[:, [0, 1, 2, 3] * 10])

    def test_rad_reinitializes_kernels(self):
        csp = random_csp(6, 4)
        spec = BackboneSpec("eegnet", n_channels=6, **MINI)
        model = make_cspnet2(spec, csp, CspLayerMode("rad", seed=2))
        again = make_cspnet2(spec, csp, CspLayerMode("rad", seed=2))
        assert model.csp_param().value.shape == (8, 1, 6, 1)
        assert not np.array_equal(csp_layer_weights(model), csp.W[:, [0, 1, 2, 3] * 2])
        np.testing.assert_array_equal(
            model.csp_param().value, again.csp_param().value
        )


class TestWeightExport:
    def test_weights_average_input_slices(self):
        csp = random_csp(6, 4)
        spec = BackboneSpec("deepcnn", n_channels=6, **MINI)
        model = make_cspnet2(spec, csp, CspLayerMode("upd"), seed=1)
        take_adam_steps(model.graph, n_steps=1)
        w = model.csp_param().value
        np.testing.assert_allclose(
            csp_layer_weights(model), w.mean(axis=1)[:, :, 0].T
        )

    def test_csv_round_trip(self, tmp_path):
        csp = random_csp(6, 4)
        spec = BackboneSpec("eegnet", n_channels=6, **MINI)
        model = make_cspnet1(spec, csp, CspLayerMode("fix"))
        path = tmp_path / "filters.csv"
        save_csp_layer_csv(model, path)
        back = np.loadtxt(path, delimiter=",")
        assert back.shape == (6, 4)
        np.testing.assert_array_equal(back, csp.W)

    def test_csv_write_failure(self, tmp_path):
        blocker = tmp_path / "occupied"
        blocker.write_text("x")
        csp = random_csp(6, 4)
        spec = BackboneSpec("eegnet", n_channels=6, **MINI)
        model = make_cspnet1(spec, csp, CspLayerMode("fix"))
        with pytest.raises(WriteError):
            save_csp_layer_csv(model, blocker / "filters.csv")
