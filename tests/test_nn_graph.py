"""Model graphs: building, loss, backward, Adam, freezing, checkpoints."""

import json

import numpy as np
import pytest

from cspnet.csp import CSPModel
from cspnet.cspnets import CspLayerMode, make_cspnet1, make_cspnet2
from cspnet.errors import BuildError, CorruptionError, FormatError, ParameterError
from cspnet.models import BackboneSpec
from cspnet.nn import (
    LayerSpec,
    ModelGraph,
    adam_step,
    grad_check,
    init_adam,
    load_checkpoint,
    model_backward,
    model_forward,
    save_checkpoint,
    softmax_xent,
)
from cspnet.nn import layers
from cspnet.rng import substream


def tiny_net(seed=0):
    specs = [
        LayerSpec("conv2d", name="conv", out_maps=2, kernel=(2, 3), bias=False),
        LayerSpec("batchnorm", name="bn"),
        LayerSpec("elu"),
        LayerSpec("maxpool", window=(1, 2)),
        LayerSpec("dropout", p=0.25),
        LayerSpec("flatten"),
        LayerSpec("dense", name="head", units=3),
    ]
    return ModelGraph(specs, input_shape=(1, 4, 12), seed=seed)


def batch_for(graph, n=5, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n,) + graph.input_shape)
    y = rng.integers(0, graph.output_shape[0], size=n)
    return x, y


class TestSoftmaxXent:
    def test_uniform_logits(self):
        loss, _ = softmax_xent(np.zeros((2, 4)), [0, 3])
        assert abs(loss - np.log(4.0)) < 1e-12

    def test_huge_margin_no_overflow(self):
        logits = np.array([[1000.0, 0.0, 0.0]])
        loss, grad = softmax_xent(logits, [0])
        assert loss <= 1e-9
        assert np.all(np.isfinite(grad))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((4, 3))
        labels = rng.integers(0, 3, size=4)
        _, grad = softmax_xent(logits, labels)
        h = 1e-6
        for i in range(4):
            for j in range(3):
                up = logits.copy()
                up[i, j] += h
                down = logits.copy()
                down[i, j] -= h
                numeric = (
                    softmax_xent(up, labels)[0] - softmax_xent(down, labels)[0]
                ) / (2 * h)
                assert abs(numeric - grad[i, j]) <= 1e-6 * max(
                    1.0, abs(numeric)
                )

    def test_empty_batch_rejected(self):
        with pytest.raises(ParameterError):
            softmax_xent(np.zeros((0, 3)), [])

    def test_label_out_of_range(self):
        with pytest.raises(ParameterError):
            softmax_xent(np.zeros((1, 3)), [3])


class TestBuild:
    def test_symbolic_shapes_match_runtime(self):
        graph = tiny_net()
        x, _ = batch_for(graph)
        for i, spec in enumerate(graph.specs):
            x, _ = layers.forward(
                spec, graph.layer_params(i), graph.layer_buffers(i), x, "eval",
                None,
            )
            assert x.shape[1:] == graph.shapes[i]

    def test_incompatible_stack_fails_at_build(self):
        with pytest.raises(BuildError):
            ModelGraph(
                [LayerSpec("dense", units=2)], input_shape=(1, 4, 12)
            )
        with pytest.raises(BuildError):
            ModelGraph(
                [LayerSpec("conv2d", out_maps=2, kernel=(9, 1))],
                input_shape=(1, 4, 12),
            )

    def test_duplicate_names_rejected(self):
        with pytest.raises(BuildError):
            ModelGraph(
                [
                    LayerSpec("elu", name="twin"),
                    LayerSpec("square", name="twin"),
                    LayerSpec("flatten"),
                    LayerSpec("dense", units=2),
                ],
                input_shape=(1, 2, 4),
            )

    def test_init_deterministic_per_seed(self):
        a = tiny_net(seed=5)
        b = tiny_net(seed=5)
        c = tiny_net(seed=6)
        np.testing.assert_array_equal(
            a.params["conv.weight"].value, b.params["conv.weight"].value
        )
        assert not np.array_equal(
            a.params["conv.weight"].value, c.params["conv.weight"].value
        )


class TestForward:
    def test_eval_deterministic(self):
        graph = tiny_net()
        x, _ = batch_for(graph)
        a = model_forward(graph, x, mode="eval")
        b = model_forward(graph, x, mode="eval")
        np.testing.assert_array_equal(a, b)

    def test_logits_shape(self):
        graph = tiny_net()
        x, _ = batch_for(graph, n=7)
        assert model_forward(graph, x, mode="eval").shape == (7, 3)

    def test_nan_input_rejected(self):
        graph = tiny_net()
        x, _ = batch_for(graph)
        x[0, 0, 0, 0] = np.nan
        with pytest.raises(ParameterError):
            model_forward(graph, x, mode="eval")

    def test_wrong_shape_rejected(self):
        graph = tiny_net()
        with pytest.raises(ParameterError):
            model_forward(graph, np.zeros((2, 1, 5, 12)), mode="eval")

    def test_train_mode_deterministic_given_stream(self):
        graph = tiny_net()
        x, _ = batch_for(graph)
        a = model_forward(graph, x, mode="train", dropout_rng=substream(3, "d"))
        b = model_forward(graph, x, mode="train", dropout_rng=substream(3, "d"))
        np.testing.assert_array_equal(a, b)


class TestBackward:
    def test_frozen_parameter_grad_stays_zero(self):
        graph = tiny_net()
        graph.params["conv.weight"].trainable = False
        x, y = batch_for(graph)
        model_backward(graph, x, y, dropout_rng=substream(0, "d"))
        np.testing.assert_array_equal(graph.params["conv.weight"].grad, 0.0)
        assert np.any(graph.params["head.weight"].grad != 0.0)

    def test_same_dropout_stream_identical_gradients(self):
        graph = tiny_net()
        x, y = batch_for(graph)
        model_backward(graph, x, y, dropout_rng=substream(1, "d"))
        first = {n: p.grad.copy() for n, p in graph.params.items()}
        model_backward(graph, x, y, dropout_rng=substream(1, "d"))
        for n, p in graph.params.items():
            np.testing.assert_array_equal(first[n], p.grad)

    def test_backward_requires_train_mode(self):
        graph = tiny_net()
        graph.set_mode("eval")
        x, y = batch_for(graph)
        with pytest.raises(ParameterError):
            model_backward(graph, x, y)

    def test_whole_net_grad_check(self):
        graph = tiny_net()
        x, y = batch_for(graph, n=3)
        assert grad_check(graph, x, y, h=1e-5) < 1e-3

    def test_all_frozen_grad_check_zero(self):
        graph = tiny_net()
        for p in graph.params.values():
            p.trainable = False
        x, y = batch_for(graph, n=2)
        assert grad_check(graph, x, y) == 0.0


def frozen_cspnet(maker):
    """An EEGNet CSP-Net at 6 channels whose filter layer is frozen."""
    backbone = BackboneSpec("eegnet", n_channels=6, n_samples=64, fs=32,
                            n_classes=2)
    w = np.random.default_rng(0).standard_normal((6, 4))
    csp = CSPModel(W=w, eigenvalues=np.ones(4), f=4, scheme="binary")
    return maker(backbone, csp, CspLayerMode("fix")).graph


class TestBackwardSweep:
    """The reverse sweep stops at the lowest layer with a trainable
    parameter, which is asked for parameter gradients only."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        real = layers.backward

        def spy(spec, values, cache, gy, want_param_grads, **kwargs):
            seen.append((spec.name, want_param_grads,
                         kwargs.get("want_input_grad", True)))
            return real(spec, values, cache, gy, want_param_grads, **kwargs)

        monkeypatch.setattr(layers, "backward", spy)
        return seen

    @staticmethod
    def step(graph):
        x, y = batch_for(graph, n=3)
        return model_backward(graph, x, y, dropout_rng=substream(0, "d"))

    def test_frozen_projection_gets_no_backward(self, calls):
        self.step(frozen_cspnet(make_cspnet1))
        names = [name for name, _, _ in calls]
        assert "csp_projection" not in names
        assert "csp_permute" not in names
        assert calls[-1] == ("temporal", True, False)
        assert all(want_input for _, _, want_input in calls[:-1])

    def test_lowest_layer_skips_its_input_gradient(self, calls):
        graph = tiny_net()
        self.step(graph)
        assert calls[-1] == ("conv", True, False)
        assert len(calls) == len(graph.specs)

    def test_frozen_middle_layer_passes_its_input_gradient(self, calls):
        self.step(frozen_cspnet(make_cspnet2))
        assert ("spatial_filter", False, True) in calls
        assert calls[-1] == ("temporal", True, False)

    def test_all_frozen_graph_runs_no_backward(self, calls):
        graph = tiny_net()
        for p in graph.params.values():
            p.trainable = False
            p.grad[...] = 1.0
        loss = self.step(graph)
        assert calls == []
        assert loss == self.step(tiny_net())
        for p in graph.params.values():
            np.testing.assert_array_equal(p.grad, 0.0)


def scalar_graph():
    """Dense 1 -> 1 net whose weight acts as a lone scalar parameter."""
    graph = ModelGraph(
        [LayerSpec("flatten"), LayerSpec("dense", name="d", units=1)],
        input_shape=(1, 1, 1),
    )
    graph.params["d.weight"].value[...] = 0.0
    graph.params["d.bias"].trainable = False
    return graph


class TestAdam:
    def test_first_step_textbook_value(self):
        graph = scalar_graph()
        state = init_adam(graph, lr=0.01)
        graph.params["d.weight"].grad[...] = 1.0
        adam_step(state, graph)
        got = graph.params["d.weight"].value[0, 0]
        assert abs(got - (-0.0099999999)) < 1e-9

    def test_moments_after_two_constant_steps(self):
        graph = scalar_graph()
        state = init_adam(graph, lr=0.01)
        for _ in range(2):
            graph.params["d.weight"].grad[...] = 1.0
            adam_step(state, graph)
        assert abs(state.m["d.weight"][0, 0] - 0.19) < 1e-12
        assert abs(state.v["d.weight"][0, 0] - 0.001999) < 1e-12
        assert state.step == 2

    def test_frozen_parameter_untouched(self):
        graph = tiny_net()
        graph.params["conv.weight"].trainable = False
        before = graph.params["conv.weight"].value.copy()
        state = init_adam(graph, lr=0.1, weight_decay=0.01)
        x, y = batch_for(graph)
        for _ in range(3):
            model_backward(graph, x, y, dropout_rng=substream(0, "d"))
            adam_step(state, graph)
        np.testing.assert_array_equal(graph.params["conv.weight"].value, before)

    def test_zero_lr_keeps_parameters_bitwise(self):
        graph = tiny_net()
        before = {n: p.value.copy() for n, p in graph.params.items()}
        state = init_adam(graph, lr=0.0, weight_decay=0.0005)
        x, y = batch_for(graph)
        model_backward(graph, x, y, dropout_rng=substream(0, "d"))
        adam_step(state, graph)
        for n, p in graph.params.items():
            np.testing.assert_array_equal(before[n], p.value)

    def test_decay_skipped_for_exempt_parameters(self):
        graph = tiny_net()
        state = init_adam(graph, lr=0.01, weight_decay=0.1)
        graph.zero_grads()  # zero grads isolate the decay term
        adam_step(state, graph)
        assert not np.array_equal(
            graph.params["conv.weight"].value,
            tiny_net().params["conv.weight"].value,
        )
        np.testing.assert_array_equal(graph.params["bn.gamma"].value, 1.0)
        np.testing.assert_array_equal(graph.params["head.bias"].value, 0.0)

    def test_negative_lr_rejected(self):
        with pytest.raises(ParameterError):
            init_adam(tiny_net(), lr=-0.1)


class TestCheckpoint:
    def _trained(self):
        graph = tiny_net(seed=4)
        graph.params["conv.weight"].trainable = False
        state = init_adam(graph, lr=0.01, weight_decay=0.0005)
        x, y = batch_for(graph)
        for i in range(3):
            model_backward(graph, x, y, dropout_rng=substream(i, "d"))
            adam_step(state, graph)
        graph.set_mode("eval")
        return graph

    def test_round_trip_bit_identical(self, tmp_path):
        graph = self._trained()
        save_checkpoint(graph, tmp_path / "model.bin")
        back = load_checkpoint(tmp_path / "model.bin")
        x, _ = batch_for(graph)
        np.testing.assert_array_equal(
            model_forward(graph, x, mode="eval"),
            model_forward(back, x, mode="eval"),
        )
        assert back.mode == "eval"
        assert back.params["conv.weight"].trainable is False
        assert back.params["bn.gamma"].decay_exempt is True
        for name, buf in graph.buffers.items():
            np.testing.assert_array_equal(back.buffers[name], buf)

    def test_bad_magic(self, tmp_path):
        (tmp_path / "junk.bin").write_bytes(b"hello world\n")
        with pytest.raises(FormatError):
            load_checkpoint(tmp_path / "junk.bin")

    def test_truncated_payload(self, tmp_path):
        graph = self._trained()
        save_checkpoint(graph, tmp_path / "model.bin")
        raw = (tmp_path / "model.bin").read_bytes()
        (tmp_path / "cut.bin").write_bytes(raw[:-16])
        with pytest.raises(CorruptionError):
            load_checkpoint(tmp_path / "cut.bin")

    def test_trailing_garbage(self, tmp_path):
        graph = self._trained()
        save_checkpoint(graph, tmp_path / "model.bin")
        raw = (tmp_path / "model.bin").read_bytes()
        (tmp_path / "fat.bin").write_bytes(raw + b"\x00")
        with pytest.raises(CorruptionError):
            load_checkpoint(tmp_path / "fat.bin")

    def _rewritten(self, tmp_path, change_header):
        """A saved checkpoint whose header `change_header` edits in place;
        it returns how many trailing payload bytes to drop, if any."""
        graph = self._trained()
        save_checkpoint(graph, tmp_path / "model.bin")
        raw = (tmp_path / "model.bin").read_bytes()
        first, rest = raw.split(b"\n", 1)
        nbytes = int(first.rsplit(b" ", 1)[1])
        header = json.loads(rest[:nbytes])
        cut = change_header(header) or 0
        blob = json.dumps(header).encode()
        payload = rest[nbytes:len(rest) - cut]
        (tmp_path / "bad.bin").write_bytes(
            first.rsplit(b" ", 1)[0] + f" {len(blob)}\n".encode()
            + blob + payload
        )
        return tmp_path / "bad.bin"

    def test_buffer_shape_mismatch(self, tmp_path):
        def grow_first_buffer(header):
            header["buffers"][0]["shape"] = [header["buffers"][0]["shape"][0] + 1]

        path = self._rewritten(tmp_path, grow_first_buffer)
        with pytest.raises(CorruptionError, match="buffer"):
            load_checkpoint(path)

    def test_buffer_missing_from_manifest(self, tmp_path):
        # drop the last buffer's entry and its payload, so nothing else is off
        def drop_last_buffer(header):
            return 8 * int(np.prod(header["buffers"].pop()["shape"]))

        path = self._rewritten(tmp_path, drop_last_buffer)
        with pytest.raises(CorruptionError, match="buffer manifest"):
            load_checkpoint(path)
