"""The tracer's self-time accounting and its patching of cspnet.

Run from the repository root:  python3 -m pytest cspbench/tests
"""

import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import cspnet.harness as harness  # noqa: E402
import cspnet.nn.layers as layers  # noqa: E402
from cspnet.errors import CspnetError  # noqa: E402
from cspnet.models import BackboneSpec, build_backbone  # noqa: E402
from spans import Tracer  # noqa: E402


def test_self_times_partition_the_root_span():
    tracer = Tracer()
    with tracer.span("root"):
        with tracer.span("a"):
            time.sleep(0.01)
            with tracer.span("b"):
                time.sleep(0.01)
        with tracer.span("b"):
            time.sleep(0.005)
    root = next(s for s in tracer.spans if s[3] == "root")
    total_self = sum(tracer.self_s.values())
    assert abs(total_self - root[5]) < 1e-9
    assert tracer.self_s[("setup", "b")] >= 0.015
    assert tracer.self_s[("setup", "a")] < root[5] - 0.015
    parents = {s[0]: s[1] for s in tracer.spans}
    assert parents[root[0]] == -1


def test_install_traces_layers_and_uninstall_restores():
    originals = (layers.forward, harness.model_backward)
    graph = build_backbone(BackboneSpec("shallowcnn", 4, 64, 32.0, 2))
    x = np.random.default_rng(0).standard_normal((3, 1, 4, 64))
    tracer = Tracer()
    tracer.install()
    try:
        harness.model_backward(graph, x, np.array([0, 1, 0]))
    finally:
        tracer.uninstall()
    assert (layers.forward, harness.model_backward) == originals
    assert tracer.counts[("setup", "nn.graph.backward_calls")] == 1
    assert tracer.counts[("setup", "nn.layers.conv2d.calls")] == 2
    assert tracer.self_s[("setup", "nn.layers.conv2d.bwd")] > 0
    # every layer span sits under the graph-level backward span
    backward_id = next(s[0] for s in tracer.spans
                       if s[3] == "nn.graph.backward")
    assert all(s[1] == backward_id for s in tracer.spans
               if s[3].startswith("nn.layers."))


def test_decode_probe_times_batches_keeps_trained_and_restores():
    from workloads import DecodeProbe

    originals = (harness.model_forward, harness.train_model)
    graph = build_backbone(BackboneSpec("shallowcnn", 4, 64, 32.0, 2))
    x = np.random.default_rng(0).standard_normal((5, 1, 4, 64))
    with DecodeProbe() as probe:
        harness.model_forward(graph, x, mode="eval")
        harness.model_forward(graph, x[:2], mode="eval")
        try:  # the probe keeps the model before train_model rejects the call
            harness.train_model(graph, SimpleNamespace(trials=[]), "test-set",
                                None)
        except CspnetError:
            pass
    assert (harness.model_forward, harness.train_model) == originals
    assert probe.batch_trials == 7
    assert probe.batch_seconds > 0
    assert probe.trained == [(graph, "test-set")]
