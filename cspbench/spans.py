"""In-memory span tracer that wraps cspnet's public functions from outside.

Spans are recorded around calls into the package by swapping module
attributes for timing wrappers; the package's source is never edited.
Each span keeps its name, start, duration and parent, and its self time
(duration minus the time covered by its child spans). Counters are kept at
the same boundaries. `install` patches, `uninstall` restores the originals,
so untraced and traced rounds can alternate in one process.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

LAYER_KINDS = ("conv2d", "batchnorm", "elu", "avgpool", "maxpool")


def layer_group(kind: str) -> str:
    return kind if kind in LAYER_KINDS else "other"


class Tracer:
    """Nested spans and counters, grouped by phase ("setup" or "round")."""

    def __init__(self) -> None:
        self.phase = "setup"
        self.spans: list[tuple] = []  # (id, parent, phase, name, start, dur)
        self.self_s: dict = defaultdict(float)  # (phase, name) -> seconds
        self.counts: dict = defaultdict(int)  # (phase, name) -> count
        self._stack: list[list] = []  # [span id, child seconds]
        self._saved: list[tuple] = []

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append(None)  # reserve the id; filled on exit
        frame = [sid, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            dur = time.perf_counter() - start
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += dur
            self.spans[sid] = (sid, parent, self.phase, name, start, dur)
            self.self_s[(self.phase, name)] += dur - frame[1]

    def count(self, name: str, n: int = 1) -> None:
        self.counts[(self.phase, name)] += n

    # -- patching ----------------------------------------------------------

    def _patch(self, module, attr: str, wrapper_factory) -> None:
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, wrapper_factory(original))

    def wrap(self, module, attr: str, name: str, counter: str | None = None,
             amount=None) -> None:
        """Replace module.attr by a spanned call; `amount(args, result)`
        gives the counter increment (1 per call when omitted)."""

        def factory(fn):
            def traced(*args, **kwargs):
                with self.span(name):
                    result = fn(*args, **kwargs)
                if counter is not None:
                    self.count(counter, 1 if amount is None
                               else amount(args, result))
                return result
            return traced

        self._patch(module, attr, factory)

    def wrap_layer_pass(self, module, attr: str, suffix: str) -> None:
        """Span one nn.layers forward/backward call under its layer kind."""

        def factory(fn):
            def traced(spec, *args, **kwargs):
                group = layer_group(spec.kind)
                with self.span(f"nn.layers.{group}.{suffix}"):
                    result = fn(spec, *args, **kwargs)
                if suffix == "fwd":
                    self.count(f"nn.layers.{group}.calls")
                return result
            return traced

        self._patch(module, attr, factory)

    def install(self) -> None:
        import cspnet.csp as csp
        import cspnet.data as data
        import cspnet.harness as harness
        import cspnet.nn as nn
        import cspnet.nn.layers as layers

        n_trials = lambda args, result: len(result.trials)
        batch_rows = lambda args, result: int(args[1].shape[0])
        n_records = lambda args, result: len(result)
        self.wrap(data, "load_epochset", "data.load", "data.trials_loaded",
                  n_trials)
        self.wrap(data, "bandpass_filter", "data.bandpass")
        self.wrap(harness, "design_csp", "csp.design", "csp.design_calls")
        for module in (csp, harness):
            self.wrap(module, "trial_covariance", "csp.covariance",
                      "csp.trial_covariance_calls")
        self.wrap(harness, "train_csp_lr", "csp.lr_train")
        self.wrap(harness, "predict_csp_lr", "csp.lr_predict",
                  "csp.lr_predict_calls")
        self.wrap(harness, "build_backbone", "models.build")
        for attr in ("make_cspnet1", "make_cspnet2"):
            self.wrap(harness, attr, "cspnets.build")
        self.wrap(harness, "model_backward", "nn.graph.backward",
                  "nn.graph.backward_calls")
        for module in (harness, nn):
            self.wrap(module, "model_forward", "nn.graph.forward_eval",
                      "nn.graph.forward_eval_trials", batch_rows)
        self.wrap_layer_pass(layers, "forward", "fwd")
        self.wrap_layer_pass(layers, "backward", "bwd")
        self.wrap(harness, "adam_step", "nn.optim.adam", "nn.optim.adam_steps")
        self.wrap(harness, "train_model", "harness.train_model")
        for attr in ("run_within_subject", "run_cross_subject"):
            self.wrap(harness, attr, "harness.protocol", "harness.runs",
                      n_records)
        self.wrap(harness, "export_report", "harness.report")

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        """Dump every span as JSON lines: id, parent, phase, name, start, dur."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, phase, name, start, dur in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent,
                                     "phase": phase, "name": name,
                                     "start": start, "dur": dur}) + "\n")
