"""The benchmark's three workloads, driven through cspnet's public API.

Each workload has a set-up (counted in setup_s), a round (the unit of
measured work, repeated for the run's length with identical inputs), a
serving step after each round (single-trial requests to the networks the
round trained; the round itself on decode) and a verification pass over
what the rounds produced. Inputs are synthetic and derived from the
workload seed only; the shapes follow BCI IV-2a (22 electrodes, 4
motor-imagery classes, 2 s trials of 256 samples at 128 Hz).

Package functions are looked up on their modules at call time
(`harness.train_model`, `cnn.model_forward`, ...) so the tracer can wrap
them without touching the package's source.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import cspnet.csp as ccsp
import cspnet.data as cdata
import cspnet.harness as harness
import cspnet.nn as cnn
from cspnet.cspnets import CspLayerMode, CspNetModel
from cspnet.errors import CspnetError
from cspnet.models import BackboneSpec, trials_to_batch

import checks
from spans import Tracer

N_CHANNELS = 22
N_CLASSES = 4
N_FILTERS = 8
# BCI IV-2a epochs resampled to 128 Hz: 2 s of motor imagery, 256 samples
N_SAMPLES = 256
FS = 128.0
# Variance of each class's own electrode block over the unit background: it
# sets how hard the classes are to tell apart.
CONTRAST = 20.0
NOISE = 1.0
# Final train accuracy of every network must exceed chance (1/K) by this.
TRAIN_MARGIN = 0.25
# csp-lr separates the synthetic classes by construction.
CSP_LR_FLOOR = 0.9
# A rerun of the first round is part of the checks.
MIN_ROUNDS = 2
# Single-trial requests timed per round, cycling through the served trials:
# four of run.py's p99 windows, and ten samples beyond a round's own p99.
ROUND_REQUESTS = 1000


@dataclass
class RoundResult:
    seconds: float  # wall time of the round
    attempted: int
    failed: int
    accuracy: float  # mean final test accuracy, or share of correct decodes
    latencies: list  # seconds per timed decode call
    batch_trials: int  # trials decoded by batched eval-mode passes
    batch_seconds: float
    outputs: dict = field(default_factory=dict)  # what a rerun reproduces


def _synth(n_subjects: int, trials_per_class: int) -> cdata.SynthSpec:
    return cdata.SynthSpec(
        n_channels=N_CHANNELS, n_samples=N_SAMPLES, n_classes=N_CLASSES,
        class_covariances=cdata.default_class_covariances(
            N_CHANNELS, N_CLASSES, CONTRAST),
        trials_per_class=trials_per_class, noise_scale=NOISE,
        n_subjects=n_subjects, fs=FS)


def _stack(epochs) -> np.ndarray:
    return np.stack([tr.data for tr in epochs.trials])


def _check_csp_and_projection(train, test, backbone: str, seed: int) -> None:
    """Design CSP on `train` as the protocol does, check the filters
    against scipy, and check CSP-Net-1's projection on `test`."""
    csp = harness.design_csp(train, N_FILTERS, None)
    x = _stack(train)
    checks.check_csp_filters(csp.W, csp.eigenvalues, x, train.labels(),
                             checks.oracle_ridge(x))
    spec = BackboneSpec(backbone, N_CHANNELS, train.n_samples, train.fs,
                        N_CLASSES)
    model = harness.make_cspnet1(spec, csp, CspLayerMode("fix", seed=seed),
                                 seed=seed)
    x_test = _stack(test)
    graph = model.graph
    out = cnn.layer_forward(graph.specs[0], graph.layer_params(0),
                            x_test[:, None], mode="eval")
    checks.check_projection(out, csp.W, x_test)


def _check_networks_learned(records) -> None:
    floor = 1.0 / N_CLASSES + TRAIN_MARGIN
    for r in records:
        if r.approach == "csp-lr":
            checks.check_accuracy_floor("csp-lr test", r.final_test_acc,
                                        CSP_LR_FLOOR)
        else:
            checks.check_accuracy_floor(f"{r.approach} train",
                                        r.train_curve[-1], floor)


class DecodeProbe(Tracer):
    """While active, times the batched eval-mode passes a training protocol
    makes itself and keeps each network it trains with that network's test
    set, for the single-trial requests served after the protocol."""

    def __enter__(self):
        self.trained: list = []  # (model, test EpochSet) per train_model
        self.wrap(harness, "model_forward", "decode.batch",
                  "decode.batch_trials", lambda args, result: len(args[1]))
        self._patch(harness, "train_model", self._keep_trained)
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _keep_trained(self, fn):
        def kept(model, train, test, *args, **kwargs):
            self.trained.append((model, test))
            return fn(model, train, test, *args, **kwargs)
        return kept

    @property
    def batch_trials(self) -> int:
        return self.counts[(self.phase, "decode.batch_trials")]

    @property
    def batch_seconds(self) -> float:
        return self.self_s[(self.phase, "decode.batch")]


class ProtocolWorkload:
    """Shared round of the two training workloads: load the dataset
    directory, run one protocol per approach, export the report."""

    min_rounds = MIN_ROUNDS
    protocol = ""  # name of the harness protocol function
    backbone = ""
    approaches: tuple = ()
    band: tuple | None = None
    baseline: str | None = None
    protocol_options: dict = {}

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.data_dir = workdir / "data"
        self.report_dir = workdir / "report"

    def dataset_spec(self) -> cdata.SynthSpec:
        raise NotImplementedError

    def train_config(self) -> harness.TrainConfig:
        raise NotImplementedError

    def setup(self) -> None:
        dataset = cdata.synthesize_dataset(self.dataset_spec(), self.seed)
        cdata.save_epochset(dataset, self.data_dir)

    def _load(self):
        dataset = cdata.load_epochset(self.data_dir)
        if self.band is not None:
            dataset = cdata.bandpass_filter(dataset, *self.band)
        return dataset

    def round(self) -> RoundResult:
        cfg = self.train_config()
        records: list = []
        failed = 0
        with DecodeProbe() as probe:
            start = time.perf_counter()
            dataset = self._load()
            protocol = getattr(harness, self.protocol)
            for method in self.approaches:
                approach = harness.ApproachSpec(method, backbone=self.backbone,
                                                f=N_FILTERS)
                try:
                    records.extend(protocol(dataset, approach, repeats=1,
                                            base_seed=self.seed, cfg=cfg,
                                            **self.protocol_options))
                except CspnetError:
                    failed += 1
            report = harness.export_report(records, self.report_dir,
                                           baseline=self.baseline)
            seconds = time.perf_counter() - start
        return RoundResult(
            seconds=seconds, attempted=len(self.approaches), failed=failed,
            accuracy=float(np.mean([r.final_test_acc for r in records])),
            latencies=[], batch_trials=probe.batch_trials,
            batch_seconds=probe.batch_seconds,
            outputs={"records": records, "report": report,
                     "trained": probe.trained})

    def serve(self, result: RoundResult) -> None:
        """After the protocol, outside protocol_s: one closed-loop client
        sends ROUND_REQUESTS single-trial requests to the CSP-Net-1
        networks the round trained, cycling through each network's test
        trials, and the request latencies go into `result`. The trained
        models are then dropped; the single-trial and batched logits are
        kept for the checks."""
        nets = [(m.graph, trials_to_batch(test.trials))
                for m, test in result.outputs.pop("trained")
                if isinstance(m, CspNetModel) and m.family == "cspnet1"]
        order = [(i, j) for j in range(max(len(x) for _, x in nets))
                 for i, (_, x) in enumerate(nets) if j < len(x)]
        single = [[None] * len(x) for _, x in nets]
        for q in range(ROUND_REQUESTS):
            i, j = order[q % len(order)]
            graph, x = nets[i]
            t0 = time.perf_counter()
            logits = cnn.model_forward(graph, x[j : j + 1], mode="eval")[0]
            result.latencies.append(time.perf_counter() - t0)
            single[i][j] = logits
        result.outputs["served"] = [
            (np.stack(s), cnn.model_forward(graph, x, mode="eval"))
            for s, (graph, x) in zip(single, nets)]

    def first_cell(self, dataset):
        """(train, test) of the protocol's first cell."""
        raise NotImplementedError

    def verify(self, rounds: list) -> None:
        records = rounds[0].outputs["records"]
        for r in rounds[1:]:
            checks.check_same_records(records, r.outputs["records"])
        _check_networks_learned(records)
        checks.check_report(records, rounds[0].outputs["report"])
        checks.check_runs_csv(self.report_dir / "runs.csv", records)
        for single, batched in rounds[0].outputs["served"]:
            checks.check_logits(single, batched, np.argmax(single, axis=1))
        train, test = self.first_cell(self._load())
        _check_csp_and_projection(train, test, self.backbone, self.seed)


class WithinSubject(ProtocolWorkload):
    """The paper's main protocol on one subject with a small training set;
    EEGNet at full channel count, accuracy curves sampled every epoch."""

    protocol = "run_within_subject"
    backbone = "eegnet"
    approaches = ("csp-lr", "backbone", "cspnet1-fix", "cspnet2-upd")
    TRAIN_RATIO = 0.5
    protocol_options = {"train_ratio": TRAIN_RATIO}

    def dataset_spec(self):
        return _synth(n_subjects=1, trials_per_class=24)

    def train_config(self):
        return harness.TrainConfig(max_epochs=3, batch_size=8, eval_every=1,
                                   seed=self.seed)

    def first_cell(self, dataset):
        subject = cdata.by_subject(dataset)[0]
        plan = cdata.split_within_subject(subject, self.TRAIN_RATIO,
                                          self.seed)
        return subject.subset(plan.train_indices), subject.subset(
            plan.test_indices)


class CrossSubject(ProtocolWorkload):
    """Leave-one-subject-out over band-passed subjects: CSP design and the
    csp-lr fit on the other subjects' pooled trials, ShallowCNN on f
    surrogate channels, batches twice the within-subject size, accuracy at
    the final epoch only."""

    protocol = "run_cross_subject"
    backbone = "shallowcnn"
    approaches = ("csp-lr", "cspnet1-fix")
    band = (4.0, 24.0)
    baseline = "csp-lr"

    def dataset_spec(self):
        return _synth(n_subjects=3, trials_per_class=12)

    def train_config(self):
        return harness.TrainConfig(max_epochs=3, batch_size=16,
                                   eval_every=3, seed=self.seed)

    def first_cell(self, dataset):
        groups = cdata.by_subject(dataset)
        return cdata.split_loso(groups, groups[0].subjects()[0])


class Decode:
    """Serving: models trained during set-up, then one closed-loop client
    sends one held-out trial per request, cycling through the models,
    followed by one batched evaluate per network over the held-out set."""

    MODELS = (
        ("backbone", "eegnet"),
        ("backbone", "shallowcnn"),
        ("backbone", "deepcnn"),
        ("cspnet1-fix", "shallowcnn"),
        ("cspnet2-fix", "eegnet"),
        ("csp-lr", ""),
    )
    TRAIN_RATIO = 0.25  # of 40 trials per class: 10 train, 30 held out

    min_rounds = MIN_ROUNDS

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.data_dir = workdir / "data"

    def setup(self) -> None:
        spec = _synth(n_subjects=1, trials_per_class=40)
        cdata.save_epochset(cdata.synthesize_dataset(spec, self.seed),
                            self.data_dir)
        dataset = cdata.load_epochset(self.data_dir)
        plan = cdata.split_within_subject(dataset, self.TRAIN_RATIO, self.seed)
        train = dataset.subset(plan.train_indices)
        self.train = train
        self.held = dataset.subset(plan.test_indices)
        self.x_held = trials_to_batch(self.held.trials)
        self.y_held = self.held.labels()
        self.csp = harness.design_csp(train, N_FILTERS, None)
        cfg = harness.TrainConfig(max_epochs=8, batch_size=8, eval_every=8,
                                  seed=self.seed)
        self.models = []
        self.records = []
        for method, backbone in self.MODELS:
            if method == "csp-lr":
                ridge = ccsp.default_ridge(ccsp.SpatialCovariance(
                    np.mean([ccsp.trial_covariance(tr.data).matrix
                             for tr in train.trials], axis=0),
                    len(train.trials)))
                self.models.append(harness.train_csp_lr(train, N_FILTERS,
                                                        ridge, self.seed))
                continue
            bspec = BackboneSpec(backbone, N_CHANNELS, train.n_samples,
                                 train.fs, N_CLASSES)
            if method == "backbone":
                model = harness.build_backbone(bspec, seed=self.seed)
            else:
                maker = (harness.make_cspnet1 if method.startswith("cspnet1")
                         else harness.make_cspnet2)
                model = maker(bspec, self.csp,
                              CspLayerMode("fix", seed=self.seed),
                              seed=self.seed)
            # train accuracy doubles as the record's test set: no extra pass
            self.records.append(harness.train_model(
                model, train, train, cfg, approach=f"{method}-{backbone}"))
            self.models.append(model)

    def _decode(self, model, j: int):
        """One request: held-out trial j through `model`; returns
        (label, scores)."""
        if isinstance(model, ccsp.CspLrModel):
            label, probs = harness.predict_csp_lr(model,
                                                  self.held.trials[j].data)
            return label, probs
        graph = model.graph if isinstance(model, CspNetModel) else model
        logits = cnn.model_forward(graph, self.x_held[j : j + 1],
                                   mode="eval")[0]
        return int(np.argmax(logits)), logits

    def round(self) -> RoundResult:
        n = len(self.held.trials)
        labels = np.full(n, -1)
        scores: list = [None] * n
        latencies = []
        failed = 0
        start = time.perf_counter()
        for q in range(ROUND_REQUESTS):
            j = q % n  # trial j is always served by model j mod k
            model = self.models[j % len(self.models)]
            t0 = time.perf_counter()
            try:
                labels[j], scores[j] = self._decode(model, j)
            except CspnetError:
                failed += 1
            latencies.append(time.perf_counter() - t0)
        networks = [m for m in self.models
                    if not isinstance(m, ccsp.CspLrModel)]
        t0 = time.perf_counter()
        for model in networks:
            harness.evaluate(model, self.held)
        batch_seconds = time.perf_counter() - t0
        seconds = time.perf_counter() - start
        return RoundResult(
            seconds=seconds, attempted=ROUND_REQUESTS, failed=failed,
            accuracy=float(np.mean(labels == self.y_held)),
            latencies=latencies, batch_trials=len(networks) * n,
            batch_seconds=batch_seconds,
            outputs={"labels": labels, "scores": scores})

    def serve(self, result: RoundResult) -> None:
        """The round's requests are the serving; nothing follows them."""

    def verify(self, rounds: list) -> None:
        first = rounds[0].outputs
        for r in rounds[1:]:
            same = np.array_equal(first["labels"], r.outputs["labels"]) and all(
                np.array_equal(a, b)
                for a, b in zip(first["scores"], r.outputs["scores"]))
            if not same:
                raise checks.CheckError("a repeated request gave another answer")
        _check_networks_learned(self.records)
        k = len(self.models)
        for i, model in enumerate(self.models):
            served = np.arange(i, len(self.held.trials), k)
            if isinstance(model, ccsp.CspLrModel):
                checks.check_accuracy_floor(
                    "csp-lr decode",
                    float(np.mean(first["labels"][served]
                                  == self.y_held[served])), CSP_LR_FLOOR)
                continue
            graph = model.graph if isinstance(model, CspNetModel) else model
            batched = cnn.model_forward(graph, self.x_held[served],
                                        mode="eval")
            single = np.stack([first["scores"][j] for j in served])
            checks.check_logits(single, batched, first["labels"][served])
        x = _stack(self.train)
        checks.check_csp_filters(self.csp.W, self.csp.eigenvalues, x,
                                 self.train.labels(), checks.oracle_ridge(x))
        cspnet1 = next(m for m in self.models if isinstance(m, CspNetModel)
                       and m.family == "cspnet1")
        graph = cspnet1.graph
        out = cnn.layer_forward(graph.specs[0], graph.layer_params(0),
                                self.x_held, mode="eval")
        checks.check_projection(out, cspnet1.csp_source.W, self.x_held[:, 0])


WORKLOADS = {
    "within-subject": WithinSubject,
    "cross-subject": CrossSubject,
    "decode": Decode,
}
