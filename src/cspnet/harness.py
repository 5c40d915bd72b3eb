"""Experiment protocols: the training loop, subject-wise runs, sweeps, reports.

Every run is keyed by (approach, subject, repeat) and seeded from
base_seed + repeat, so a full experiment is bit-reproducible when executed
single-threaded. Reported accuracy is always the final training epoch's;
there is no early stopping and no best-epoch selection.
"""

from __future__ import annotations

import csv
import dataclasses
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .csp import (
    check_filter_count,
    design_csp,
    predict_csp_lr,
    train_csp_lr,
    trial_covariance,  # noqa: F401  (wrapped by the cspbench span tracer)
)
from .cspnets import CspLayerMode, CspNetModel, make_cspnet1, make_cspnet2
from .data import (
    EpochSet,
    by_subject,
    split_loso,
    split_within_subject,
    subsample_training,
)
from .errors import CspnetError, ParameterError, ValidationError, WriteError
from .models import (
    BACKBONE_KINDS,
    SPATIAL_FILTER_LAYER,
    BackboneSpec,
    backbone_layers,
    build_backbone,
)
from .nn import adam_step, init_adam, model_backward, model_forward
from .rng import substream
from .stats import bh_adjust, paired_ttest

APPROACH_METHODS = (
    "backbone",
    "csp-lr",
    "cspnet1-fix",
    "cspnet1-upd",
    "cspnet1-rad",
    "cspnet2-fix",
    "cspnet2-upd",
)
RATIO_GRID = (0.1, 0.3, 0.5, 0.7, 1.0)
FILTER_GRID = (4, 8, 12, 16, 22)
EVAL_BATCH = 256
RUNS_HEADER = ("approach", "subject", "repeat", "accuracy")


@dataclass
class TrainConfig:
    batch_size: int = 128
    lr: float = 0.01
    weight_decay: float = 0.0005
    max_epochs: int = 200
    seed: int = 0
    dropout_p: float = 0.25
    eval_every: int = 1
    balanced_accuracy: bool = False

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ParameterError("batch_size must be at least 1")
        if self.max_epochs < 1:
            raise ParameterError("max_epochs must be at least 1")
        if self.eval_every < 1:
            raise ParameterError("eval_every must be at least 1")
        if self.lr < 0 or self.weight_decay < 0:
            raise ParameterError("lr and weight_decay must be nonnegative")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ParameterError("dropout_p must be in [0, 1)")


@dataclass
class RunRecord:
    approach: str
    subject: str
    repeat: int
    final_test_acc: float
    curve_epochs: list = field(default_factory=list)
    train_curve: list = field(default_factory=list)
    test_curve: list = field(default_factory=list)
    wall_time: float = 0.0

    def __post_init__(self) -> None:
        if not (
            len(self.curve_epochs) == len(self.train_curve) == len(self.test_curve)
        ):
            raise ValidationError("accuracy curves must have identical length")
        for acc in (self.final_test_acc, *self.train_curve, *self.test_curve):
            if not 0.0 <= acc <= 1.0:
                raise ValidationError(f"accuracy {acc} outside [0, 1]")


@dataclass
class ApproachSpec:
    """What to fit: a classical pipeline, a plain backbone, or a hybrid."""

    method: str
    backbone: str = "eegnet"
    f: int = 8
    ridge: float | None = None  # None picks the trace-scaled default

    def __post_init__(self) -> None:
        if self.method not in APPROACH_METHODS:
            raise ParameterError(f"unknown approach method {self.method!r}")
        if self.backbone not in BACKBONE_KINDS:
            raise ParameterError(f"unknown backbone {self.backbone!r}; "
                                 f"have {', '.join(BACKBONE_KINDS)}")
        if self.f < 2:
            raise ParameterError("need at least 2 filters")
        if self.ridge is not None and self.ridge < 0:
            raise ParameterError("ridge must be nonnegative")

    @property
    def label(self) -> str:
        if self.method == "csp-lr":
            return self.method
        return f"{self.method}-{self.backbone}"


# ---------------------------------------------------------------------------
# training and evaluation


def _accuracy(preds: np.ndarray, labels: np.ndarray, balanced: bool) -> float:
    if not balanced:
        return float(np.mean(preds == labels))
    per_class = [
        float(np.mean(preds[labels == k] == k)) for k in np.unique(labels)
    ]
    return float(np.mean(per_class))


def _predictions(graph, x: np.ndarray) -> np.ndarray:
    preds = np.empty(x.shape[0], dtype=np.int64)
    for lo in range(0, x.shape[0], EVAL_BATCH):
        logits = model_forward(graph, x[lo : lo + EVAL_BATCH], mode="eval")
        # argmax resolves ties toward the smallest class index
        preds[lo : lo + EVAL_BATCH] = np.argmax(logits, axis=1)
    return preds


def _network_input(epochs: EpochSet) -> np.ndarray:
    """The (N, 1, c, t) batch view a network reads of a set's trials."""
    if not isinstance(epochs, EpochSet):
        raise ValidationError(f"not an EpochSet: {type(epochs).__name__}")
    return epochs.x[:, None]


def evaluate(model, epochs: EpochSet, balanced: bool = False) -> float:
    """Fraction of correct argmax predictions, in eval mode."""
    graph = model.graph if isinstance(model, CspNetModel) else model
    preds = _predictions(graph, _network_input(epochs))
    return _accuracy(preds, epochs.labels(), balanced)


def train_model(model, train: EpochSet, test: EpochSet, cfg: TrainConfig,
                approach: str = "", subject: str = "",
                repeat: int = 0) -> RunRecord:
    """Adam with shuffled mini-batches for exactly max_epochs epochs.

    The final short batch of an epoch is kept. Accuracy curves are sampled
    every eval_every epochs and always at the last epoch; the returned
    record's final_test_acc is the last epoch's test accuracy.
    """
    graph = model.graph if isinstance(model, CspNetModel) else model
    started = time.perf_counter()
    x = _network_input(train)
    y = train.labels()
    x_test = _network_input(test)
    y_test = test.labels()
    state = init_adam(graph, lr=cfg.lr, weight_decay=cfg.weight_decay)
    graph.set_mode("train")
    n = x.shape[0]
    curve_epochs: list[int] = []
    train_curve: list[float] = []
    test_curve: list[float] = []
    for epoch in range(1, cfg.max_epochs + 1):
        order = substream(cfg.seed, "shuffle", epoch).permutation(n)
        for step, lo in enumerate(range(0, n, cfg.batch_size)):
            sel = order[lo : lo + cfg.batch_size]
            model_backward(
                graph, x[sel], y[sel],
                dropout_rng=substream(cfg.seed, "dropout", epoch, step),
            )
            adam_step(state, graph)
        if epoch % cfg.eval_every == 0 or epoch == cfg.max_epochs:
            curve_epochs.append(epoch)
            train_curve.append(
                _accuracy(_predictions(graph, x), y, cfg.balanced_accuracy)
            )
            test_curve.append(
                _accuracy(_predictions(graph, x_test), y_test,
                          cfg.balanced_accuracy)
            )
    graph.set_mode("eval")
    return RunRecord(
        approach=approach,
        subject=subject,
        repeat=repeat,
        final_test_acc=test_curve[-1],
        curve_epochs=curve_epochs,
        train_curve=train_curve,
        test_curve=test_curve,
        wall_time=time.perf_counter() - started,
    )


# ---------------------------------------------------------------------------
# fitting one (train, test, approach) cell


def _execute_run(train: EpochSet, test: EpochSet, approach: ApproachSpec,
                 cfg: TrainConfig, run_seed: int, subject: str,
                 repeat: int) -> RunRecord:
    label = approach.label
    if approach.method == "csp-lr":
        started = time.perf_counter()
        lr_model = train_csp_lr(train, approach.f, approach.ridge, run_seed)
        preds, _ = predict_csp_lr(lr_model, test.x)
        acc = _accuracy(preds, test.labels(), cfg.balanced_accuracy)
        return RunRecord(approach=label, subject=subject, repeat=repeat,
                         final_test_acc=acc,
                         wall_time=time.perf_counter() - started)
    bspec = BackboneSpec(approach.backbone, n_channels=train.n_channels,
                         n_samples=train.n_samples, fs=train.fs,
                         n_classes=train.n_classes, dropout_p=cfg.dropout_p)
    if approach.method == "backbone":
        model = build_backbone(bspec, seed=run_seed)
    else:
        csp = design_csp(train, approach.f, approach.ridge)
        family, variant = approach.method.split("-")
        mode = CspLayerMode(variant, seed=run_seed)
        maker = make_cspnet1 if family == "cspnet1" else make_cspnet2
        model = maker(bspec, csp, mode, seed=run_seed)
    cfg_run = dataclasses.replace(cfg, seed=run_seed)
    return train_model(model, train, test, cfg_run, approach=label,
                       subject=subject, repeat=repeat)


# ---------------------------------------------------------------------------
# protocols


def _within_subject_runs(dataset: EpochSet, approach: ApproachSpec,
                         repeats: int, base_seed: int, cfg: TrainConfig,
                         train_ratio: float,
                         subsample: float) -> list[RunRecord]:
    records = []
    for subject_set in by_subject(dataset):
        subject = subject_set.subjects()[0]
        for r in range(repeats):
            seed = base_seed + r
            plan = split_within_subject(subject_set, train_ratio, seed)
            train = subsample_training(
                subject_set.subset(plan.train_indices), subsample, seed
            )
            test = subject_set.subset(plan.test_indices)
            records.append(
                _execute_run(train, test, approach, cfg, seed, subject, r)
            )
    return records


def run_within_subject(dataset: EpochSet, approach: ApproachSpec,
                       repeats: int = 5, base_seed: int = 0,
                       cfg: TrainConfig | None = None,
                       train_ratio: float = 0.8) -> list[RunRecord]:
    """Per subject and repeat r: fresh stratified split with seed
    base_seed + r, CSP designed on the training split only, train, evaluate.
    """
    cfg = cfg if cfg is not None else TrainConfig()
    return _within_subject_runs(dataset, approach, repeats, base_seed, cfg,
                                train_ratio, 1.0)


def run_cross_subject(dataset: EpochSet, approach: ApproachSpec,
                      repeats: int = 5, base_seed: int = 0,
                      cfg: TrainConfig | None = None) -> list[RunRecord]:
    """Leave-one-subject-out; repeats differ by training seed only."""
    cfg = cfg if cfg is not None else TrainConfig()
    groups = by_subject(dataset)
    if len(groups) < 2:
        raise ParameterError("cross-subject protocol needs at least 2 subjects")
    records = []
    for subject_set in groups:
        subject = subject_set.subjects()[0]
        train, test = split_loso(groups, subject)
        for r in range(repeats):
            records.append(
                _execute_run(train, test, approach, cfg, base_seed + r,
                             subject, r)
            )
    return records


@dataclass
class SweepCell:
    key: float
    status: str  # "ok", "skipped", or "failed"
    records: list = field(default_factory=list)
    reason: str = ""


def network_backbone(approach: ApproachSpec, data: EpochSet) -> BackboneSpec:
    """The backbone `approach` trains on `data`'s trials; behind a CSP-Net-1
    projection it reads the f filtered signals as channels."""
    c = approach.f if approach.method.startswith("cspnet1") else data.n_channels
    return BackboneSpec(approach.backbone, n_channels=c,
                        n_samples=data.n_samples, fs=data.fs,
                        n_classes=data.n_classes)


def filter_count_problem(approach: ApproachSpec, f: int,
                         data: EpochSet) -> str:
    """Why `approach` cannot run with f filters on `data`'s channels and
    classes, or "" when it can."""
    if approach.method == "backbone":
        return ""  # no CSP stage; f is inert
    try:
        check_filter_count(f, data.n_channels, data.n_classes)
        if approach.method.startswith("cspnet2"):
            layers = backbone_layers(network_backbone(approach, data))
            n = next(spec.out_maps for spec in layers
                     if spec.name == SPATIAL_FILTER_LAYER)
            if n < f:
                return f"backbone has {n} spatial kernels, fewer than f={f}"
    except ParameterError as exc:
        return str(exc)
    return ""


def run_sweep(dataset: EpochSet, approach: ApproachSpec, axis: str, values,
              repeats: int = 5, base_seed: int = 0,
              cfg: TrainConfig | None = None,
              train_ratio: float = 0.8) -> dict:
    """Within-subject protocol per value: on "ratio" each training split is
    subsampled to that share (CSP re-designed on it); on "f" a filter count
    the approach cannot take is a skipped cell with the reason. A runtime
    failure marks its cell failed instead of aborting the sweep.
    """
    if axis not in ("ratio", "f"):
        raise ParameterError(f"sweep axis must be ratio or f, got {axis!r}")
    if axis == "ratio":
        for ratio in values:
            if not 0 < ratio <= 1:
                raise ParameterError(f"training ratio {ratio} outside (0, 1]")
    cfg = cfg if cfg is not None else TrainConfig()
    cells = {}
    for value in values:
        swept, subsample = approach, 1.0
        if axis == "ratio":
            subsample = value
        else:
            reason = filter_count_problem(approach, value, dataset)
            if reason:
                cells[value] = SweepCell(value, "skipped", [], reason)
                continue
            swept = dataclasses.replace(approach, f=value)
        try:
            records = _within_subject_runs(dataset, swept, repeats, base_seed,
                                           cfg, train_ratio, subsample)
            cells[value] = SweepCell(value, "ok", records)
        except CspnetError as exc:
            cells[value] = SweepCell(value, "failed", [],
                                     f"{type(exc).__name__}: {exc}")
    return cells


# ---------------------------------------------------------------------------
# statistics and report export


def significance_stars(p: float) -> str:
    if p < 0.001:
        return "***"
    if p < 0.01:
        return "**"
    if p < 0.05:
        return "*"
    return ""


@dataclass
class ExperimentReport:
    approaches: list
    subjects: list
    cell_mean: dict  # (approach, subject) -> mean accuracy over repeats
    cell_std: dict
    average_mean: dict  # approach -> mean of per-subject means
    average_std: dict
    baseline: str | None = None
    t_stat: dict = field(default_factory=dict)
    p_raw: dict = field(default_factory=dict)
    p_adj: dict = field(default_factory=dict)


def build_report(records: list, baseline: str | None = None) -> ExperimentReport:
    """Aggregate run records into the per-subject table plus paired t-tests
    of every approach against the baseline (BH-adjusted). The baseline
    defaults to the lone plain-backbone approach when one is present.
    """
    if not records:
        raise ParameterError("no records to report")
    approaches = list(dict.fromkeys(r.approach for r in records))
    subjects = list(dict.fromkeys(r.subject for r in records))
    cells: dict = {}
    for r in records:
        cells.setdefault((r.approach, r.subject), []).append(r.final_test_acc)
    for a in approaches:
        for s in subjects:
            if (a, s) not in cells:
                raise ParameterError(
                    f"incomplete grid: no records for {a!r} on subject {s!r}"
                )
    cell_mean = {key: float(np.mean(accs)) for key, accs in cells.items()}
    cell_std = {key: float(np.std(accs)) for key, accs in cells.items()}
    subject_means = {
        a: [cell_mean[(a, s)] for s in subjects] for a in approaches
    }
    average_mean = {a: float(np.mean(subject_means[a])) for a in approaches}
    average_std = {a: float(np.std(subject_means[a])) for a in approaches}
    if baseline is None:
        backbone_only = [a for a in approaches if a.startswith("backbone-")]
        baseline = backbone_only[0] if len(backbone_only) == 1 else None
    elif baseline not in approaches:
        raise ParameterError(f"baseline {baseline!r} has no records")
    t_stat: dict = {}
    p_raw: dict = {}
    p_adj: dict = {}
    compared = [a for a in approaches if baseline and a != baseline]
    if baseline and len(subjects) >= 2:
        for a in compared:
            t, p = paired_ttest(subject_means[a], subject_means[baseline])
            t_stat[a] = t
            p_raw[a] = p
        adjusted = bh_adjust([p_raw[a] for a in compared])
        p_adj = dict(zip(compared, adjusted))
    return ExperimentReport(
        approaches=approaches,
        subjects=subjects,
        cell_mean=cell_mean,
        cell_std=cell_std,
        average_mean=average_mean,
        average_std=average_std,
        baseline=baseline,
        t_stat=t_stat,
        p_raw=p_raw,
        p_adj=p_adj,
    )


def _write_runs_csv(path: Path, records: list) -> None:
    rows = sorted(records, key=lambda r: (r.approach, r.subject, r.repeat))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(RUNS_HEADER)
        for r in rows:
            writer.writerow(
                [r.approach, r.subject, r.repeat, f"{r.final_test_acc:.17g}"]
            )


def _write_summary_csv(path: Path, report: ExperimentReport) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["approach", *report.subjects, "average", "t_stat", "p_raw",
             "p_adj", "significance"]
        )
        for a in report.approaches:
            row = [a]
            for s in report.subjects:
                row.append(
                    f"{report.cell_mean[(a, s)]:.4f}"
                    f"±{report.cell_std[(a, s)]:.4f}"
                )
            row.append(
                f"{report.average_mean[a]:.4f}±{report.average_std[a]:.4f}"
            )
            if a in report.t_stat:
                row.extend([
                    f"{report.t_stat[a]:.6g}",
                    f"{report.p_raw[a]:.6g}",
                    f"{report.p_adj[a]:.6g}",
                    significance_stars(report.p_adj[a]),
                ])
            else:
                row.extend(["", "", "", ""])
            writer.writerow(row)


def _write_curves(curve_dir: Path, records: list) -> None:
    rows = sorted(records, key=lambda r: (r.approach, r.subject, r.repeat))
    curved = [r for r in rows if r.curve_epochs]
    if not curved:
        return
    curve_dir.mkdir(parents=True, exist_ok=True)
    for r in curved:
        name = f"{r.approach}_{r.subject}_r{r.repeat}.csv"
        with open(curve_dir / name, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "train_acc", "test_acc"])
            for epoch, tr, te in zip(r.curve_epochs, r.train_curve,
                                     r.test_curve):
                writer.writerow([epoch, f"{tr:.17g}", f"{te:.17g}"])


def export_report(records: list, out_dir,
                  baseline: str | None = None) -> ExperimentReport:
    """Write runs.csv, summary.csv, and per-run curve CSVs under out_dir.

    Wall times never reach the CSVs, so rerunning an experiment with the
    same seed reproduces the files byte for byte.
    """
    report = build_report(records, baseline)
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        _write_runs_csv(out / "runs.csv", records)
        _write_summary_csv(out / "summary.csv", report)
        _write_curves(out / "curves", records)
    except OSError as exc:
        raise WriteError(f"cannot write report under {out}: {exc}") from exc
    return report
