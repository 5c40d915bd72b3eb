"""Batch command-line front end.

Five subcommands: `synth` writes a synthetic dataset, `csp` fits and saves
a filter bank, `run` executes a full experiment (optionally a sweep),
`gradcheck` verifies backward passes against finite differences, and
`report` rebuilds summary tables from an existing runs.csv.

A config file in key=value form can supply any option; explicit flags win.
Exit codes: 0 success, 1 runtime failure, 2 usage or configuration error.
Every command is non-interactive and writes only under its own --out.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .csp import check_filter_count, design_csp, save_csp
from .data import (
    EpochSet,
    SynthSpec,
    by_subject,
    default_class_covariances,
    load_epochset,
    save_epochset,
    split_within_subject,
    synthesize_dataset,
)
from .errors import CspnetError, ParameterError, WriteError
from .harness import (
    FILTER_GRID,
    RATIO_GRID,
    ApproachSpec,
    RunRecord,
    TrainConfig,
    export_report,
    run_cross_subject,
    run_within_subject,
    sweep_filter_count,
    sweep_training_ratio,
)
from .models import BACKBONE_KINDS, BackboneSpec, build_backbone
from .nn import LayerSpec, ModelGraph, grad_check
from .rng import substream

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

# every runnable approach token; "standard" is the plain end-to-end backbone
APPROACH_TOKENS = (
    "standard",
    "csp-lr",
    "cspnet1-fix",
    "cspnet1-upd",
    "cspnet1-rad",
    "cspnet2-fix",
    "cspnet2-upd",
)

LAYER_TOLERANCE = 1e-4
MODEL_TOLERANCE = 1e-3


class UsageError(Exception):
    """Bad flags or config; reported with exit code 2."""


# ---------------------------------------------------------------------------
# config file + option merging


def read_config_file(path) -> dict[str, str]:
    """key=value per line; blank lines and # comments ignored."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise UsageError(f"{path}:{lineno}: empty key")
        values[key] = value.strip()
    return values


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("1", "true", "yes"):
        return True
    if lowered in ("0", "false", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def merge_options(args, file_values: dict[str, str], schema: dict) -> dict:
    """Resolve each schema key as: explicit flag > config file > default.

    schema maps option name -> (cast, default). Config keys outside the
    schema are rejected so typos fail loudly instead of silently applying
    defaults.
    """
    unknown = sorted(set(file_values) - set(schema))
    if unknown:
        raise UsageError(f"unknown config key(s): {', '.join(unknown)}")
    merged = {}
    for key, (cast, default) in schema.items():
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
        elif key in file_values:
            try:
                merged[key] = cast(file_values[key])
            except (ValueError, TypeError) as exc:
                raise UsageError(f"config key {key}: {exc}") from exc
        else:
            merged[key] = default
    return merged


def _require_out(opts) -> str:
    if not opts["out"]:
        raise UsageError("missing required option --out")
    return opts["out"]


def _load_dataset(path) -> EpochSet:
    # a broken input path is a configuration problem, not a runtime one
    try:
        return load_epochset(path)
    except (CspnetError, OSError) as exc:
        raise UsageError(f"cannot load dataset {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# synth

SYNTH_SCHEMA = {
    "channels": (int, 8),
    "classes": (int, 2),
    "trials": (int, 60),
    "samples": (int, 256),
    "subjects": (int, 1),
    "fs": (float, 128.0),
    "noise": (float, 0.0),
    "contrast": (float, 3.0),
    "seed": (int, 0),
    "out": (str, None),
}


def _build_synth_spec(opts) -> SynthSpec:
    try:
        covariances = default_class_covariances(
            opts["channels"], opts["classes"], opts["contrast"]
        )
        return SynthSpec(
            n_channels=opts["channels"],
            n_samples=opts["samples"],
            n_classes=opts["classes"],
            class_covariances=covariances,
            trials_per_class=opts["trials"],
            noise_scale=opts["noise"],
            n_subjects=opts["subjects"],
            fs=opts["fs"],
        )
    except CspnetError as exc:
        raise UsageError(str(exc)) from exc


def cmd_synth(args, file_values) -> int:
    opts = merge_options(args, file_values, SYNTH_SCHEMA)
    out = _require_out(opts)
    spec = _build_synth_spec(opts)
    epochs = synthesize_dataset(spec, opts["seed"])
    save_epochset(epochs, out)
    print(
        f"wrote {len(epochs.trials)} trials "
        f"({spec.n_channels} channels, {spec.n_classes} classes, "
        f"{spec.n_subjects} subject(s)) to {out}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# csp

CSP_SCHEMA = {
    "data": (str, None),
    "f": (int, 8),
    "ridge": (float, None),
    "train_ratio": (float, 0.8),
    "subject": (str, None),
    "export_weights": (str, None),
    "seed": (int, 0),
    "out": (str, None),
}


def cmd_csp(args, file_values) -> int:
    opts = merge_options(args, file_values, CSP_SCHEMA)
    out = _require_out(opts)
    if not opts["data"]:
        raise UsageError("missing required option --data")
    epochs = _load_dataset(opts["data"])
    if opts["subject"]:
        groups = {g.trials[0].subject: g for g in by_subject(epochs)}
        if opts["subject"] not in groups:
            raise UsageError(
                f"unknown subject {opts['subject']!r}; "
                f"have {', '.join(sorted(groups))}"
            )
        epochs = groups[opts["subject"]]
    try:
        check_filter_count(opts["f"], epochs.n_channels, epochs.n_classes)
    except ParameterError as exc:
        raise UsageError(str(exc)) from exc
    ratio = opts["train_ratio"]
    if not 0 < ratio <= 1:
        raise UsageError(f"train_ratio must be in (0, 1], got {ratio}")
    if ratio < 1:
        plan = split_within_subject(epochs, ratio, opts["seed"])
        fit_set = epochs.subset(plan.train_indices)
    else:
        fit_set = epochs  # ratio 1 fits on everything
    model = design_csp(fit_set, opts["f"], opts["ridge"])
    save_csp(model, out)
    if opts["export_weights"]:
        try:
            np.savetxt(opts["export_weights"], model.W, fmt="%.17g",
                       delimiter=",")
        except OSError as exc:
            raise WriteError(str(exc)) from exc
    print(
        f"fitted {opts['f']} filters on {len(fit_set.trials)} trials; "
        f"wrote {out}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# run

RUN_SCHEMA = {
    "data": (str, None),
    "synth": (_parse_bool, False),
    "channels": (int, 8),
    "classes": (int, 2),
    "trials": (int, 60),
    "samples": (int, 256),
    "subjects": (int, 1),
    "fs": (float, 128.0),
    "noise": (float, 0.0),
    "contrast": (float, 3.0),
    "scenario": (str, "within"),
    "approach": (str, "standard"),
    "backbone": (str, "eegnet"),
    "f": (int, 8),
    "ridge": (float, None),
    "repeats": (int, 5),
    "train_ratio": (float, 0.8),
    "batch_size": (int, 128),
    "lr": (float, 0.01),
    "weight_decay": (float, 0.0005),
    "epochs": (int, 200),
    "eval_every": (int, 1),
    "dropout": (float, 0.25),
    "balanced": (_parse_bool, False),
    "sweep": (str, None),
    "baseline": (str, None),
    "seed": (int, 0),
    "jobs": (int, 1),
    "out": (str, None),
}


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Fully resolved experiment request."""

    dataset: EpochSet
    approaches: tuple[ApproachSpec, ...]
    scenario: str
    sweep: tuple | None  # (axis, values) with axis "ratio" or "f"
    train: TrainConfig
    repeats: int
    train_ratio: float
    baseline: str | None
    seed: int
    jobs: int
    out: str

    def __post_init__(self) -> None:
        if self.scenario not in ("within", "cross"):
            raise UsageError(f"scenario must be within or cross, got "
                             f"{self.scenario!r}")
        if not self.approaches:
            raise UsageError("no approaches selected")
        if self.repeats < 1:
            raise UsageError(f"repeats must be >= 1, got {self.repeats}")
        if self.jobs < 1:
            raise UsageError(f"jobs must be >= 1, got {self.jobs}")


def _resolve_approaches(tokens: str, backbone: str, f: int,
                        ridge: float | None) -> tuple[ApproachSpec, ...]:
    if backbone not in BACKBONE_KINDS:
        raise UsageError(
            f"unknown backbone {backbone!r}; have {', '.join(BACKBONE_KINDS)}"
        )
    specs = []
    for token in tokens.split(","):
        name = token.strip()
        if name not in APPROACH_TOKENS:
            raise UsageError(
                f"unknown approach {name!r}; have {', '.join(APPROACH_TOKENS)}"
            )
        method = "backbone" if name == "standard" else name
        specs.append(ApproachSpec(method, backbone=backbone, f=f, ridge=ridge))
    return tuple(specs)


def _parse_sweep(text: str | None) -> tuple | None:
    if text is None:
        return None
    axis, _, tail = text.partition("=")
    axis = axis.strip()
    if axis == "ratio":
        cast, default = float, RATIO_GRID
    elif axis == "f":
        cast, default = int, FILTER_GRID
    else:
        raise UsageError(f"sweep axis must be ratio or f, got {axis!r}")
    if not tail:
        return axis, default
    try:
        values = tuple(cast(v) for v in tail.split(","))
    except ValueError as exc:
        raise UsageError(f"bad sweep values {tail!r}: {exc}") from exc
    if not values:
        raise UsageError("sweep needs at least one value")
    return axis, values


def _resolve_run_config(args, file_values) -> RunConfig:
    opts = merge_options(args, file_values, RUN_SCHEMA)
    out = _require_out(opts)
    if bool(opts["data"]) == bool(opts["synth"]):
        raise UsageError("exactly one data source: pass --data or --synth")
    if opts["data"]:
        dataset = _load_dataset(opts["data"])
    else:
        dataset = synthesize_dataset(_build_synth_spec(opts), opts["seed"])
    approaches = _resolve_approaches(opts["approach"], opts["backbone"],
                                     opts["f"], opts["ridge"])
    sweep = _parse_sweep(opts["sweep"])
    if opts["scenario"] == "cross" and len(by_subject(dataset)) < 2:
        raise UsageError("cross-subject scenario needs at least 2 subjects")
    if sweep is not None and opts["scenario"] != "within":
        raise UsageError("sweeps run under the within-subject scenario only")
    try:
        train = TrainConfig(
            batch_size=opts["batch_size"],
            lr=opts["lr"],
            weight_decay=opts["weight_decay"],
            max_epochs=opts["epochs"],
            seed=opts["seed"],
            dropout_p=opts["dropout"],
            eval_every=opts["eval_every"],
            balanced_accuracy=opts["balanced"],
        )
    except CspnetError as exc:
        raise UsageError(str(exc)) from exc
    return RunConfig(
        dataset=dataset,
        approaches=approaches,
        scenario=opts["scenario"],
        sweep=sweep,
        train=train,
        repeats=opts["repeats"],
        train_ratio=opts["train_ratio"],
        baseline=opts["baseline"],
        seed=opts["seed"],
        jobs=opts["jobs"],
        out=out,
    )


def _approach_task(payload) -> object:
    """One approach end to end; module-level so worker processes can get it."""
    cfg, approach = payload
    common = dict(repeats=cfg.repeats, base_seed=cfg.seed, cfg=cfg.train)
    if cfg.sweep is not None:
        axis, values = cfg.sweep
        if axis == "ratio":
            return sweep_training_ratio(cfg.dataset, approach, ratios=values,
                                        train_ratio=cfg.train_ratio, **common)
        return sweep_filter_count(cfg.dataset, approach, f_values=values,
                                  train_ratio=cfg.train_ratio, **common)
    if cfg.scenario == "within":
        return run_within_subject(cfg.dataset, approach,
                                  train_ratio=cfg.train_ratio, **common)
    return run_cross_subject(cfg.dataset, approach, **common)


def _run_tasks(cfg: RunConfig) -> list:
    """Execute every approach, in order; --jobs spreads them over processes."""
    payloads = [(cfg, approach) for approach in cfg.approaches]
    if cfg.jobs == 1:
        return [_approach_task(p) for p in payloads]
    workers = min(cfg.jobs, len(payloads))
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_approach_task, payloads))


def _format_cell_key(axis: str, key) -> str:
    return f"{key:g}" if axis == "ratio" else str(int(key))


def _write_sweep_csvs(cfg: RunConfig, outcomes: list) -> list[str]:
    """Grid CSV (one row per approach) plus a long-form per-run CSV.

    Returns diagnostics for failed cells so the caller can set the exit
    code; skipped cells are reported in the grid only.
    """
    axis, values = cfg.sweep
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    failures = []
    try:
        with open(out / f"sweep_{axis}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["approach"] + [_format_cell_key(axis, v) for v in values]
            )
            for approach, cells in zip(cfg.approaches, outcomes):
                row = [approach.label]
                for value in values:
                    cell = cells[value]
                    if cell.status == "ok":
                        accs = [r.final_test_acc for r in cell.records]
                        row.append(f"{np.mean(accs):.4f}±{np.std(accs):.4f}")
                    else:
                        row.append(f"{cell.status}: {cell.reason}")
                        if cell.status == "failed":
                            failures.append(
                                f"{approach.label} {axis}="
                                f"{_format_cell_key(axis, value)}: "
                                f"{cell.reason}"
                            )
                writer.writerow(row)
        with open(out / "sweep_runs.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([
                "approach", axis, "subject", "repeat", "accuracy",
            ])
            for approach, cells in zip(cfg.approaches, outcomes):
                for value in values:
                    for rec in cells[value].records:
                        writer.writerow([
                            rec.approach,
                            _format_cell_key(axis, value),
                            rec.subject,
                            rec.repeat,
                            f"{rec.final_test_acc:.17g}",
                        ])
    except OSError as exc:
        raise WriteError(str(exc)) from exc
    return failures


def cmd_run(args, file_values) -> int:
    cfg = _resolve_run_config(args, file_values)
    outcomes = _run_tasks(cfg)
    if cfg.sweep is not None:
        failures = _write_sweep_csvs(cfg, outcomes)
        axis, values = cfg.sweep
        print(
            f"swept {axis} over {len(values)} value(s) for "
            f"{len(cfg.approaches)} approach(es); wrote {cfg.out}"
        )
        if failures:
            for line in failures:
                print(f"failed cell: {line}", file=sys.stderr)
            return EXIT_RUNTIME
        return EXIT_OK
    records = [rec for batch in outcomes for rec in batch]
    report = export_report(records, cfg.out, baseline=cfg.baseline)
    for label in report.approaches:
        mean = report.average_mean[label]
        std = report.average_std[label]
        print(f"{label}: average accuracy {mean:.4f}±{std:.4f}")
    print(f"wrote {cfg.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# gradcheck

GRADCHECK_SCHEMA = {"seed": (int, 0)}

# one probe per kind is enough for the report; conv2d gets the grouped and
# padded variants as extra probes under the same heading
GRADCHECK_LAYERS = (
    ("conv2d", LayerSpec("conv2d", out_maps=4, kernel=(2, 3), bias=True)),
    ("conv2d", LayerSpec("conv2d", out_maps=4, kernel=(1, 5),
                         padding="same-width", bias=False)),
    ("conv2d", LayerSpec("conv2d", out_maps=6, kernel=(3, 1), groups=3,
                         bias=False)),
    ("batchnorm", LayerSpec("batchnorm")),
    ("elu", LayerSpec("elu")),
    ("square", LayerSpec("square")),
    ("safelog", LayerSpec("safelog")),
    ("avgpool", LayerSpec("avgpool", window=(1, 3), stride=(1, 2))),
    ("maxpool", LayerSpec("maxpool", window=(2, 2))),
    ("dropout", LayerSpec("dropout", p=0.25)),
    ("flatten", LayerSpec("flatten")),
    ("dense", LayerSpec("dense", units=3)),
    ("permute", LayerSpec("permute")),
)

GRADCHECK_SEEDS = 3
GRADCHECK_INPUT = (3, 4, 6)
GRADCHECK_MODEL = dict(n_channels=4, n_samples=64, fs=32.0, n_classes=2)


def _layer_probe_graph(spec: LayerSpec, seed: int) -> ModelGraph:
    stack = [spec, LayerSpec("flatten"), LayerSpec("dense", units=2)]
    if spec.kind == "dense":
        stack = [LayerSpec("flatten"), spec]
    elif spec.kind == "flatten":
        stack = [spec, LayerSpec("dense", units=2)]
    return ModelGraph(specs=stack, input_shape=GRADCHECK_INPUT, seed=seed)


def gradcheck_report(seed: int = 0) -> tuple[dict, dict]:
    """Worst finite-difference error per layer kind and per backbone."""
    layer_worst: dict[str, float] = {}
    for kind, spec in GRADCHECK_LAYERS:
        for s in range(GRADCHECK_SEEDS):
            rng = substream(seed, "gradcheck", kind, s)
            graph = _layer_probe_graph(spec, seed=seed + s)
            batch = rng.standard_normal((3,) + GRADCHECK_INPUT)
            if kind == "safelog":
                batch = np.abs(batch) + 0.1  # stay clear of the clamp kink
            labels = rng.integers(0, 2, size=3)
            err = grad_check(graph, batch, labels, h=1e-5)
            layer_worst[kind] = max(layer_worst.get(kind, 0.0), err)
    model_worst: dict[str, float] = {}
    for kind in BACKBONE_KINDS:
        bspec = BackboneSpec(kind, **GRADCHECK_MODEL)
        graph = build_backbone(bspec, seed=seed)
        rng = substream(seed, "gradcheck", kind)
        batch = rng.standard_normal(
            (3, 1, bspec.n_channels, bspec.n_samples)
        )
        labels = rng.integers(0, bspec.n_classes, size=3)
        model_worst[kind] = grad_check(graph, batch, labels, h=1e-5,
                                       max_elements_per_param=25)
    return layer_worst, model_worst


def cmd_gradcheck(args, file_values) -> int:
    opts = merge_options(args, file_values, GRADCHECK_SCHEMA)
    layer_worst, model_worst = gradcheck_report(opts["seed"])
    ok = True
    print("layer gradients (worst relative error):")
    for kind, err in layer_worst.items():
        passed = err < LAYER_TOLERANCE
        ok = ok and passed
        print(f"  {kind:<10} {err:.3e}  {'ok' if passed else 'FAIL'}")
    print("model gradients (4 channels, 64 samples, 2 classes):")
    for kind, err in model_worst.items():
        passed = err < MODEL_TOLERANCE
        ok = ok and passed
        print(f"  {kind:<10} {err:.3e}  {'ok' if passed else 'FAIL'}")
    print(f"gradient check {'passed' if ok else 'FAILED'}")
    return EXIT_OK if ok else EXIT_RUNTIME


# ---------------------------------------------------------------------------
# report

REPORT_SCHEMA = {
    "runs": (str, None),
    "baseline": (str, None),
    "out": (str, None),
}

RUNS_HEADER = ["approach", "subject", "repeat", "accuracy"]


def _read_runs_csv(path) -> list[RunRecord]:
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    if not rows or rows[0] != RUNS_HEADER:
        raise UsageError(
            f"{path}: expected header {','.join(RUNS_HEADER)}"
        )
    records = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 4:
            raise UsageError(f"{path}:{lineno}: expected 4 columns")
        try:
            records.append(RunRecord(
                approach=row[0], subject=row[1], repeat=int(row[2]),
                final_test_acc=float(row[3]),
            ))
        except (ValueError, CspnetError) as exc:
            raise UsageError(f"{path}:{lineno}: {exc}") from exc
    if not records:
        raise UsageError(f"{path}: no runs")
    return records


def cmd_report(args, file_values) -> int:
    opts = merge_options(args, file_values, REPORT_SCHEMA)
    out = _require_out(opts)
    if not opts["runs"]:
        raise UsageError("missing required option --runs")
    records = _read_runs_csv(opts["runs"])
    try:
        report = export_report(records, out, baseline=opts["baseline"])
    except ParameterError as exc:
        raise UsageError(str(exc)) from exc
    for label in report.approaches:
        mean = report.average_mean[label]
        std = report.average_std[label]
        print(f"{label}: average accuracy {mean:.4f}±{std:.4f}")
    print(f"wrote {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser + entry point


def _add_shared(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value defaults file")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--out", help="output directory or file")


def _add_synth_params(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--channels", type=int)
    parser.add_argument("--classes", type=int)
    parser.add_argument("--trials", type=int,
                        help="trials per class per subject")
    parser.add_argument("--samples", type=int)
    parser.add_argument("--subjects", type=int)
    parser.add_argument("--fs", type=float)
    parser.add_argument("--noise", type=float)
    parser.add_argument("--contrast", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cspnet",
        description="CSP filter banks, CSP-initialized networks, and "
                    "their evaluation protocol.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a synthetic dataset")
    _add_shared(p)
    _add_synth_params(p)

    p = sub.add_parser("csp", help="fit a filter bank and save it")
    _add_shared(p)
    p.add_argument("--data", help="dataset directory")
    p.add_argument("--f", type=int, help="number of spatial filters")
    p.add_argument("--ridge", type=float)
    p.add_argument("--train-ratio", dest="train_ratio", type=float)
    p.add_argument("--subject", help="restrict fitting to one subject")
    p.add_argument("--export-weights", dest="export_weights",
                   help="also write the filter matrix as CSV")

    p = sub.add_parser("run", help="execute an experiment")
    _add_shared(p)
    _add_synth_params(p)
    p.add_argument("--data", help="dataset directory")
    p.add_argument("--synth", action="store_const", const=True,
                   help="synthesize the dataset in place of --data")
    p.add_argument("--scenario", choices=("within", "cross"))
    p.add_argument("--approach",
                   help="comma-separated list, e.g. standard,cspnet1-fix")
    p.add_argument("--backbone", help="eegnet, shallowcnn, or deepcnn")
    p.add_argument("--f", type=int)
    p.add_argument("--ridge", type=float)
    p.add_argument("--repeats", type=int)
    p.add_argument("--train-ratio", dest="train_ratio", type=float)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--weight-decay", dest="weight_decay", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--eval-every", dest="eval_every", type=int)
    p.add_argument("--dropout", type=float)
    p.add_argument("--balanced", action="store_const", const=True,
                   help="report balanced accuracy")
    p.add_argument("--sweep", help="ratio[=v1,v2,...] or f[=v1,v2,...]")
    p.add_argument("--baseline", help="summary-table baseline approach")
    p.add_argument("--jobs", type=int, help="parallel approach workers")

    p = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    _add_shared(p)

    p = sub.add_parser("report", help="rebuild summary tables from runs.csv")
    _add_shared(p)
    p.add_argument("--runs", help="existing runs.csv")
    p.add_argument("--baseline")

    return parser


COMMANDS = {
    "synth": cmd_synth,
    "csp": cmd_csp,
    "run": cmd_run,
    "gradcheck": cmd_gradcheck,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed its message
        code = exc.code if isinstance(exc.code, int) else EXIT_USAGE
        return EXIT_OK if code == 0 else EXIT_USAGE
    try:
        file_values = read_config_file(args.config) if args.config else {}
        return COMMANDS[args.command](args, file_values)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CspnetError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
