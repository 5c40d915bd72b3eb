"""Batch command-line front end.

Five subcommands: `synth` writes a synthetic dataset, `csp` fits and saves
a filter bank, `run` executes a full experiment (optionally a sweep),
`gradcheck` verifies backward passes against finite differences, and
`report` rebuilds summary tables from an existing runs.csv.

`OPTIONS` is the one place an option is declared: its cast, default and
help. The flag is --name with "-" for "_" and the config-file key is name;
`COMMANDS` names the options each command reads and the ones it requires,
and `build_parser` and `main` derive the parser, the config schema and the
required-option checks from these two tables. A config file in key=value
form can supply any option a command reads; explicit flags win.

A handler resolves its inputs and returns its work as a callable, and
the exit code goes by phase: 0 on success; 2 for an error while
resolving, before any work (bad flags, an unreadable dataset, a filter
count or network that does not fit the data, such as DeepCNN on
16-sample trials); 1 for an error once the work has started. Every
command is non-interactive and writes only under its own --out.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import dataclasses
import sys
from collections.abc import Callable
from pathlib import Path

import numpy as np

from .csp import check_filter_count, design_csp, save_csp
from .data import (
    EpochSet,
    SynthSpec,
    default_class_covariances,
    load_epochset,
    save_epochset,
    split_within_subject,
    synthesize_dataset,
)
from .errors import CspnetError, WriteError
from .harness import (
    APPROACH_METHODS,
    FILTER_GRID,
    RATIO_GRID,
    RUNS_HEADER,
    ApproachSpec,
    RunRecord,
    TrainConfig,
    build_report,
    export_report,
    filter_count_problem,
    run_cross_subject,
    run_sweep,
    run_within_subject,
)
from .models import BACKBONE_KINDS, BackboneSpec, build_backbone
from .nn import LayerSpec, grad_check
from .nn.gradcheck import layer_probe_graph
from .rng import substream

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

# every runnable approach token; "standard" is the plain end-to-end backbone
APPROACH_TOKENS = tuple("standard" if m == "backbone" else m
                        for m in APPROACH_METHODS)

LAYER_TOLERANCE = 1e-4
MODEL_TOLERANCE = 1e-3


class UsageError(Exception):
    """Bad flags or config, found while a command resolves its inputs."""


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("1", "true", "yes"):
        return True
    if lowered in ("0", "false", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# name -> (cast, default, help); an option cast by _parse_bool is a bare flag
OPTIONS = {
    "data": (str, None, "dataset directory"),
    "synth": (_parse_bool, False, "synthesize the dataset in place of --data"),
    "channels": (int, 8, "synthetic channels"),
    "classes": (int, 2, "synthetic classes"),
    "trials": (int, 60, "trials per class per subject"),
    "samples": (int, 256, "synthetic samples per trial"),
    "subjects": (int, 1, "synthetic subjects"),
    "fs": (float, 128.0, "synthetic sampling rate, Hz"),
    "noise": (float, 0.0, "synthetic noise scale"),
    "contrast": (float, 3.0, "synthetic class-covariance contrast"),
    "subject": (str, None, "restrict fitting to one subject"),
    "scenario": (str, "within", "within or cross"),
    "approach": (str, "standard", "comma-separated, e.g. standard,csp-lr"),
    "backbone": (str, "eegnet", "eegnet, shallowcnn, or deepcnn"),
    "f": (int, 8, "number of spatial filters"),
    "ridge": (float, None, "CSP ridge; default scales with the trace"),
    "repeats": (int, 5, "repeats per subject"),
    "train_ratio": (float, 0.8, "training share of each subject's trials"),
    "batch_size": (int, 128, "training mini-batch size"),
    "lr": (float, 0.01, "Adam learning rate"),
    "weight_decay": (float, 0.0005, "Adam weight decay"),
    "epochs": (int, 200, "training epochs"),
    "eval_every": (int, 1, "epochs between accuracy-curve points"),
    "dropout": (float, 0.25, "dropout probability"),
    "balanced": (_parse_bool, False, "report balanced accuracy"),
    "sweep": (str, None, "ratio[=v1,v2,...] or f[=v1,v2,...]"),
    "runs": (str, None, "existing runs.csv"),
    "baseline": (str, None, "summary-table baseline approach"),
    "export_weights": (str, None, "also write the filter matrix as CSV"),
    "seed": (int, 0, "master seed"),
    "jobs": (int, 1, "parallel approach workers"),
    "out": (str, None, "output directory or file"),
}

SYNTH_PARAMS = ("channels", "classes", "trials", "samples", "subjects", "fs",
                "noise", "contrast")


# ---------------------------------------------------------------------------
# config file + option merging


def read_config_file(path) -> dict[str, str]:
    """key=value per line; blank lines and # comments ignored."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    values: dict[str, str] = {}
    first_line: dict[str, int] = {}
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
        if key in first_line:
            raise UsageError(f"{path}:{lineno}: key {key} already set on "
                             f"line {first_line[key]}")
        first_line[key] = lineno
        values[key] = value.strip()
    return values


def merge_options(args, file_values: dict[str, str], schema: dict) -> dict:
    """Resolve each schema key as: explicit flag > config file > default.

    schema maps option name -> (cast, default, ...), as a slice of OPTIONS
    does. Config keys outside the schema are rejected so typos fail loudly
    instead of silently applying defaults.
    """
    unknown = sorted(set(file_values) - set(schema))
    if unknown:
        raise UsageError(f"unknown config key(s): {', '.join(unknown)}")
    merged = {}
    for key, (cast, default, *_) in schema.items():
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


# ---------------------------------------------------------------------------
# synth


def _build_synth_spec(opts) -> SynthSpec:
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


def cmd_synth(opts) -> Callable[[], int]:
    spec = _build_synth_spec(opts)

    def work() -> int:
        epochs = synthesize_dataset(spec, opts["seed"])
        save_epochset(epochs, opts["out"])
        print(
            f"wrote {epochs.n_trials} trials "
            f"({spec.n_channels} channels, {spec.n_classes} classes, "
            f"{spec.n_subjects} subject(s)) to {opts['out']}"
        )
        return EXIT_OK
    return work


# ---------------------------------------------------------------------------
# csp


def cmd_csp(opts) -> Callable[[], int]:
    epochs = load_epochset(opts["data"])
    subject = opts["subject"]
    if subject:
        if subject not in epochs.subjects():
            raise UsageError(f"unknown subject {subject!r}; "
                             f"have {', '.join(sorted(epochs.subjects()))}")
        epochs = epochs.subset(np.flatnonzero(epochs.subject_ids == subject))
    check_filter_count(opts["f"], epochs.n_channels, epochs.n_classes)
    if opts["ridge"] is not None and opts["ridge"] < 0:
        raise UsageError(f"ridge must be nonnegative, got {opts['ridge']}")
    ratio = opts["train_ratio"]
    if not 0 < ratio <= 1:
        raise UsageError(f"train_ratio must be in (0, 1], got {ratio}")

    def work() -> int:
        if ratio < 1:
            plan = split_within_subject(epochs, ratio, opts["seed"])
            fit_set = epochs.subset(plan.train_indices)
        else:
            fit_set = epochs  # ratio 1 fits on everything
        model = design_csp(fit_set, opts["f"], opts["ridge"])
        save_csp(model, opts["out"])
        if opts["export_weights"]:
            try:
                np.savetxt(opts["export_weights"], model.W, fmt="%.17g",
                           delimiter=",")
            except OSError as exc:
                raise WriteError(str(exc)) from exc
        print(f"fitted {opts['f']} filters on {fit_set.n_trials} trials; "
              f"wrote {opts['out']}")
        return EXIT_OK
    return work


# ---------------------------------------------------------------------------
# run


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
        if self.scenario == "within" and not 0 < self.train_ratio < 1:
            raise UsageError(f"within-subject train_ratio must be in (0, 1), "
                             f"got {self.train_ratio}")
        if self.repeats < 1:
            raise UsageError(f"repeats must be >= 1, got {self.repeats}")
        if self.jobs < 1:
            raise UsageError(f"jobs must be >= 1, got {self.jobs}")


def _resolve_approaches(opts) -> tuple[ApproachSpec, ...]:
    specs = []
    for token in opts["approach"].split(","):
        name = token.strip()
        if name not in APPROACH_TOKENS:
            raise UsageError(
                f"unknown approach {name!r}; have {', '.join(APPROACH_TOKENS)}"
            )
        method = "backbone" if name == "standard" else name
        specs.append(ApproachSpec(method, backbone=opts["backbone"],
                                  f=opts["f"], ridge=opts["ridge"]))
    return tuple(specs)


def _parse_sweep(text: str | None) -> tuple | None:
    if text is None:
        return None
    axis, _, tail = text.partition("=")
    axis = axis.strip()
    if axis not in ("ratio", "f"):
        raise UsageError(f"sweep axis must be ratio or f, got {axis!r}")
    cast, default = ((float, RATIO_GRID) if axis == "ratio"
                     else (int, FILTER_GRID))
    if not tail:
        return axis, default
    try:
        values = tuple(cast(v) for v in tail.split(","))
    except ValueError as exc:
        raise UsageError(f"bad sweep values {tail!r}: {exc}") from exc
    if axis == "ratio" and not all(0 < v <= 1 for v in values):
        raise UsageError(f"sweep ratios must be in (0, 1], got {tail}")
    return axis, values


def _resolve_run_config(opts) -> RunConfig:
    """Everything `cmd_run` needs, checked against the data; each network
    is built at every filter count it will take, so trials too short for
    it fail here."""
    if bool(opts["data"]) == bool(opts["synth"]):
        raise UsageError("exactly one data source: pass --data or --synth")
    if opts["data"]:
        dataset = load_epochset(opts["data"])
    else:
        dataset = synthesize_dataset(_build_synth_spec(opts), opts["seed"])
    approaches = _resolve_approaches(opts)
    sweep = _parse_sweep(opts["sweep"])
    f_sweep = sweep[1] if sweep is not None and sweep[0] == "f" else None
    for approach in approaches:
        for f in f_sweep or (approach.f,):
            problem = filter_count_problem(approach, f, dataset)
            if problem and f_sweep is None:  # swept, it is a skipped cell
                raise UsageError(f"{approach.label}: {problem}")
    labels = [approach.label for approach in approaches]
    if sweep is None and opts["baseline"] not in (None, *labels):
        raise UsageError(f"baseline {opts['baseline']!r} is not one of the "
                         f"approaches: {', '.join(labels)}")
    if opts["scenario"] == "cross" and len(dataset.subjects()) < 2:
        raise UsageError("cross-subject scenario needs at least 2 subjects")
    if sweep is not None and opts["scenario"] != "within":
        raise UsageError("sweeps run under the within-subject scenario only")
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
        out=opts["out"],
    )


def _approach_task(payload) -> object:
    """One approach end to end; module-level so worker processes can get it."""
    cfg, approach = payload
    common = dict(repeats=cfg.repeats, base_seed=cfg.seed, cfg=cfg.train)
    if cfg.sweep is not None:
        return run_sweep(cfg.dataset, approach, *cfg.sweep,
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
            writer.writerow(["approach", axis, "subject", "repeat",
                             "accuracy"])
            for approach, cells in zip(cfg.approaches, outcomes):
                for value in values:
                    key = _format_cell_key(axis, value)
                    for rec in cells[value].records:
                        writer.writerow([rec.approach, key, rec.subject,
                                         rec.repeat,
                                         f"{rec.final_test_acc:.17g}"])
    except OSError as exc:
        raise WriteError(str(exc)) from exc
    return failures


def _print_report(report, out) -> None:
    for label in report.approaches:
        mean = report.average_mean[label]
        std = report.average_std[label]
        print(f"{label}: average accuracy {mean:.4f}±{std:.4f}")
    print(f"wrote {out}")


def cmd_run(opts) -> Callable[[], int]:
    cfg = _resolve_run_config(opts)

    def work() -> int:
        outcomes = _run_tasks(cfg)
        if cfg.sweep is not None:
            failures = _write_sweep_csvs(cfg, outcomes)
            axis, values = cfg.sweep
            print(
                f"swept {axis} over {len(values)} value(s) for "
                f"{len(cfg.approaches)} approach(es); wrote {cfg.out}"
            )
            for line in failures:
                print(f"failed cell: {line}", file=sys.stderr)
            return EXIT_RUNTIME if failures else EXIT_OK
        records = [rec for batch in outcomes for rec in batch]
        _print_report(export_report(records, cfg.out, baseline=cfg.baseline),
                      cfg.out)
        return EXIT_OK
    return work


# ---------------------------------------------------------------------------
# gradcheck


# one probe per kind is enough for the report; conv2d gets the grouped and
# padded variants as extra probes under the same heading
GRADCHECK_LAYERS = (
    ("conv2d", LayerSpec("conv2d", out_maps=4, kernel=(2, 3), bias=True)),
    ("conv2d", LayerSpec("conv2d", out_maps=4, kernel=(1, 5),
                         padding="same-width", bias=False)),
    ("conv2d", LayerSpec("conv2d", out_maps=6, kernel=(3, 1), groups=3,
                         bias=False)),
    ("conv2d", LayerSpec("conv2d", out_maps=6, kernel=(1, 3), groups=3,
                         padding="same-width")),
    # above nn.layers.DIRECT_CONV_MAX_MAPS maps per group: the BLAS path
    ("conv2d", LayerSpec("conv2d", out_maps=12, kernel=(2, 3), bias=True)),
    ("conv2d", LayerSpec("conv2d", out_maps=27, kernel=(1, 3), groups=3,
                         padding="same-width")),
    ("conv2d", LayerSpec("conv2d", out_maps=12, kernel=(4, 1), bias=True)),
    ("batchnorm", LayerSpec("batchnorm")),
    ("elu", LayerSpec("elu")),
    ("square", LayerSpec("square")),
    ("safelog", LayerSpec("safelog")),
    ("avgpool", LayerSpec("avgpool", window=(1, 3), stride=(1, 2))),
    ("maxpool", LayerSpec("maxpool", window=(2, 2))),
    ("maxpool", LayerSpec("maxpool", window=(1, 3), stride=(1, 2))),
    ("dropout", LayerSpec("dropout", p=0.25)),
    ("flatten", LayerSpec("flatten")),
    ("dense", LayerSpec("dense", units=3)),
    ("permute", LayerSpec("permute")),
)

GRADCHECK_SEEDS = 3
GRADCHECK_INPUT = (3, 4, 6)
GRADCHECK_MODEL = dict(n_channels=4, n_samples=64, fs=32.0, n_classes=2)


def gradcheck_report(seed: int = 0) -> tuple[dict, dict]:
    """Worst finite-difference error per layer kind and per backbone."""
    layer_worst: dict[str, float] = {}
    for kind, spec in GRADCHECK_LAYERS:
        for s in range(GRADCHECK_SEEDS):
            rng = substream(seed, "gradcheck", kind, s)
            graph = layer_probe_graph(spec, GRADCHECK_INPUT, seed=seed + s)
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


def cmd_gradcheck(opts) -> Callable[[], int]:
    def work() -> int:
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
    return work


# ---------------------------------------------------------------------------
# report


def _read_runs_csv(path) -> list[RunRecord]:
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    if not rows or tuple(rows[0]) != RUNS_HEADER:
        raise UsageError(
            f"{path}: expected header {','.join(RUNS_HEADER)}"
        )
    records = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(RUNS_HEADER):
            raise UsageError(
                f"{path}:{lineno}: expected {len(RUNS_HEADER)} columns"
            )
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


def cmd_report(opts) -> Callable[[], int]:
    records = _read_runs_csv(opts["runs"])
    build_report(records, opts["baseline"])  # rejects a bad baseline or grid

    def work() -> int:
        report = export_report(records, opts["out"],
                               baseline=opts["baseline"])
        _print_report(report, opts["out"])
        return EXIT_OK
    return work


# ---------------------------------------------------------------------------
# parser + entry point


# command -> (handler, help, options it reads, options it requires); a
# handler resolves the options and returns its work as a callable
COMMANDS = {
    "synth": (cmd_synth, "write a synthetic dataset",
              (*SYNTH_PARAMS, "seed", "out"), ("out",)),
    "csp": (cmd_csp, "fit a filter bank and save it",
            ("data", "f", "ridge", "train_ratio", "subject", "export_weights",
             "seed", "out"), ("out", "data")),
    "run": (cmd_run, "execute an experiment",
            ("data", "synth", *SYNTH_PARAMS, "scenario", "approach",
             "backbone", "f", "ridge", "repeats", "train_ratio", "batch_size",
             "lr", "weight_decay", "epochs", "eval_every", "dropout",
             "balanced", "sweep", "baseline", "seed", "jobs", "out"),
            ("out",)),
    "gradcheck": (cmd_gradcheck, "finite-difference gradient audit",
                  ("seed",), ()),
    "report": (cmd_report, "rebuild summary tables from runs.csv",
               ("runs", "baseline", "out"), ("out", "runs")),
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cspnet",
        description="CSP filter banks, CSP-initialized networks, and "
                    "their evaluation protocol.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, command_help, names, _) in COMMANDS.items():
        p = sub.add_parser(command, help=command_help)
        p.add_argument("--config", help="key=value defaults file")
        for name in names:
            cast, _, option_help = OPTIONS[name]
            if cast is _parse_bool:
                p.add_argument(_flag(name), action="store_const", const=True,
                               help=option_help)
            else:
                p.add_argument(_flag(name), type=cast, help=option_help)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed its message
        code = exc.code if isinstance(exc.code, int) else EXIT_USAGE
        return EXIT_OK if code == 0 else EXIT_USAGE
    handler, _, names, required = COMMANDS[args.command]
    try:
        file_values = read_config_file(args.config) if args.config else {}
        opts = merge_options(args, file_values,
                             {name: OPTIONS[name] for name in names})
        for name in required:
            if not opts[name]:
                raise UsageError(f"missing required option {_flag(name)}")
        work = handler(opts)
    except (UsageError, CspnetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return work()
    except CspnetError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
