"""EEG trial collections: loading, synthesis, preprocessing and splitting.

The universal currency is the EpochSet: one (trials, channels, samples)
float64 array of microvolts, the layout of MNE-Python's Epochs.get_data(),
with one class label and one subject id per trial plus sampling-rate and
naming metadata. A subset is a fancy index into these arrays; `trials`
gives read-only per-trial views. All operations are pure and
seed-deterministic.

On-disk dataset layout (one directory):

    manifest.json   {"fs": ..., "n_samples": t, "channel_names": [...],
                     "class_names": [...],
                     "subjects": [{"id", "n_trials", "file", "labels"}, ...]}
    <subject file>  raw float32 little-endian, row-major [trial][channel][sample]

Samples are stored at 32-bit precision; in memory everything is float64.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np
from scipy.signal import butter, filtfilt

from .errors import (
    CorruptionError,
    FormatError,
    ParameterError,
    ValidationError,
    WriteError,
)
from .rng import substream

BUTTER_ORDER = 4
# Reflection padding of three times the realized band-pass order (2*BUTTER_ORDER).
FILTFILT_PADLEN = 3 * (2 * BUTTER_ORDER)


@dataclass(frozen=True)
class Trial:
    """Read-only view of one trial of an EpochSet."""

    data: np.ndarray  # (channels, samples) float64, microvolts, not writeable
    label: int
    subject: str


@dataclass(frozen=True, eq=False)
class EpochSet:
    x: np.ndarray  # (trials, channels, samples) float64, microvolts
    y: np.ndarray  # (trials,) int64 class indices
    subject_ids: np.ndarray  # (trials,) subject id of each trial
    fs: float
    channel_names: list[str]
    class_names: list[str]

    def __post_init__(self) -> None:
        y = np.asarray(self.y)
        if y.size and not np.issubdtype(y.dtype, np.integer):
            raise ValidationError(f"labels must be integers, got {y.dtype}")
        object.__setattr__(self, "x", np.ascontiguousarray(self.x, np.float64))
        object.__setattr__(self, "y", y.astype(np.int64))
        object.__setattr__(self, "subject_ids",
                           np.asarray(self.subject_ids, dtype=str))
        validate_epochset(self)

    @property
    def n_trials(self) -> int:
        return self.x.shape[0]

    @property
    def n_channels(self) -> int:
        return len(self.channel_names)

    @property
    def n_samples(self) -> int:
        return self.x.shape[2]

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    @cached_property
    def trials(self) -> list[Trial]:
        """Per-trial read-only views of `x`, built on first use."""
        view = self.x.view()
        view.flags.writeable = False
        return [Trial(view[i], int(k), str(s))
                for i, (k, s) in enumerate(zip(self.y, self.subject_ids))]

    def __getstate__(self) -> dict:
        # the cached views would pickle every trial a second time and come
        # back as writeable copies; an unpickled set rebuilds them on use
        state = self.__dict__.copy()
        state.pop("trials", None)
        return state

    def labels(self) -> np.ndarray:
        return self.y.copy()

    def subjects(self) -> list[str]:
        """Subject ids in order of first appearance."""
        ids, first = np.unique(self.subject_ids, return_index=True)
        return [str(s) for s in ids[np.argsort(first)]]

    def subset(self, indices) -> "EpochSet":
        """New EpochSet holding copies of the selected trials, in order."""
        idx = np.asarray(indices, dtype=np.int64).reshape(-1)
        bad = idx[(idx < 0) | (idx >= self.n_trials)]
        if bad.size:
            raise ParameterError(f"trial index {bad[0]} out of range")
        return dataclasses.replace(self, x=self.x[idx], y=self.y[idx],
                                   subject_ids=self.subject_ids[idx])

    def class_indices(self, class_k: int) -> np.ndarray:
        return np.flatnonzero(self.y == class_k)


def validate_epochset(epochs: EpochSet) -> None:
    x = epochs.x
    if x.ndim != 3:
        raise ValidationError(f"trials must be (n, c, t), got {x.shape}")
    if x.shape[0] == 0:
        raise ValidationError("EpochSet must contain at least one trial")
    if epochs.fs <= 0:
        raise ValidationError(f"sampling rate must be positive, got {epochs.fs}")
    c = len(epochs.channel_names)
    if c < 2:
        raise ValidationError(f"need at least 2 channels, got {c}")
    if x.shape[1] != c or x.shape[2] < 2:
        raise ValidationError(f"trial shape {x.shape[1:]} inconsistent with "
                              f"{c} channels")
    for name, arr in (("labels", epochs.y), ("subject ids", epochs.subject_ids)):
        if arr.shape != x.shape[:1]:
            raise ValidationError(f"{arr.shape} {name} for {len(x)} trials")
    k = len(epochs.class_names)
    bad = np.flatnonzero((epochs.y < 0) | (epochs.y >= k))
    if bad.size:
        i = bad[0]
        raise ValidationError(f"trial {i} label {epochs.y[i]} outside 0..{k - 1}")


@dataclass
class SplitPlan:
    train_indices: list[int]
    test_indices: list[int]


@dataclass
class SynthSpec:
    """Recipe for a Gaussian synthetic motor-imagery stand-in dataset.

    Each class-k trial is L_k @ G + noise_scale * N with G, N i.i.d. standard
    normal and L_k the Cholesky factor of class_covariances[k].
    """

    n_channels: int
    n_samples: int
    n_classes: int
    class_covariances: list[np.ndarray]
    trials_per_class: int
    noise_scale: float = 0.0
    n_subjects: int = 1
    fs: float = 128.0
    channel_names: list[str] = field(default_factory=list)
    class_names: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.n_channels < 2 or self.n_samples < 2:
            raise ParameterError("need n_channels >= 2 and n_samples >= 2")
        if self.n_classes < 1 or len(self.class_covariances) != self.n_classes:
            raise ParameterError("one covariance matrix per class required")
        if self.trials_per_class < 1:
            raise ParameterError("trials_per_class must be >= 1")
        if self.noise_scale < 0:
            raise ParameterError("noise_scale must be nonnegative")
        if self.n_subjects < 1:
            raise ParameterError("n_subjects must be >= 1")
        if self.fs <= 0:
            raise ParameterError("fs must be positive")
        c = self.n_channels
        for k, cov in enumerate(self.class_covariances):
            cov = np.asarray(cov, dtype=np.float64)
            if cov.shape != (c, c):
                raise ParameterError(f"covariance {k} must be {c}x{c}")
            if not np.allclose(cov, cov.T, atol=1e-10):
                raise ParameterError(f"covariance {k} is not symmetric")
            if np.linalg.eigvalsh(cov).min() <= 0:
                raise ParameterError(f"covariance {k} is not positive-definite")
        if not self.channel_names:
            self.channel_names = [f"C{i + 1}" for i in range(c)]
        if not self.class_names:
            self.class_names = [f"class{k}" for k in range(self.n_classes)]


def default_class_covariances(
    n_channels: int, n_classes: int, contrast: float = 3.0
) -> list[np.ndarray]:
    """Diagonal-dominant, class-distinct covariances.

    Channels are divided into one contiguous block per class; class k has
    variance `contrast` on its own block and 1 elsewhere, so each class is
    separable by spatial variance patterns.
    """
    if n_classes > n_channels:
        raise ParameterError("need at least one channel per class")
    bounds = np.linspace(0, n_channels, n_classes + 1).astype(int)
    covs = []
    for k in range(n_classes):
        d = np.ones(n_channels)
        d[bounds[k] : bounds[k + 1]] = contrast
        covs.append(np.diag(d))
    return covs


def synthesize_dataset(spec: SynthSpec, seed: int) -> EpochSet:
    """Draw a deterministic EpochSet from the synthetic recipe.

    Values are rounded to float32 so the set round-trips exactly through
    the 32-bit on-disk format; a draw that overflows float32 raises
    ParameterError.
    """
    chols = np.stack([np.linalg.cholesky(np.asarray(cov, dtype=np.float64))
                      for cov in spec.class_covariances])
    y = np.repeat(np.arange(spec.n_classes), spec.trials_per_class)
    n = y.size
    x = np.empty((spec.n_subjects * n, spec.n_channels, spec.n_samples))
    # each trial draws its signal, then its noise, from the subject's stream
    draws = 2 if spec.noise_scale > 0 else 1
    for s in range(spec.n_subjects):
        g = substream(seed, "synth", s).standard_normal(
            (n, draws, spec.n_channels, spec.n_samples))
        trials = chols[y] @ g[:, 0]
        if spec.noise_scale > 0:
            trials += spec.noise_scale * g[:, 1]
        with np.errstate(over="ignore"):
            x[s * n : (s + 1) * n] = trials.astype(np.float32)
    if not np.isfinite(x).all():
        raise ParameterError("synthetic trials overflow float32")
    return EpochSet(
        x=x,
        y=np.tile(y, spec.n_subjects),
        subject_ids=np.repeat([f"S{s + 1}" for s in range(spec.n_subjects)],
                              y.size),
        fs=spec.fs,
        channel_names=list(spec.channel_names),
        class_names=list(spec.class_names),
    )


# ---------------------------------------------------------------------------
# on-disk format


def save_epochset(epochs: EpochSet, path) -> None:
    """Write the dataset directory format; values stored as float32 LE."""
    with np.errstate(over="ignore"):
        x32 = epochs.x.astype("<f4")
    bad = np.flatnonzero(~np.isfinite(x32).all(axis=(1, 2)))
    if bad.size:
        raise ValidationError(f"trial {bad[0]} is not finite in float32")
    root = Path(path)
    try:
        root.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise WriteError(f"cannot create dataset directory {root}: {exc}") from exc

    order = epochs.subjects()
    subject_entries = []
    try:
        for s_idx, subject in enumerate(order):
            rows = epochs.subject_ids == subject
            fname = f"subject_{s_idx:02d}.dat"
            payload = x32[rows]
            (root / fname).write_bytes(payload.tobytes(order="C"))
            subject_entries.append({"id": subject, "n_trials": len(payload),
                                    "file": fname,
                                    "labels": epochs.y[rows].tolist()})
        manifest = {
            "fs": epochs.fs,
            "n_samples": epochs.n_samples,
            "channel_names": epochs.channel_names,
            "class_names": epochs.class_names,
            "subjects": subject_entries,
        }
        (root / "manifest.json").write_text(json.dumps(manifest, indent=2))
    except OSError as exc:
        raise WriteError(f"cannot write dataset to {root}: {exc}") from exc


def load_epochset(path) -> EpochSet:
    """Read a dataset directory written by save_epochset.

    Trial order follows the manifest subject order, then per-subject
    trial order.
    """
    root = Path(path)
    mpath = root / "manifest.json"
    if not mpath.is_file():
        raise FormatError(f"missing manifest.json in {root}")
    try:
        manifest = json.loads(mpath.read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"manifest.json is not valid JSON: {exc}") from exc

    for key in ("fs", "n_samples", "channel_names", "class_names", "subjects"):
        if key not in manifest:
            raise FormatError(f"manifest.json missing field {key!r}")
    fs = float(manifest["fs"])
    t = int(manifest["n_samples"])
    channel_names = [str(x) for x in manifest["channel_names"]]
    class_names = [str(x) for x in manifest["class_names"]]
    c = len(channel_names)

    blocks, labels, ids = [], [], []
    for entry in manifest["subjects"]:
        n_trials = int(entry["n_trials"])
        entry_labels = np.array(entry["labels"], dtype=np.int64)
        if entry_labels.shape != (n_trials,):
            raise CorruptionError(f"subject {entry['id']}: {entry_labels.size} "
                                  f"labels for {n_trials} trials")
        fpath = root / entry["file"]
        if not fpath.is_file():
            raise FormatError(f"missing payload file {fpath}")
        raw = np.frombuffer(fpath.read_bytes(), dtype="<f4")
        expected = n_trials * c * t
        if raw.size != expected:
            raise CorruptionError(
                f"{fpath.name}: payload holds {raw.size} values, "
                f"manifest implies {expected}"
            )
        if not np.isfinite(raw).all():
            raise CorruptionError(f"{fpath.name}: payload holds a non-finite value")
        blocks.append(raw.reshape(n_trials, c, t))
        labels.append(entry_labels)
        ids.append(np.full(n_trials, str(entry["id"])))
    if not sum(map(len, labels)):
        raise ValidationError(f"dataset at {root} declares no trials")
    return EpochSet(
        x=np.concatenate(blocks, dtype=np.float64),
        y=np.concatenate(labels),
        subject_ids=np.concatenate(ids),
        fs=fs,
        channel_names=channel_names,
        class_names=class_names,
    )


def load_csv_trials(
    files,
    labels,
    fs: float,
    class_names: list[str],
    channel_names: list[str] | None = None,
    subject: str = "S1",
) -> EpochSet:
    """Import one CSV file per trial (rows = channels) for hand-written tests."""
    files = [Path(f) for f in files]
    if len(files) != len(labels):
        raise ParameterError("one label per CSV file required")
    if not files:
        raise ParameterError("need at least one CSV file")
    datas = [np.atleast_2d(np.loadtxt(f, delimiter=",", dtype=np.float64))
             for f in files]
    for f, data in zip(files, datas):
        if data.shape != datas[0].shape:
            raise ValidationError(
                f"{f.name} holds a {data.shape} trial, {files[0].name} "
                f"a {datas[0].shape} one"
            )
    if channel_names is None:
        channel_names = [f"C{i + 1}" for i in range(datas[0].shape[0])]
    return EpochSet(
        x=np.stack(datas),
        y=np.asarray(labels),
        subject_ids=np.full(len(datas), subject),
        fs=fs,
        channel_names=channel_names,
        class_names=class_names,
    )


# ---------------------------------------------------------------------------
# preprocessing


def bandpass_filter(epochs: EpochSet, low_hz: float, high_hz: float) -> EpochSet:
    """Zero-phase 4th-order Butterworth band-pass of every channel.

    Applied forward-backward with odd-reflection edge padding; the input
    set is left untouched.
    """
    nyq = epochs.fs / 2.0
    if not (0 < low_hz < high_hz < nyq):
        raise ParameterError(
            f"band ({low_hz}, {high_hz}) Hz invalid for fs={epochs.fs}"
        )
    if epochs.n_samples <= FILTFILT_PADLEN:
        raise ParameterError(
            f"need more than {FILTFILT_PADLEN} samples per trial to band-pass"
        )
    b, a = butter(BUTTER_ORDER, [low_hz / nyq, high_hz / nyq], btype="band")
    filtered = filtfilt(b, a, epochs.x, axis=-1, padtype="odd",
                        padlen=FILTFILT_PADLEN)
    return dataclasses.replace(epochs, x=filtered)


# ---------------------------------------------------------------------------
# splits


def _floor_count(ratio: float, n: int) -> int:
    # epsilon guard so 0.7 * 10 counts as 7, not 6
    return int(math.floor(ratio * n + 1e-9))


def _ceil_count(ratio: float, n: int) -> int:
    return int(math.ceil(ratio * n - 1e-9))


def split_within_subject(epochs: EpochSet, train_ratio: float, seed: int) -> SplitPlan:
    """Stratified train/test split: floor(ratio * n_class), at least 1, per class."""
    if not 0 < train_ratio < 1:
        raise ParameterError(f"train_ratio must be in (0, 1), got {train_ratio}")
    train: list[int] = []
    test: list[int] = []
    rng = substream(seed, "split-within")
    for k in range(epochs.n_classes):
        idx = np.array(epochs.class_indices(k), dtype=np.int64)
        if idx.size < 2:
            raise ValidationError(
                f"class {k} has {idx.size} trial(s); need at least 2 to split"
            )
        perm = rng.permutation(idx.size)
        n_train = max(1, _floor_count(train_ratio, idx.size))
        train.extend(int(i) for i in idx[perm[:n_train]])
        test.extend(int(i) for i in idx[perm[n_train:]])
    if not test:
        raise ValidationError("train_ratio leaves an empty test set")
    train.sort()
    test.sort()
    return SplitPlan(train_indices=train, test_indices=test)


def split_loso(
    epochs_by_subject: list[EpochSet], held_out: str
) -> tuple[EpochSet, EpochSet]:
    """Leave one subject out: (train = all others concatenated, test = held out)."""
    if len(epochs_by_subject) < 2:
        raise ParameterError("leave-one-subject-out needs at least 2 subjects")
    ref = epochs_by_subject[0]
    for es in epochs_by_subject[1:]:
        if (
            es.channel_names != ref.channel_names
            or es.class_names != ref.class_names
            or es.fs != ref.fs
            or es.n_samples != ref.n_samples
        ):
            raise ValidationError("subject metadata mismatch (channels/classes/fs/t)")
    ids = np.concatenate([es.subject_ids for es in epochs_by_subject])
    held = ids == held_out
    if not held.any():
        raise ParameterError(f"unknown subject {held_out!r}")
    if held.all():
        raise ValidationError("leave-one-subject-out split left an empty side")
    x = np.concatenate([es.x for es in epochs_by_subject])
    y = np.concatenate([es.y for es in epochs_by_subject])
    mk = lambda rows: EpochSet(
        x[rows], y[rows], ids[rows], ref.fs,
        list(ref.channel_names), list(ref.class_names),
    )
    return mk(~held), mk(held)


def subsample_training(train: EpochSet, ratio: float, seed: int) -> EpochSet:
    """Stratified subsample keeping ceil(ratio * n_class) trials per class."""
    if not 0 < ratio <= 1:
        raise ParameterError(f"ratio must be in (0, 1], got {ratio}")
    if ratio == 1:
        return train
    rng = substream(seed, "subsample")
    keep: list[int] = []
    for k in range(train.n_classes):
        idx = np.array(train.class_indices(k), dtype=np.int64)
        if idx.size == 0:
            continue
        n_keep = max(1, _ceil_count(ratio, idx.size))
        perm = rng.permutation(idx.size)
        keep.extend(int(i) for i in idx[perm[:n_keep]])
    keep.sort()
    return train.subset(keep)


def by_subject(epochs: EpochSet) -> list[EpochSet]:
    """Partition a tagged EpochSet into single-subject sets (manifest order)."""
    return [epochs.subset(np.flatnonzero(epochs.subject_ids == s))
            for s in epochs.subjects()]
