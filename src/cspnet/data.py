"""EEG trial collections: loading, synthesis, preprocessing and splitting.

The universal currency is the EpochSet: a list of labeled fixed-shape
trials (channels x samples, microvolts) plus sampling-rate and naming
metadata. All operations are pure and seed-deterministic.

On-disk dataset layout (one directory):

    manifest.json   {"fs": ..., "n_samples": t, "channel_names": [...],
                     "class_names": [...],
                     "subjects": [{"id", "n_trials", "file", "labels"}, ...]}
    <subject file>  raw float32 little-endian, row-major [trial][channel][sample]

Samples are stored at 32-bit precision; in memory everything is float64.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
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


@dataclass
class Trial:
    data: np.ndarray  # (channels, samples) float64, microvolts
    label: int
    subject: str


@dataclass
class EpochSet:
    trials: list[Trial]
    fs: float
    channel_names: list[str]
    class_names: list[str]

    def __post_init__(self) -> None:
        validate_epochset(self)

    @property
    def n_channels(self) -> int:
        return len(self.channel_names)

    @property
    def n_samples(self) -> int:
        return self.trials[0].data.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    def labels(self) -> np.ndarray:
        return np.array([tr.label for tr in self.trials], dtype=np.int64)

    def subjects(self) -> list[str]:
        seen: list[str] = []
        for tr in self.trials:
            if tr.subject not in seen:
                seen.append(tr.subject)
        return seen

    def subset(self, indices) -> "EpochSet":
        """New EpochSet holding the selected trials (data shared, not copied)."""
        idx = [int(i) for i in indices]
        for i in idx:
            if i < 0 or i >= len(self.trials):
                raise ParameterError(f"trial index {i} out of range")
        return EpochSet(
            trials=[self.trials[i] for i in idx],
            fs=self.fs,
            channel_names=list(self.channel_names),
            class_names=list(self.class_names),
        )

    def class_indices(self, class_k: int) -> list[int]:
        return [i for i, tr in enumerate(self.trials) if tr.label == class_k]


def validate_epochset(epochs: EpochSet) -> None:
    if not epochs.trials:
        raise ValidationError("EpochSet must contain at least one trial")
    if epochs.fs <= 0:
        raise ValidationError(f"sampling rate must be positive, got {epochs.fs}")
    c = len(epochs.channel_names)
    if c < 2:
        raise ValidationError(f"need at least 2 channels, got {c}")
    shape = epochs.trials[0].data.shape
    if len(shape) != 2 or shape[0] != c or shape[1] < 2:
        raise ValidationError(f"trial shape {shape} inconsistent with {c} channels")
    k = len(epochs.class_names)
    for i, tr in enumerate(epochs.trials):
        if tr.data.shape != shape:
            raise ValidationError(
                f"trial {i} has shape {tr.data.shape}, expected {shape}"
            )
        if not 0 <= tr.label < k:
            raise ValidationError(f"trial {i} label {tr.label} outside 0..{k - 1}")


@dataclass
class SplitPlan:
    train_indices: list[int]
    test_indices: list[int]
    seed: int
    scheme: str  # "within-subject-ratio" or "leave-one-subject-out"


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
    the 32-bit on-disk format.
    """
    chols = [np.linalg.cholesky(np.asarray(cov, dtype=np.float64))
             for cov in spec.class_covariances]
    trials: list[Trial] = []
    for s in range(spec.n_subjects):
        subject = f"S{s + 1}"
        rng = substream(seed, "synth", s)
        for k in range(spec.n_classes):
            for _ in range(spec.trials_per_class):
                g = rng.standard_normal((spec.n_channels, spec.n_samples))
                x = chols[k] @ g
                if spec.noise_scale > 0:
                    x = x + spec.noise_scale * rng.standard_normal(x.shape)
                x = x.astype(np.float32).astype(np.float64)
                trials.append(Trial(data=x, label=k, subject=subject))
    return EpochSet(
        trials=trials,
        fs=spec.fs,
        channel_names=list(spec.channel_names),
        class_names=list(spec.class_names),
    )


# ---------------------------------------------------------------------------
# on-disk format


def save_epochset(epochs: EpochSet, path) -> None:
    """Write the dataset directory format; values stored as float32 LE."""
    for i, tr in enumerate(epochs.trials):
        if not np.all(np.isfinite(tr.data)):
            raise ValidationError(f"trial {i} contains non-finite samples")
    root = Path(path)
    try:
        root.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise WriteError(f"cannot create dataset directory {root}: {exc}") from exc

    order = epochs.subjects()
    subject_entries = []
    try:
        for s_idx, subject in enumerate(order):
            rows = [tr for tr in epochs.trials if tr.subject == subject]
            fname = f"subject_{s_idx:02d}.dat"
            payload = np.stack([tr.data for tr in rows]).astype("<f4")
            (root / fname).write_bytes(payload.tobytes(order="C"))
            subject_entries.append(
                {
                    "id": subject,
                    "n_trials": len(rows),
                    "file": fname,
                    "labels": [int(tr.label) for tr in rows],
                }
            )
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
    k = len(class_names)

    trials: list[Trial] = []
    for entry in manifest["subjects"]:
        n_trials = int(entry["n_trials"])
        labels = [int(x) for x in entry["labels"]]
        if len(labels) != n_trials:
            raise CorruptionError(
                f"subject {entry['id']}: {len(labels)} labels for {n_trials} trials"
            )
        for lab in labels:
            if not 0 <= lab < k:
                raise ValidationError(
                    f"subject {entry['id']}: label {lab} not a known class"
                )
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
        block = raw.reshape(n_trials, c, t).astype(np.float64)
        for i in range(n_trials):
            trials.append(
                Trial(data=block[i], label=labels[i], subject=str(entry["id"]))
            )
    if not trials:
        raise ValidationError(f"dataset at {root} declares no trials")
    return EpochSet(
        trials=trials, fs=fs, channel_names=channel_names, class_names=class_names
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
    trials = []
    for f, lab in zip(files, labels):
        data = np.atleast_2d(np.loadtxt(f, delimiter=",", dtype=np.float64))
        trials.append(Trial(data=data, label=int(lab), subject=subject))
    c = trials[0].data.shape[0]
    if channel_names is None:
        channel_names = [f"C{i + 1}" for i in range(c)]
    return EpochSet(
        trials=trials, fs=fs, channel_names=channel_names, class_names=class_names
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
    stack = np.stack([tr.data for tr in epochs.trials])
    filtered = filtfilt(b, a, stack, axis=-1, padtype="odd",
                        padlen=FILTFILT_PADLEN)
    return EpochSet(
        trials=[Trial(data=x, label=tr.label, subject=tr.subject)
                for x, tr in zip(filtered, epochs.trials)],
        fs=epochs.fs,
        channel_names=list(epochs.channel_names),
        class_names=list(epochs.class_names),
    )


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
    return SplitPlan(
        train_indices=train, test_indices=test, seed=seed,
        scheme="within-subject-ratio",
    )


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
    ids = [es.subjects() for es in epochs_by_subject]
    flat = [s for group in ids for s in group]
    if held_out not in flat:
        raise ParameterError(f"unknown subject {held_out!r}")
    train_trials: list[Trial] = []
    test_trials: list[Trial] = []
    for es in epochs_by_subject:
        for tr in es.trials:
            (test_trials if tr.subject == held_out else train_trials).append(tr)
    if not train_trials or not test_trials:
        raise ValidationError("leave-one-subject-out split left an empty side")
    mk = lambda trs: EpochSet(
        trials=trs, fs=ref.fs,
        channel_names=list(ref.channel_names), class_names=list(ref.class_names),
    )
    return mk(train_trials), mk(test_trials)


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
    return [
        epochs.subset([i for i, tr in enumerate(epochs.trials) if tr.subject == s])
        for s in epochs.subjects()
    ]
