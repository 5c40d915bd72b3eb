"""Shared builders for small deterministic test datasets."""

import dataclasses

import numpy as np
import pytest

from cspnet.data import EpochSet, SynthSpec, synthesize_dataset


def make_epochset(
    n_per_class=6, c=3, t=32, n_classes=2, seed=0, n_subjects=1, fs=128.0
):
    """Small random EpochSet with float32-representable values."""
    n = n_subjects * n_classes * n_per_class
    x = np.random.default_rng(seed).standard_normal((n, c, t))
    return EpochSet(
        x=x.astype(np.float32).astype(np.float64),
        y=np.tile(np.repeat(np.arange(n_classes), n_per_class), n_subjects),
        subject_ids=np.repeat([f"S{s + 1}" for s in range(n_subjects)],
                              n_classes * n_per_class),
        fs=fs,
        channel_names=[f"C{i + 1}" for i in range(c)],
        class_names=[f"class{k}" for k in range(n_classes)],
    )


def epochs_from_arrays(x, labels, n_classes=None, subject="S1", fs=128.0):
    """One-subject EpochSet holding the given (n, c, t) trials and labels."""
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    k = n_classes if n_classes is not None else int(labels.max()) + 1
    return EpochSet(
        x=x,
        y=labels,
        subject_ids=np.full(len(x), subject),
        fs=fs,
        channel_names=[f"C{i + 1}" for i in range(x.shape[1])],
        class_names=[f"class{j}" for j in range(k)],
    )


def retag(epochs, subject):
    """The same trials, all tagged with one subject id."""
    return dataclasses.replace(
        epochs, subject_ids=np.full(epochs.n_trials, subject)
    )


def make_separable_epochset(
    n_per_class=40, c=4, t=64, seed=0, n_subjects=1, contrast=4.0, noise=0.0
):
    """Two-class set whose classes differ by spatial variance pattern."""
    cov0 = np.diag([contrast] * (c // 2) + [1.0] * (c - c // 2))
    cov1 = np.diag([1.0] * (c // 2) + [contrast] * (c - c // 2))
    spec = SynthSpec(
        n_channels=c,
        n_samples=t,
        n_classes=2,
        class_covariances=[cov0, cov1],
        trials_per_class=n_per_class,
        noise_scale=noise,
        n_subjects=n_subjects,
    )
    return synthesize_dataset(spec, seed)


@pytest.fixture
def small_epochs():
    return make_epochset()
