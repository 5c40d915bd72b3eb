"""Correctness checks on the program's outputs.

Each check recomputes what it needs with numpy/scipy, apart from the
package, or tests a property the method must have, and raises CheckError
with a one-line reason when the output is wrong.
"""

from __future__ import annotations

import csv
import math

import numpy as np
import scipy.linalg
import scipy.stats

CSP_EIG_RTOL = 1e-7
CSP_METRIC_ATOL = 1e-8
# Trace-scaled default ridge used by the package when none is given.
RIDGE_SCALE = 1e-6
LOGIT_ATOL = 1e-10
STAT_ATOL = 1e-9


class CheckError(AssertionError):
    """A program output failed a correctness check."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _trace_normalized_covs(trials: np.ndarray) -> np.ndarray:
    covs = np.einsum("nct,ndt->ncd", trials, trials)
    return covs / np.trace(covs, axis1=1, axis2=2)[:, None, None]


def oracle_ridge(trials: np.ndarray) -> float:
    """1e-6 * tr(C) / c of the pooled trace-normalized covariance."""
    pooled = _trace_normalized_covs(trials).mean(axis=0)
    return RIDGE_SCALE * float(np.trace(pooled)) / trials.shape[1]


def check_csp_filters(W: np.ndarray, eigenvalues: np.ndarray,
                      trials: np.ndarray, labels: np.ndarray,
                      ridge: float) -> None:
    """CSP filters solve C1 w = lambda (C2 + ridge I) w.

    Two classes: the f/2 largest and f/2 smallest eigenvalues of
    scipy.linalg.eigh(C_0, C_1 + ridge I). More classes (one-vs-rest):
    per class k, a block of f/K columns with the largest eigenvalues of
    eigh(C_k, C_rest + ridge I). In both cases W_blockT B W_block = I.
    """
    covs = _trace_normalized_covs(np.asarray(trials, dtype=np.float64))
    labels = np.asarray(labels)
    classes = np.unique(labels)
    c, f = W.shape
    _require(eigenvalues.shape == (f,), "one eigenvalue per filter expected")
    eye = np.eye(c)
    if classes.size == 2:
        pencils = [(covs[labels == classes[0]].mean(axis=0),
                    covs[labels == classes[1]].mean(axis=0), slice(0, f))]
    else:
        per = f // classes.size
        pencils = [(covs[labels == k].mean(axis=0),
                    covs[labels != k].mean(axis=0),
                    slice(i * per, (i + 1) * per))
                   for i, k in enumerate(classes)]
    for c1, c2, cols in pencils:
        b = c2 + ridge * eye
        expected = scipy.linalg.eigh(c1, b, eigvals_only=True)[::-1]
        w, lam = W[:, cols], eigenvalues[cols]
        n = w.shape[1]
        if classes.size == 2:
            expected = np.concatenate([expected[: n // 2],
                                       expected[c - n // 2:]])
        else:
            expected = expected[:n]
        _require(np.allclose(lam, expected, rtol=CSP_EIG_RTOL, atol=0),
                 f"CSP eigenvalues {lam} differ from scipy's {expected}")
        gram = w.T @ b @ w
        _require(np.allclose(gram, np.eye(n), atol=CSP_METRIC_ATOL),
                 "CSP filters are not (C2 + ridge I)-orthonormal")
        resid = c1 @ w - (b @ w) * lam
        _require(np.abs(resid).max() <= CSP_METRIC_ATOL * max(1.0, lam.max()),
                 "CSP filters do not satisfy C1 w = lambda (C2 + ridge I) w")


def check_projection(output: np.ndarray, W: np.ndarray,
                     trials: np.ndarray) -> None:
    """CSP-Net-1's projection layer output (N, f, 1, t) equals WT X."""
    direct = np.einsum("cf,nct->nft", W, trials)
    _require(output.shape == (trials.shape[0], W.shape[1], 1,
                              trials.shape[2]),
             f"projection output shape {output.shape} unexpected")
    _require(np.allclose(output[:, :, 0, :], direct, rtol=1e-12,
                         atol=1e-12 * np.abs(direct).max()),
             "projection layer output differs from WT X")


def check_accuracy_floor(label: str, accuracy: float, floor: float) -> None:
    _require(accuracy >= floor,
             f"{label}: accuracy {accuracy:.4f} below {floor:.4f}")


def check_logits(single: np.ndarray, batched: np.ndarray,
                 predictions: np.ndarray) -> None:
    """Single-trial logits equal the batched ones row for row, and each
    served label is the argmax of its single-trial logits."""
    _require(single.shape == batched.shape,
             f"logit shapes differ: {single.shape} vs {batched.shape}")
    scale = max(1.0, float(np.abs(batched).max()))
    gap = float(np.abs(single - batched).max())
    _require(gap <= LOGIT_ATOL * scale,
             f"single-trial and batched logits differ by {gap:.3e}")
    _require(np.array_equal(np.argmax(single, axis=1), predictions),
             "a served label is not the argmax of its logits")


def record_key(record) -> tuple:
    """Everything a run record holds except its wall time."""
    return (record.approach, record.subject, record.repeat,
            record.final_test_acc, tuple(record.curve_epochs),
            tuple(record.train_curve), tuple(record.test_curve))


def check_same_records(first: list, again: list) -> None:
    """A rerun with the same seed reproduces every record exactly."""
    a = [record_key(r) for r in first]
    b = [record_key(r) for r in again]
    _require(a == b, "rerun with the same seed produced different records")


def _subject_means(records: list, approach: str, subjects: list) -> list:
    return [float(np.mean([r.final_test_acc for r in records
                           if r.approach == approach and r.subject == s]))
            for s in subjects]


def check_report(records: list, report) -> None:
    """Summary means and paired-t p-values agree with numpy and
    scipy.stats.ttest_rel computed from the run records."""
    subjects = list(dict.fromkeys(r.subject for r in records))
    approaches = list(dict.fromkeys(r.approach for r in records))
    _require(list(report.approaches) == approaches,
             "report approaches differ from the records")
    means = {a: _subject_means(records, a, subjects) for a in approaches}
    for a in approaches:
        expected = float(np.mean(means[a]))
        _require(math.isclose(report.average_mean[a], expected,
                              rel_tol=0, abs_tol=STAT_ATOL),
                 f"{a}: reported mean {report.average_mean[a]} "
                 f"differs from {expected}")
    if report.baseline is None or len(subjects) < 2:
        _require(not report.p_raw, "p-values reported without a paired design")
        return
    for a in approaches:
        if a == report.baseline:
            continue
        diffs = np.subtract(means[a], means[report.baseline])
        if np.all(diffs == diffs[0]):
            # constant differences: ttest_rel is undefined (nan)
            expected = 1.0 if diffs[0] == 0 else 0.0
        else:
            expected = float(scipy.stats.ttest_rel(means[a],
                                                   means[report.baseline])
                             .pvalue)
        _require(a in report.p_raw, f"{a}: no p-value reported")
        _require(math.isclose(report.p_raw[a], expected, rel_tol=0,
                              abs_tol=STAT_ATOL),
                 f"{a}: reported p={report.p_raw[a]} differs from "
                 f"scipy's {expected}")


def check_runs_csv(path, records: list) -> None:
    """runs.csv holds one row per record with its exact accuracy."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    got = sorted((r[0], r[1], int(r[2]), float(r[3])) for r in rows)
    want = sorted((r.approach, r.subject, r.repeat, r.final_test_acc)
                  for r in records)
    _require(got == want, "runs.csv does not match the run records")
