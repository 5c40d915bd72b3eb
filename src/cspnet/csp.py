"""Common spatial pattern estimation and the log-variance baseline classifier.

The core problem: given class-mean covariances C1, C2, find filters w
maximizing (minimizing) the Rayleigh quotient wT C1 w / wT C2 w, i.e. the
generalized symmetric-definite eigenproblem C1 w = lambda (C2 + ridge I) w.
Solved by whitening: Cholesky of the regularized C2, symmetric
eigendecomposition of the whitened C1, back-transform. Columns come out
C2-metric orthonormal.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import EpochSet
from .errors import (
    DegenerateInputError,
    FormatError,
    NumericalError,
    ParameterError,
    ValidationError,
)

LOGVAR_EPS = 1e-10
LR_L2 = 1e-4
LR_GRAD_TOL = 1e-6
LR_MAX_ITERS = 5000


@dataclass
class SpatialCovariance:
    matrix: np.ndarray  # (c, c) symmetric PSD
    n_trials_averaged: int

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError(f"covariance must be square, got {m.shape}")
        if np.abs(m - m.T).max() > 1e-10:
            raise ValidationError("covariance is not symmetric within 1e-10")
        if np.linalg.eigvalsh(m).min() < -1e-10:
            raise ValidationError("covariance is not positive semi-definite")
        self.matrix = m


@dataclass
class CSPModel:
    W: np.ndarray  # (c, f), columns are filters
    eigenvalues: np.ndarray  # (f,), aligned with columns
    f: int
    scheme: str  # "binary" or "one-vs-rest"
    class_blocks: list[int] | None = None  # per-column target class (OVR only)

    @property
    def n_channels(self) -> int:
        return self.W.shape[0]


@dataclass
class CspLrModel:
    csp: CSPModel
    weights: np.ndarray  # (f, K)
    bias: np.ndarray  # (K,)
    feature_mean: np.ndarray  # (f,)
    feature_std: np.ndarray  # (f,), strictly positive

    def __post_init__(self) -> None:
        if np.any(self.feature_std <= 0):
            raise ValidationError("feature_std must be strictly positive")


def _covariances(trials: np.ndarray) -> np.ndarray:
    """Trace-normalized covariances X XT / tr(X XT) of an (n, c, t) stack."""
    covs = trials @ trials.transpose(0, 2, 1)
    tr = np.trace(covs, axis1=1, axis2=2)
    if np.any(tr <= 0):
        raise DegenerateInputError("all-zero trial has no covariance direction")
    covs /= tr[:, None, None]
    return (covs + covs.transpose(0, 2, 1)) / 2


def _stack(trials) -> np.ndarray:
    return np.stack([np.asarray(tr.data, dtype=np.float64) for tr in trials])


def trial_covariance(trial: np.ndarray) -> SpatialCovariance:
    """Trace-normalized per-trial covariance X XT / tr(X XT)."""
    x = np.asarray(trial, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] < 2:
        raise ParameterError(f"trial must be c x t with t >= 2, got {x.shape}")
    return SpatialCovariance(matrix=_covariances(x[None])[0], n_trials_averaged=1)


def class_mean_covariance(epochs: EpochSet, class_k: int) -> SpatialCovariance:
    """Arithmetic mean of trace-normalized trial covariances of one class."""
    idx = epochs.class_indices(class_k)
    if not idx:
        raise ValidationError(f"class {class_k} has no trials")
    covs = _covariances(_stack(epochs.trials[i] for i in idx))
    return SpatialCovariance(matrix=covs.sum(axis=0) / len(idx),
                             n_trials_averaged=len(idx))


def default_ridge(c2: SpatialCovariance) -> float:
    """Scale-aware floor keeping rank-deficient covariances factorable."""
    c = c2.matrix.shape[0]
    return 1e-6 * np.trace(c2.matrix) / c


def check_filter_count(f: int, n_channels: int, n_classes: int) -> None:
    """Reject filter counts no CSP design can deliver: more filters than
    channels, an odd count for two classes (f/2 per end of the spectrum),
    or a count not divisible by the classes (f/K per one-vs-rest block).
    """
    if f < 1:
        raise ParameterError(f"filter count must be positive, got f={f}")
    if f > n_channels:
        raise ParameterError(f"f={f} exceeds {n_channels} channels")
    if n_classes == 2 and f % 2:
        raise ParameterError(f"f={f} must be even for 2 classes")
    if n_classes > 2 and f % n_classes:
        raise ParameterError(f"f={f} not divisible by {n_classes} classes")


def _generalized_eig(c1: np.ndarray, b: np.ndarray):
    """All eigenpairs of c1 w = lambda b w, b positive-definite.

    Returns (eigenvalues ascending, eigenvectors as columns with
    wT b w = 1).
    """
    try:
        chol = np.linalg.cholesky(b)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            "regularized covariance is not positive-definite; increase ridge"
        ) from exc
    # whiten: M = L^-1 C1 L^-T, then back-transform the orthonormal basis
    half = np.linalg.solve(chol, c1)
    m = np.linalg.solve(chol, half.T)
    m = (m + m.T) / 2
    evals, vecs = np.linalg.eigh(m)
    w = np.linalg.solve(chol.T, vecs)
    return evals, w


def _fix_signs(w: np.ndarray) -> np.ndarray:
    # largest-magnitude component positive; argmax takes the lowest index on ties
    for j in range(w.shape[1]):
        if w[np.argmax(np.abs(w[:, j])), j] < 0:
            w[:, j] = -w[:, j]
    return w


def _pencil_filters(c1: np.ndarray, c2: np.ndarray, ridge: float,
                    ranks: np.ndarray):
    """Filters of the pencil (c1, c2 + ridge I) at the given positions of
    the descending eigenvalue order, normalized to wT (c2 + ridge I) w = 1
    and sign-fixed; returns (W, eigenvalues).
    """
    if ridge < 0:
        raise ParameterError("ridge must be nonnegative")
    b = c2 + ridge * np.eye(c2.shape[0])
    evals, vecs = _generalized_eig(c1, b)
    keep = np.argsort(evals)[::-1][ranks]
    w = vecs[:, keep]
    # eigh leaves wT b w = 1 up to rounding; tighten explicitly
    w /= np.sqrt(np.einsum("ij,ik,kj->j", w, b, w))
    return _fix_signs(w), evals[keep]


def solve_csp(
    c1: SpatialCovariance, c2: SpatialCovariance, f: int, ridge: float
) -> CSPModel:
    """Binary CSP: f/2 most class-1-expressive plus f/2 most class-2-expressive
    filters of the pencil (c1, c2 + ridge I), columns in descending eigenvalue
    order and normalized to wT (c2 + ridge I) w = 1.
    """
    c = c1.matrix.shape[0]
    if c2.matrix.shape[0] != c:
        raise ParameterError("covariance sizes differ")
    check_filter_count(f, c, 2)
    half = f // 2
    w, evals = _pencil_filters(c1.matrix, c2.matrix, ridge,
                               np.r_[0:half, c - half:c])
    return CSPModel(W=w, eigenvalues=evals, f=f, scheme="binary",
                    class_blocks=None)


def design_csp(train: EpochSet, f: int, ridge: float | None = None) -> CSPModel:
    """Design CSP filters on training trials.

    Two classes give the binary bank of `solve_csp`. More classes give a
    one-vs-rest bank: per class k, the f/K filters with the largest
    eigenvalues of (C_k, C_rest + ridge I), columns grouped by class. Each
    trial's trace-normalized covariance is computed once; C_rest is the
    mean over all trials outside class k. ridge=None picks
    `default_ridge` of the mean covariance over all trials.
    """
    k_classes = train.n_classes
    if k_classes < 2:
        raise ValidationError("need at least 2 classes")
    check_filter_count(f, train.n_channels, k_classes)
    covs = _covariances(_stack(train.trials))
    labels = train.labels()
    counts = np.bincount(labels, minlength=k_classes)
    if not counts.all():
        raise ValidationError(f"class {np.argmin(counts)} has no trials")
    sums = np.stack([covs[labels == k].sum(axis=0) for k in range(k_classes)])
    n = len(labels)
    total = sums.sum(axis=0)
    if ridge is None:
        ridge = default_ridge(SpatialCovariance(total / n, n))
    own = [SpatialCovariance(sums[k] / counts[k], int(counts[k]))
           for k in range(k_classes)]
    if k_classes == 2:
        return solve_csp(own[0], own[1], f, ridge)
    per_class = f // k_classes
    cols = []
    eigenvalues = []
    for k in range(k_classes):
        rest = SpatialCovariance((total - sums[k]) / (n - counts[k]),
                                 int(n - counts[k]))
        w, evals = _pencil_filters(own[k].matrix, rest.matrix, ridge,
                                   np.arange(per_class))
        cols.append(w)
        eigenvalues.append(evals)
    return CSPModel(
        W=np.concatenate(cols, axis=1),
        eigenvalues=np.concatenate(eigenvalues),
        f=f,
        scheme="one-vs-rest",
        class_blocks=[k for k in range(k_classes) for _ in range(per_class)],
    )


def apply_filters(model: CSPModel, trial: np.ndarray) -> np.ndarray:
    """Project a trial into filter space: WT X, shape (f, t)."""
    x = np.asarray(trial, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != model.n_channels:
        raise ParameterError(
            f"trial shape {x.shape} does not match {model.n_channels} channels"
        )
    return model.W.T @ x


def logvar_features(filtered: np.ndarray) -> np.ndarray:
    """Per-row log population variance, guarded against zero variance.

    Reduces the last axis, so an (f, t) trial gives (f,) and an (n, f, t)
    stack gives (n, f).
    """
    x = np.asarray(filtered, dtype=np.float64)
    if x.ndim < 2 or x.shape[-1] < 2:
        raise ParameterError(f"need an f x t matrix with t >= 2, got {x.shape}")
    return np.log(np.var(x, axis=-1) + LOGVAR_EPS)


def csp_objective(
    w: np.ndarray, c1: SpatialCovariance, c2: SpatialCovariance
) -> np.ndarray:
    """Per-column Rayleigh quotient (wT C1 w) / (wT C2 w)."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != c1.matrix.shape[0]:
        raise ParameterError(f"filter matrix shape {w.shape} incompatible")
    num = np.einsum("ij,ik,kj->j", w, c1.matrix, w)
    den = np.einsum("ij,ik,kj->j", w, c2.matrix, w)
    if np.any(den == 0):
        raise DegenerateInputError("zero variance under C2 for some column")
    return num / den


# ---------------------------------------------------------------------------
# CSP + logistic regression baseline


def _feature_matrix(model: CSPModel, epochs: EpochSet) -> np.ndarray:
    return logvar_features(model.W.T @ _stack(epochs.trials))


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def train_csp_lr(train: EpochSet, f: int, ridge: float | None,
                 seed: int) -> CspLrModel:
    """Design CSP filters with `design_csp` (ridge=None picks its default),
    standardize log-variance features, fit multinomial logistic regression
    by full-batch gradient descent (L2 1e-4, stop at gradient norm < 1e-6
    or 5000 iterations). Deterministic: zero initialization, step size from
    the softmax curvature bound.
    """
    k_classes = train.n_classes
    if k_classes < 2:
        raise ValidationError("need at least 2 classes to fit a classifier")
    csp = design_csp(train, f, ridge)

    feats = _feature_matrix(csp, train)
    mean = feats.mean(axis=0)
    std = feats.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    z = (feats - mean) / std

    n = z.shape[0]
    labels = train.labels()
    onehot = np.zeros((n, k_classes))
    onehot[np.arange(n), labels] = 1.0

    # Lipschitz bound of the softmax cross-entropy gradient in the weights
    lam_max = float(np.linalg.eigvalsh(z.T @ z / n).max())
    lr = 1.0 / (0.5 * lam_max + LR_L2)

    w = np.zeros((csp.f, k_classes))
    b = np.zeros(k_classes)
    for _ in range(LR_MAX_ITERS):
        probs = _softmax(z @ w + b)
        resid = (probs - onehot) / n
        grad_w = z.T @ resid + LR_L2 * w
        grad_b = resid.sum(axis=0)
        gnorm = np.sqrt((grad_w**2).sum() + (grad_b**2).sum())
        if gnorm < LR_GRAD_TOL:
            break
        w -= lr * grad_w
        b -= lr * grad_b
    return CspLrModel(
        csp=csp, weights=w, bias=b, feature_mean=mean, feature_std=std
    )


def predict_csp_lr(model: CspLrModel, trial: np.ndarray):
    """Return (label, class probabilities) for one trial."""
    feats = logvar_features(apply_filters(model.csp, trial))
    z = (feats - model.feature_mean) / model.feature_std
    probs = _softmax((z @ model.weights + model.bias)[None, :])[0]
    return int(np.argmax(probs)), probs


# ---------------------------------------------------------------------------
# text serialization


def save_csp(model: CSPModel, path) -> None:
    """Write `csp v1 c f scheme`, eigenvalues, then one filter per line;
    one-vs-rest adds a final `classes ...` line mapping columns to targets.
    """
    lines = [f"csp v1 {model.n_channels} {model.f} {model.scheme}"]
    lines.append(" ".join(f"{v:.17g}" for v in model.eigenvalues))
    for j in range(model.f):
        lines.append(" ".join(f"{v:.17g}" for v in model.W[:, j]))
    if model.scheme == "one-vs-rest":
        lines.append("classes " + " ".join(str(k) for k in model.class_blocks))
    Path(path).write_text("\n".join(lines) + "\n")


def load_csp(path) -> CSPModel:
    text = Path(path).read_text()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty filter file")
    header = lines[0].split()
    if len(header) != 5 or header[0] != "csp" or header[1] != "v1":
        raise FormatError(f"unrecognized filter file header: {lines[0]!r}")
    c, f = int(header[2]), int(header[3])
    scheme = header[4]
    if scheme not in ("binary", "one-vs-rest"):
        raise FormatError(f"unknown scheme {scheme!r}")
    expected = 2 + f + (1 if scheme == "one-vs-rest" else 0)
    if len(lines) != expected:
        raise FormatError(f"expected {expected} lines, found {len(lines)}")
    eigenvalues = np.array([float(v) for v in lines[1].split()])
    if eigenvalues.size != f:
        raise FormatError(f"expected {f} eigenvalues, found {eigenvalues.size}")
    w = np.empty((c, f))
    for j in range(f):
        col = np.array([float(v) for v in lines[2 + j].split()])
        if col.size != c:
            raise FormatError(f"filter {j} has {col.size} entries, expected {c}")
        w[:, j] = col
    blocks = None
    if scheme == "one-vs-rest":
        tail = lines[2 + f].split()
        if tail[0] != "classes" or len(tail) != f + 1:
            raise FormatError("malformed class-target line")
        blocks = [int(v) for v in tail[1:]]
    return CSPModel(W=w, eigenvalues=eigenvalues, f=f, scheme=scheme,
                    class_blocks=blocks)
