"""Common spatial pattern estimation and the log-variance baseline classifier.

The core problem: given class-mean covariances C1, C2, find filters w
maximizing (minimizing) the Rayleigh quotient wT C1 w / wT C2 w, i.e. the
generalized symmetric-definite eigenproblem C1 w = lambda (C2 + ridge I) w,
solved by `scipy.linalg.eigh(C1, C2 + ridge I)`. Columns come out
(C2 + ridge I)-orthonormal.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.optimize
import scipy.special

from .data import EpochSet
from .errors import (
    DegenerateInputError,
    FormatError,
    NumericalError,
    ParameterError,
    ValidationError,
)
from .nn.loss import softmax_xent

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
        if not np.isfinite(m).all():
            raise ValidationError("covariance has non-finite entries")
        # rounding grows with the entries; trace-normalized ones keep 1e-10
        tol = 1e-10 * max(1.0, np.abs(m).max())
        if np.abs(m - m.T).max() > tol:
            raise ValidationError(
                f"covariance is not symmetric within {tol:.3g}")
        if np.linalg.eigvalsh(m).min() < -tol:
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
    finite = np.isfinite(covs).all(axis=(1, 2)) & np.isfinite(tr)
    if not finite.all():
        raise NumericalError(f"trial {np.argmin(finite)} of {len(trials)} "
                             "has a non-finite covariance or trace")
    if np.any(tr <= 0):
        raise DegenerateInputError("all-zero trial has no covariance direction")
    covs /= tr[:, None, None]
    return (covs + covs.transpose(0, 2, 1)) / 2


def trial_covariance(trial: np.ndarray) -> SpatialCovariance:
    """Trace-normalized per-trial covariance X XT / tr(X XT)."""
    x = np.asarray(trial, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] < 2:
        raise ParameterError(f"trial must be c x t with t >= 2, got {x.shape}")
    return SpatialCovariance(matrix=_covariances(x[None])[0], n_trials_averaged=1)


def class_mean_covariance(epochs: EpochSet, class_k: int) -> SpatialCovariance:
    """Arithmetic mean of trace-normalized trial covariances of one class."""
    idx = epochs.class_indices(class_k)
    if not idx.size:
        raise ValidationError(f"class {class_k} has no trials")
    covs = _covariances(epochs.x[idx])
    return SpatialCovariance(matrix=covs.sum(axis=0) / idx.size,
                             n_trials_averaged=idx.size)


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


def _pencil_filters(c1: np.ndarray, c2: np.ndarray, ridge: float,
                    ranks: np.ndarray):
    """Filters of the pencil (c1, c2 + ridge I) at the given positions of
    the descending eigenvalue order, normalized to wT (c2 + ridge I) w = 1
    and sign-fixed; returns (W, eigenvalues).
    """
    if ridge < 0:
        raise ParameterError("ridge must be nonnegative")
    b = c2 + ridge * np.eye(c2.shape[0])
    try:
        evals, vecs = scipy.linalg.eigh(c1, b)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            "regularized covariance is not positive-definite; increase ridge"
        ) from exc
    keep = np.argsort(evals)[::-1][ranks]
    w = vecs[:, keep]
    # eigh leaves wT b w = 1 up to rounding; tighten explicitly
    w /= np.sqrt(np.einsum("ij,ik,kj->j", w, b, w))
    # largest-magnitude entry positive; argmax takes the lowest index on ties
    w[:, w[np.abs(w).argmax(axis=0), np.arange(w.shape[1])] < 0] *= -1
    return w, evals[keep]


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
    covs = _covariances(train.x)
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


def apply_filters(model: CSPModel, trials: np.ndarray) -> np.ndarray:
    """Project into filter space: WT X, (f, t) for a (c, t) trial and
    (n, f, t) for an (n, c, t) stack. A non-finite sample is rejected."""
    x = np.asarray(trials, dtype=np.float64)
    if x.ndim not in (2, 3) or x.shape[-2] != model.n_channels:
        raise ParameterError(
            f"trial shape {x.shape} does not match {model.n_channels} channels"
        )
    if not np.all(np.isfinite(x)):
        raise ParameterError("trials contain non-finite values")
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


def train_csp_lr(train: EpochSet, f: int, ridge: float | None,
                 seed: int) -> CspLrModel:
    """Design CSP filters with `design_csp` (ridge=None picks its default),
    standardize log-variance features, and fit multinomial logistic
    regression: the mean softmax cross-entropy plus L2 1e-4 on the weights
    (the bias is unpenalised), minimised by scipy's BFGS from zero weights.
    BFGS stops at a gradient 2-norm below 1e-6, after 5000 iterations, or
    when its line search can no longer lower the loss; the last two return
    the final iterate. Deterministic; `seed` is unused.
    """
    k_classes = train.n_classes
    if k_classes < 2:
        raise ValidationError("need at least 2 classes to fit a classifier")
    csp = design_csp(train, f, ridge)

    feats = logvar_features(apply_filters(csp, train.x))
    mean = feats.mean(axis=0)
    std = feats.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    z = (feats - mean) / std
    labels = train.labels()
    n_weights = csp.f * k_classes

    def loss_and_grad(theta: np.ndarray) -> tuple[float, np.ndarray]:
        w = theta[:n_weights].reshape(csp.f, k_classes)
        loss, g = softmax_xent(z @ w + theta[n_weights:], labels)
        grad = np.concatenate([(z.T @ g + LR_L2 * w).ravel(), g.sum(axis=0)])
        return loss + 0.5 * LR_L2 * float((w**2).sum()), grad

    fit = scipy.optimize.minimize(
        loss_and_grad, np.zeros(n_weights + k_classes), jac=True,
        method="BFGS",
        options={"gtol": LR_GRAD_TOL, "norm": 2, "maxiter": LR_MAX_ITERS},
    )
    return CspLrModel(
        csp=csp, weights=fit.x[:n_weights].reshape(csp.f, k_classes),
        bias=fit.x[n_weights:], feature_mean=mean, feature_std=std,
    )


def predict_csp_lr(model: CspLrModel, trials: np.ndarray):
    """Return (label, class probabilities) for one (c, t) trial, or
    ((n,) labels, (n, K) probabilities) for an (n, c, t) stack. Each trial
    of a stack gets exactly its single-trial answer.
    """
    filtered = apply_filters(model.csp, trials)
    z = (logvar_features(filtered) - model.feature_mean) / model.feature_std
    # one vector-matrix product per trial, which is what a lone trial gets
    logits = (np.atleast_2d(z)[:, None, :] @ model.weights)[:, 0] + model.bias
    probs = scipy.special.softmax(logits, axis=1)
    labels = np.argmax(probs, axis=1)
    if filtered.ndim == 2:
        return int(labels[0]), probs[0]
    return labels, probs


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


def _numbers(tokens: list[str], what: str, kind=float) -> np.ndarray:
    """Parse tokens as finite numbers of type `kind`, or raise FormatError."""
    try:
        values = np.array([kind(v) for v in tokens], dtype=kind)
    except (ValueError, OverflowError) as exc:
        raise FormatError(f"{what} holds a non-numeric token") from exc
    if not np.isfinite(values).all():
        raise FormatError(f"{what} holds a non-finite value")
    return values


def load_csp(path) -> CSPModel:
    """Read a `save_csp` file; any malformed or non-finite content, or a
    bank no design produces, raises FormatError."""
    text = Path(path).read_text()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty filter file")
    header = lines[0].split()
    if len(header) != 5 or header[0] != "csp" or header[1] != "v1":
        raise FormatError(f"unrecognized filter file header: {lines[0]!r}")
    c, f = (int(v) for v in _numbers(header[2:4], "header", int))
    if not 1 <= f <= c:
        raise FormatError(f"need 1 <= f <= c, got c={c}, f={f}")
    scheme = header[4]
    if scheme not in ("binary", "one-vs-rest"):
        raise FormatError(f"unknown scheme {scheme!r}")
    if scheme == "binary" and f % 2:
        raise FormatError(f"a binary bank needs an even f, got f={f}")
    expected = 2 + f + (1 if scheme == "one-vs-rest" else 0)
    if len(lines) != expected:
        raise FormatError(f"expected {expected} lines, found {len(lines)}")
    eigenvalues = _numbers(lines[1].split(), "eigenvalue line")
    if eigenvalues.size != f:
        raise FormatError(f"expected {f} eigenvalues, found {eigenvalues.size}")
    w = np.empty((c, f))
    for j in range(f):
        col = _numbers(lines[2 + j].split(), f"filter {j}")
        if col.size != c:
            raise FormatError(f"filter {j} has {col.size} entries, expected {c}")
        w[:, j] = col
    blocks = None
    if scheme == "one-vs-rest":
        tail = lines[2 + f].split()
        if tail[0] != "classes" or len(tail) != f + 1:
            raise FormatError("malformed class-target line")
        blocks = [int(v) for v in _numbers(tail[1:], "class-target line", int)]
        k = len(set(blocks))
        if k < 3 or blocks != [j for j in range(k) for _ in range(f // k)]:
            raise FormatError("class targets must be ids 0..K-1 (K >= 3) in "
                              "K equal contiguous blocks")
    return CSPModel(W=w, eigenvalues=eigenvalues, f=f, scheme=scheme,
                    class_blocks=blocks)
