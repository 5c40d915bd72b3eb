"""Paired significance testing with multiple-comparison adjustment.

The t tail is taken from scipy's regularized incomplete beta function;
the test suite checks it against 50-digit mpmath.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import betainc

from .errors import ParameterError


def student_t_sf_two_sided(t: float, df: int) -> float:
    """P(|T| >= |t|) for Student's t with df degrees of freedom."""
    if df < 1:
        raise ParameterError(f"degrees of freedom must be >= 1, got {df}")
    if math.isinf(t):
        return 0.0
    t2 = t * t
    x_near = t2 / (df + t2)
    # Near t = 0, df / (df + t^2) rounds toward 1 and the tail form loses its
    # digits; there 1 - I_{t^2/(df+t^2)}(1/2, df/2) keeps them. Only there:
    # applied to small tails, the complement would cancel them to 0.
    if x_near < 1.5 / (df / 2.0 + 2.5):
        return 1.0 - float(betainc(0.5, df / 2.0, x_near))
    return float(betainc(df / 2.0, 0.5, df / (df + t2)))


def paired_ttest(a, b) -> tuple[float, float]:
    """Two-sided paired t-test; returns (t statistic, p-value).

    All-zero differences give (0, 1); identical nonzero differences give
    an infinite statistic with p = 0.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ParameterError("paired samples must be equal-length vectors")
    n = a.size
    if n < 2:
        raise ParameterError("need at least 2 pairs")
    d = a - b
    mean = float(d.mean())
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        if mean == 0.0:
            return 0.0, 1.0
        return math.copysign(math.inf, mean), 0.0
    t = mean / (sd / math.sqrt(n))
    return t, student_t_sf_two_sided(t, n - 1)


def bh_adjust(pvals) -> np.ndarray:
    """Benjamini-Hochberg step-up adjustment, original order preserved."""
    p = np.asarray(pvals, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ParameterError("need a non-empty vector of p-values")
    if np.any((p < 0) | (p > 1)) or not np.all(np.isfinite(p)):
        raise ParameterError("p-values must lie in [0, 1]")
    m = p.size
    order = np.argsort(p, kind="stable")
    ranked = p[order] * m / np.arange(1, m + 1)
    # running minimum from the largest rank down enforces monotonicity
    adjusted_sorted = np.minimum.accumulate(ranked[::-1])[::-1]
    adjusted_sorted = np.minimum(adjusted_sorted, 1.0)
    out = np.empty(m)
    out[order] = adjusted_sorted
    return out
