"""Paired significance testing with multiple-comparison adjustment.

The t CDF is evaluated through the regularized incomplete beta function,
computed with a Lentz-style continued fraction. Self-contained on purpose:
the test suite checks it against an independent implementation.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError

_BETACF_MAX_ITERS = 300
_BETACF_EPS = 1e-15
_TINY = 1e-300


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta integral at x."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _BETACF_MAX_ITERS + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETACF_EPS:
            return h
    return h


def betainc_regularized(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b), absolute error below 1e-10."""
    if not 0.0 <= x <= 1.0:
        raise ParameterError(f"x must be in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return x
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log(1.0 - x)
    )
    front = math.exp(ln_front)
    # the continued fraction converges fast only on its own side of the mean
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


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
        return 1.0 - betainc_regularized(0.5, df / 2.0, x_near)
    return betainc_regularized(df / 2.0, 0.5, df / (df + t2))


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
