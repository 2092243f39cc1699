"""Self-contained special functions: normal CDF/PDF and modified Bessel K0, K1.

The K functions switch between an ascending series, a continued fraction and
the large-argument expansion. Crossover points are module constants; the test
suite checks values straddling each crossover against a quadrature oracle of
the integral representation.

All entry points accept a float or a numpy array and evaluate elementwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

__all__ = [
    "AccuracySpec",
    "DEFAULT_ACCURACY",
    "norm_cdf",
    "norm_pdf",
    "bessel_k",
    "SERIES_MAX",
    "ASYMPTOTIC_MIN",
]

_EULER_GAMMA = 0.5772156649015328606
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Regime boundaries for bessel_k. Below SERIES_MAX the ascending series is
# accurate to ~e^(2x)*eps (cancellation), above ASYMPTOTIC_MIN the divergent
# expansion reaches ~e^(-2x) at optimal truncation; the continued fraction
# covers the gap.
SERIES_MAX = 2.0
ASYMPTOTIC_MIN = 16.0

# Term counts frozen so that results do not depend on how inputs are batched.
# 48 series terms: the term (x^2/4)^k / (k!)^2 is < 1e-90 at k=48 for x <= 2.
# The continued fraction needs its most iterations at x = SERIES_MAX; 64 is
# roughly twice the count observed there.
_SERIES_TERMS = 48
_CF_ITERATIONS = 64
_ASYMPTOTIC_TERMS = 40


@dataclass(frozen=True)
class AccuracySpec:
    """Requested accuracy for special-function evaluation."""

    rel_tol: float = 1e-14

    def __post_init__(self) -> None:
        if not self.rel_tol > 0.0:
            raise ValueError("AccuracySpec rel_tol must be positive")


DEFAULT_ACCURACY = AccuracySpec()


def norm_pdf(x):
    """Standard normal density."""
    x = np.asarray(x, dtype=np.float64)
    out = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
    return float(out) if out.ndim == 0 else out


def norm_cdf(x):
    """Standard normal distribution function.

    scipy.special.ndtr, compiled and elementwise; it agrees with
    0.5*erfc(-x/sqrt(2)) to 3e-14 relative on [-30, 30], far better than
    1e-12 absolute. It flushes to 0 below x ~ -37.6, where the exact value
    is subnormal and math.erfc still resolves it.
    """
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("norm_cdf requires finite input")
    out = ndtr(arr)
    return float(out) if out.ndim == 0 else out


def bessel_k(order: int, x, acc: AccuracySpec = DEFAULT_ACCURACY):
    """Modified Bessel function of the second kind, order 0 or 1.

    Positive and strictly decreasing on x > 0. Raises DomainError-compatible
    ValueError for x <= 0 or unsupported order.
    """
    if order not in (0, 1):
        raise ValueError(f"bessel_k supports orders 0 and 1, got {order!r}")
    arr = np.asarray(x, dtype=np.float64)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ValueError("bessel_k requires finite x > 0")

    out = np.empty_like(arr)
    lo = arr <= SERIES_MAX
    hi = arr >= ASYMPTOTIC_MIN
    mid = ~lo & ~hi
    if np.any(lo):
        out[lo] = _k_series(order, arr[lo])
    if np.any(mid):
        k0, k1 = _k_steed(arr[mid])
        out[mid] = k0 if order == 0 else k1
    if np.any(hi):
        out[hi] = _k_asymptotic(order, arr[hi], acc.rel_tol)
    return float(out[0]) if scalar else out


# ===== kernels =====


def _k_series(order: int, x: np.ndarray) -> np.ndarray:
    # Ascending series about 0 (DLMF 10.31.2 specialized to integer order).
    q = 0.25 * x * x
    lg = np.log(0.5 * x)
    if order == 0:
        # K0 = -(log(x/2)+gamma) I0 + sum_{k>=1} H_k q^k/(k!)^2
        i_term = np.ones_like(x)
        i_sum = np.ones_like(x)
        s_sum = np.zeros_like(x)
        h = 0.0
        for k in range(1, _SERIES_TERMS + 1):
            i_term = i_term * q / (k * k)
            h += 1.0 / k
            i_sum = i_sum + i_term
            s_sum = s_sum + i_term * h
        return -(lg + _EULER_GAMMA) * i_sum + s_sum
    # K1 = 1/x + log(x/2) I1 - (x/4) sum_{k>=0} (H_k + H_{k+1} - 2 gamma) q^k/(k!(k+1)!)
    i_term = np.ones_like(x)
    i_sum = np.ones_like(x)
    s_sum = np.full_like(x, 1.0 - 2.0 * _EULER_GAMMA)
    h0 = 0.0
    h1 = 1.0
    for k in range(1, _SERIES_TERMS + 1):
        i_term = i_term * q / (k * (k + 1))
        h0 += 1.0 / k
        h1 += 1.0 / (k + 1)
        i_sum = i_sum + i_term
        s_sum = s_sum + i_term * (h0 + h1 - 2.0 * _EULER_GAMMA)
    i1 = 0.5 * x * i_sum
    return 1.0 / x + lg * i1 - 0.25 * x * s_sum


def _k_steed(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Steed/Thompson-Barnett continued fraction for K_mu, K_{mu+1} at mu = 0.
    # Solid for x >= 2; iteration count frozen for batch-order independence.
    b = 2.0 * (1.0 + x)
    d = 1.0 / b
    delh = d.copy()
    h = d.copy()
    q1 = np.zeros_like(x)
    q2 = np.ones_like(x)
    a1 = 0.25
    q = np.full_like(x, a1)
    c = np.full_like(x, a1)
    a = -a1
    s = 1.0 + q * delh
    for i in range(2, _CF_ITERATIONS + 2):
        a -= 2.0 * (i - 1)
        c = -a * c / i
        qnew = (q1 - b * q2) / a
        q1, q2 = q2, qnew
        q = q + c * qnew
        b = b + 2.0
        d = 1.0 / (b + a * d)
        delh = (b * d - 1.0) * delh
        h = h + delh
        s = s + q * delh
    h = a1 * h
    k0 = np.sqrt(np.pi / (2.0 * x)) * np.exp(-x) / s
    k1 = k0 * (x + 0.5 - h) / x
    return k0, k1


def _k_asymptotic(order: int, x: np.ndarray, rel_tol: float) -> np.ndarray:
    # Large-argument expansion; divergent, so each lane stops at its smallest
    # term (or once rel_tol is met). Error ~ e^(-2x), < 1e-13 for x >= 16.
    mu = 4.0 * order * order
    term = np.ones_like(x)
    total = np.ones_like(x)
    active = np.ones(x.shape, dtype=bool)
    for k in range(1, _ASYMPTOTIC_TERMS + 1):
        step = (mu - (2.0 * k - 1.0) ** 2) / (8.0 * k * x)
        nxt = term * step
        # stop before the series turns: |next| must keep shrinking
        active &= np.abs(nxt) < np.abs(term)
        total = np.where(active, total + nxt, total)
        term = np.where(active, nxt, term)
        active &= np.abs(term) >= rel_tol * np.abs(total)
        if not active.any():
            break
    return np.sqrt(np.pi / (2.0 * x)) * np.exp(-x) * total
