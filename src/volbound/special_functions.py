"""Special functions: normal CDF/PDF and modified Bessel K0, K1.

All entry points accept a float or a numpy array and evaluate elementwise.
The normal functions need only numpy and the standard library. The Bessel
kernels are scipy.special's, imported on first use (bessel_kernels), so a
run on a model without them never imports scipy.
"""

from __future__ import annotations

import functools
import math
from types import SimpleNamespace

import numpy as np

__all__ = [
    "norm_cdf",
    "norm_pdf",
    "bessel_k",
    "bessel_kernels",
]

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_SQRT_HALF = math.sqrt(0.5)


def norm_pdf(x):
    """Standard normal density."""
    x = np.asarray(x, dtype=np.float64)
    out = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
    return float(out) if out.ndim == 0 else out


def norm_cdf(x):
    """Standard normal distribution function.

    0.5*erfc(-x/sqrt(2)) by the standard library's math.erfc, streamed
    element by element into one float64 array: no object array or list is
    built, so an array costs two of its own size at peak. It agrees with
    scipy.special.ndtr to 1e-13 relative on [-37.5, 37.5]. Below x ~ -37.6,
    where ndtr flushes to 0, it keeps the subnormal value; it reaches 0
    below x ~ -38.5.
    """
    arr = np.asarray(x, dtype=np.float64)
    # a nan anywhere makes min and max nan, and every comparison false
    if arr.size and not -math.inf < arr.min() <= arr.max() < math.inf:
        raise ValueError("norm_cdf requires finite input")
    y = arr * -_SQRT_HALF  # a * sqrt(1/2), the argument ndtr forms
    out = np.fromiter(map(math.erfc, y.flat), np.float64, y.size).reshape(arr.shape)
    out *= 0.5
    return float(out) if out.ndim == 0 else out


@functools.cache
def bessel_kernels() -> SimpleNamespace:
    """scipy.special's compiled k0, k1 and i1e (Cephes), imported on the
    first call: the Bessel models call this while they are built, so they
    pay the import before any timed work, and other models never do."""
    from scipy.special import i1e, k0, k1

    return SimpleNamespace(k0=k0, k1=k1, i1e=i1e)


def bessel_k(order: int, x):
    """Modified Bessel function of the second kind, order 0 or 1.

    bessel_kernels' k0 and k1, compiled and elementwise. Positive and
    strictly decreasing on x > 0. Raises DomainError-compatible ValueError
    for x <= 0 or unsupported order.
    """
    if order not in (0, 1):
        raise ValueError(f"bessel_k supports orders 0 and 1, got {order!r}")
    arr = np.asarray(x, dtype=np.float64)
    if arr.size and not 0.0 < arr.min() <= arr.max() < math.inf:
        raise ValueError("bessel_k requires finite x > 0")
    kernels = bessel_kernels()
    out = kernels.k0(arr) if order == 0 else kernels.k1(arr)
    return float(out) if out.ndim == 0 else out
