"""Shared test oracles.

Every oracle here is computed by a route independent of the implementation it
checks (quadrature of integral representations, closed forms, or brute-force
refinement).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad


def bessel_k_oracle(order: int, x: float) -> float:
    """K_order(x) by adaptive quadrature of int_0^inf exp(-x cosh t) cosh(order t) dt.

    The integrand is evaluated in log space so cosh never overflows.
    """

    def f(t):
        if order == 0:
            logcosh = 0.0
        else:
            a = abs(order * t)
            logcosh = a + math.log1p(math.exp(-2.0 * a)) - math.log(2.0)
        e = -x * math.cosh(t) + logcosh
        return math.exp(e) if e > -745.0 else 0.0

    upper = math.acosh(760.0 / x) + 1.0 if x < 760.0 else 1.0
    val, _ = quad(f, 0.0, upper, epsabs=1e-300, epsrel=1e-13, limit=400)
    return val


def norm_cdf_oracle(x: float) -> float:
    """Phi(x) by adaptive quadrature of the density."""
    val, _ = quad(
        lambda u: math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi),
        -60.0,
        x,
        epsabs=1e-15,
        limit=400,
    )
    return val


def lognormal_call_oracle(z: float, k: float, v: float) -> float:
    """E[(Z_T - k)^+] with Z_T = z*exp(-v/2 + sqrt(v) W), W standard normal.

    Quadrature of the payoff against the standard normal density; independent
    of both the closed-form pricer and the package quadrature pricer.
    """
    if v == 0.0:
        return max(z - k, 0.0)
    if k == 0.0:
        return z
    s = math.sqrt(v)
    w_k = (math.log(k / z) + 0.5 * v) / s

    def f(w):
        return (z * math.exp(-0.5 * v + s * w) - k) * math.exp(-0.5 * w * w) / math.sqrt(2.0 * math.pi)

    hi = max(w_k, s) + 40.0
    val, _ = quad(f, w_k, hi, epsabs=1e-16, epsrel=1e-13, limit=400)
    return val


def lognormal_sq_call_oracle(z: float, k: float, v: float) -> float:
    """E[((Z_T - k)^+)^2] under the same lognormal law, by quadrature.

    The lower limit is clipped at -40 standard deviations, below which the
    density is under 1e-347, so a deep in-the-money integrand with small v
    is not spread over a window the quadrature cannot resolve.
    """
    if v == 0.0 or z == 0.0:
        return max(z - k, 0.0) ** 2
    s = math.sqrt(v)
    w_k = -40.0 if k == 0.0 else max((math.log(k / z) + 0.5 * v) / s, -40.0)

    def f(w):
        x = z * math.exp(-0.5 * v + s * w)
        return max(x - k, 0.0) ** 2 * math.exp(-0.5 * w * w) / math.sqrt(2.0 * math.pi)

    hi = max(w_k, 2.0 * s) + 40.0
    val, _ = quad(f, w_k, hi, epsabs=1e-16, epsrel=1e-13, limit=400)
    return val


def lognormal_phi_hat_oracle(z: float, k_m: float, v: float, phi) -> float:
    """E[(phi(Z_T) - phi(k_m)) 1{Z_T > k_m}] under the same lognormal law."""
    if v == 0.0:
        return max(phi(z) - phi(k_m), 0.0) if z > k_m else 0.0
    s = math.sqrt(v)
    w_k = (math.log(k_m / z) + 0.5 * v) / s

    def f(w):
        x = z * math.exp(-0.5 * v + s * w)
        return (phi(x) - phi(k_m)) * math.exp(-0.5 * w * w) / math.sqrt(2.0 * math.pi)

    hi = max(w_k, 2.0 * s) + 40.0
    val, _ = quad(f, w_k, hi, epsabs=1e-16, epsrel=1e-12, limit=400)
    return val


def _besq0_density(z: float, v: float):
    """Density on y > 0 of Z_T = (v/2) Gamma(N), N ~ Poisson(2z/v), summed as
    the Poisson mixture of Gamma densities, in log space; it shares no
    formula with the package's Bessel-function form."""
    from scipy.special import gammaln

    lam = 2.0 * z / v
    scale = 0.5 * v
    spread = 14.0 * math.sqrt(lam) + 30.0
    n = np.arange(max(1, int(lam - spread)), int(lam + spread) + 1, dtype=np.float64)
    log_pois = n * math.log(lam) - lam - gammaln(n + 1.0)

    def density(y):
        log_gamma = (n - 1.0) * math.log(y) - y / scale - gammaln(n) - n * math.log(scale)
        return float(np.exp(log_pois + log_gamma).sum())

    return density


def besq0_phi_hat_oracle(z: float, k_m: float, v: float, phi) -> float:
    """E[(phi(Z_T) - phi(k_m)) 1{Z_T > k_m}] for Z_T = (v/2) Gamma(N), N ~ Poisson(2z/v),
    by adaptive quadrature against the mixture density."""
    density = _besq0_density(z, v)
    phi_k = float(phi(k_m))

    def f(y):
        return (float(phi(y)) - phi_k) * density(y)

    edges = [k_m]
    if z > k_m:
        edges.append(z)
    total = 0.0
    for a, b in zip(edges, edges[1:]):
        total += quad(f, a, b, epsabs=1e-16, epsrel=1e-12, limit=400)[0]
    total += quad(f, edges[-1], math.inf, epsabs=1e-16, epsrel=1e-12, limit=400)[0]
    return total


def logbesq0_phi_hat_oracle(z: float, k_m: float, v: float, phi) -> float:
    """E[(phi(Z_T) - phi(k_m)) 1{Z_T > k_m}] for Z_T = exp(-e^v X), X the
    squared Bessel draw above at state -ln z and variance 2(1 - e^{-v}).

    Z_T > k_m exactly where X < (-ln k_m) e^{-v}; the atom X = 0 (Z_T = 1)
    holds exp(-2(-ln z)/(2(1 - e^{-v}))), the rest is adaptive quadrature in x
    against the mixture density.
    """
    if k_m >= 1.0:
        return 0.0
    y0, w = -math.log(z), -2.0 * math.expm1(-v)
    density = _besq0_density(y0, w)
    phi_k = float(phi(k_m))

    def f(x):
        return (float(phi(math.exp(-math.exp(v) * x))) - phi_k) * density(x)

    x_k = -math.log(k_m) * math.exp(-v)
    edges = [0.0, x_k] if x_k <= y0 else [0.0, y0, x_k]
    total = sum(
        quad(f, a, b, epsabs=1e-16, epsrel=1e-12, limit=400)[0] for a, b in zip(edges, edges[1:])
    )
    return total + (float(phi(1.0)) - phi_k) * math.exp(-y0 / (0.5 * w))
