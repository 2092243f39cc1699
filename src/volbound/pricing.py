"""Call-option pricing and implied-volatility inversion.

Three pricing routes with different noise profiles: the lognormal closed
form (exact, gbm only), deterministic quadrature against the lognormal
transition density (noise-free, gbm only), and Monte Carlo over simulated
paths (any reference model, carries a standard error). Implied volatility
inverts the closed form and records it as its forward map.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError, SearchError
from .models import (
    LognormalLaw,
    ReferenceModel,
    SimConfig,
    bisect_increasing,
    sample_mean,
    simulate,
)
from .special_functions import norm_cdf, norm_pdf

__all__ = [
    "PriceQuote",
    "ImpliedVolResult",
    "bs_call_price",
    "mc_call_price",
    "quad_call_price",
    "implied_vol",
]

#: reach, in standard-normal units past the bulk, of the adaptive lognormal
#: quadrature (_lognormal_quad)
QUAD_REACH = 16.0

#: absolute price residual above which implied_vol reports that its
#: bisection stalled
PRICE_TOL = 1e-10


@dataclass(frozen=True)
class PriceQuote:
    """A call price with its sampling error (zero when deterministic).

    Only finiteness and a nonnegative error are enforced here. steps is the
    number of steps each simulated path took (0 when nothing was simulated).
    """

    value: float
    se: float
    n_paths: int
    steps: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.value) and self.se >= 0.0):
            raise DomainError(
                f"quote must be finite with se >= 0, got value={self.value} se={self.se}"
            )


@dataclass(frozen=True)
class ImpliedVolResult:
    sigma: float
    iterations: int
    bracket: tuple[float, float]
    residual: float
    forward_map: str

    def __post_init__(self):
        lo, hi = self.bracket
        if not lo < self.sigma < hi:
            raise DomainError(
                f"implied vol {self.sigma} escaped its bracket [{lo}, {hi}]"
            )


def _lognormal_cells(z, strike, variance):
    """(scalar, z, strike, variance, cells): the inputs as float arrays of one
    broadcast shape, whether all three were scalars, and an index of the
    cells with a positive strike, variance and start, where the closed forms
    apply: None when there are none, the whole array when all are (taken as
    a view, not copied)."""
    scalar = np.ndim(z) == 0 and np.ndim(strike) == 0 and np.ndim(variance) == 0
    z, strike, variance = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(a, dtype=np.float64)) for a in (z, strike, variance))
    )
    live = (strike > 0.0) & (variance > 0.0) & (z > 0.0)
    cells = slice(None) if live.all() else live if live.any() else None
    return scalar, z, strike, variance, cells


def _d1(z, strike, variance):
    """(sqrt v, d1) on live cells, d1 = (log(z / K) + v / 2) / sqrt v built
    in place."""
    s = np.sqrt(variance)
    d1 = np.divide(z, strike)
    np.log(d1, out=d1)
    d1 += variance / 2.0
    d1 /= s
    return s, d1


def _clamp_call(vals, z, strike):
    """vals, lognormal call values on live cells, clamped in place to the
    no-arbitrage range [max(z - K, 0), z], which the formula's rounding can
    leave by an ulp."""
    floor = np.subtract(z, strike)
    np.maximum(floor, 0.0, out=floor)
    np.maximum(vals, floor, out=vals)
    return np.minimum(vals, z, out=vals)


def _live_calls(z, strike, variance):
    """The lognormal call z N(d1) - K N(d1 - sqrt v) on live cells, clamped.

    Built in place, freeing each piece once used, so that at most three
    arrays of the cells' shape are alive at once: the repricing table
    prices every path of an ensemble in one call.
    """
    s, d1 = _d1(z, strike, variance)
    n1 = norm_cdf(d1)
    d1 -= s
    del s
    n2 = norm_cdf(d1)
    del d1
    n1 *= z
    n2 *= strike
    n1 -= n2
    del n2
    return _clamp_call(n1, z, strike)


def _bs_call_core(z, strike, variance):
    """Lognormal call value, vectorized; degenerate cells fall back to intrinsic.

    ``variance`` is the total log variance accumulated between evaluation
    and expiry. Cells with zero variance, zero strike, or an absorbed
    (zero) start take their exact limit values; the others are clamped to
    the no-arbitrage range [max(z - K, 0), z].
    """
    scalar, z, strike, variance, cells = _lognormal_cells(z, strike, variance)
    if isinstance(cells, slice):
        out = _live_calls(z, strike, variance)
    else:
        out = np.maximum(z - strike, 0.0)
        if cells is not None:
            out[cells] = _live_calls(z[cells], strike[cells], variance[cells])
    return float(out[0]) if scalar else out


def _bs_call_moments(z, strike, variance):
    """(C, S2): the lognormal call value, as _bs_call_core gives it, and the
    second moment S2(K) = E[((Z_T - K)^+)^2] of its payoff, vectorized, from
    one evaluation of d1, N(d1) and N(d1 - sqrt v).

    S2's strike derivative is -2 C(K), so it integrates call prices over
    strikes in closed form. Cells with zero variance or an absorbed start
    take the squared intrinsic value, zero strikes E[Z_T^2] = z^2 e^v; the
    others are clamped to [max(z - K, 0)^2, z^2 e^v], the Jensen floor and
    the zero-strike value.
    """
    scalar, z, strike, variance, cells = _lognormal_cells(z, strike, variance)
    call = np.maximum(z - strike, 0.0)
    floor = np.square(call)
    second = floor.copy()
    top = strike == 0.0
    second[top] = np.square(z[top]) * np.exp(variance[top])
    if cells is not None:
        z_l, k_l, v_l = z[cells], strike[cells], variance[cells]
        s, d1 = _d1(z_l, k_l, v_l)
        n1, n2 = norm_cdf(d1), norm_cdf(d1 - s)
        call[cells] = _clamp_call(z_l * n1 - k_l * n2, z_l, k_l)
        z2 = np.square(z_l) * np.exp(v_l)
        vals = z2 * norm_cdf(d1 + s) - 2.0 * k_l * z_l * n1
        vals = vals + k_l * k_l * n2
        second[cells] = np.minimum(np.maximum(vals, floor[cells]), z2)
    if scalar:
        return float(call[0]), float(second[0])
    return call, second


def _validate_quote_args(t, T, strike, sigma, z):
    if not (math.isfinite(t) and math.isfinite(T) and T >= t):
        raise DomainError(f"need finite T >= t, got t={t} T={T}")
    if not (math.isfinite(strike) and strike >= 0.0):
        raise DomainError(f"strike must be nonnegative, got {strike}")
    if not (math.isfinite(z) and z >= 0.0):
        raise DomainError(f"start value must be nonnegative, got {z}")
    if not (math.isfinite(sigma) and sigma >= 0.0):
        raise DomainError(f"sigma must be nonnegative, got {sigma}")


def bs_call_price(t: float, T: float, strike: float, sigma: float, z: float) -> PriceQuote:
    """Closed-form lognormal call price at variance sigma^2 (T - t).

    The zero-strike and zero-variance cases return their limits (the
    start value and the intrinsic value) rather than evaluating the
    formula, whose log-moneyness term is undefined there.
    """
    _validate_quote_args(t, T, strike, sigma, z)
    value = _bs_call_core(z, strike, sigma * sigma * (T - t))
    return PriceQuote(value=float(value), se=0.0, n_paths=0)


def mc_call_price(
    model: ReferenceModel,
    sigma: float,
    t: float,
    T: float,
    strike: float,
    z: float,
    cfg: SimConfig,
) -> PriceQuote:
    """Monte-Carlo call price; absorbed paths pay their frozen boundary value."""
    _validate_quote_args(t, T, strike, sigma, z)
    if T == t:
        return PriceQuote(value=max(z - strike, 0.0), se=0.0, n_paths=0)
    ens = simulate(model, sigma, z, t, [t, T], cfg)
    # sigma = 0 or an unreachable strike pays one value on every path: exact
    value, se = sample_mean(np.maximum(ens.states[:, -1] - strike, 0.0))
    return PriceQuote(value=value, se=se, n_paths=ens.n_paths, steps=ens.steps)


def _lognormal_quad(f, s: float, v: float, w_lo: float) -> float:
    """int f(x) n(w) dw with x = s exp(-v/2 + sqrt(v) w) under the lognormal
    law, by adaptive quadrature from max(w_lo, -QUAD_REACH) (n is below 1e-55
    there, and a start far below the bulk lets the first nodes miss it) to
    QUAD_REACH past max(w_lo, 2 sqrt(v)): the package's one adaptive integral,
    behind quad_call_price, which `price` reports next to the closed form."""
    from scipy.integrate import quad

    sqv = math.sqrt(v)

    def integrand(w):
        return f(s * math.exp(-v / 2.0 + sqv * w)) * norm_pdf(w)

    w_lo = max(w_lo, -QUAD_REACH)
    w_hi = max(w_lo, 2.0 * sqv) + QUAD_REACH
    return quad(integrand, w_lo, w_hi, epsabs=1e-13, epsrel=1e-12, limit=300)[0]


def quad_call_price(
    model: ReferenceModel,
    sigma: float,
    t: float,
    T: float,
    strike: float,
    z: float,
) -> PriceQuote:
    """Deterministic quadrature of the payoff against the transition density.

    Only models with a lognormal law are supported (gbm), where log Z_T is
    normal with variance sigma^2 (T - t); _lognormal_quad integrates the
    payoff from the strike.
    """
    if not isinstance(model.law, LognormalLaw):
        raise ConfigurationError(
            f"quadrature pricing needs a lognormal transition law; "
            f"model {model.name!r} has none"
        )
    _validate_quote_args(t, T, strike, sigma, z)
    v = sigma * sigma * (T - t)
    if v == 0.0 or z == 0.0:
        return PriceQuote(value=max(z - strike, 0.0), se=0.0, n_paths=0)
    w_lo = -QUAD_REACH if strike == 0.0 else (math.log(strike / z) + v / 2.0) / math.sqrt(v)
    value = max(_lognormal_quad(lambda x: max(x - strike, 0.0), z, v, w_lo), 0.0)
    return PriceQuote(value=value, se=0.0, n_paths=0)


def implied_vol(
    model: ReferenceModel,
    price: float,
    t: float,
    T: float,
    strike: float,
    z: float,
) -> ImpliedVolResult:
    """Invert the model's forward map for the volatility matching ``price``.

    Brackets the quote, then bisects the closed-form price to the least
    sigma pricing at or above it: the float just below sigma prices under
    the quote. iterations counts price evaluations. Near degenerate cells
    the price curve is so flat that many sigmas price within an ulp of the
    quote; this one is the least of them.
    """
    if not (math.isfinite(price) and math.isfinite(strike) and strike >= 0.0):
        raise DomainError(f"need finite price and nonnegative strike, got {price}, {strike}")
    if not (math.isfinite(z) and z > 0.0):
        raise DomainError(f"start value must be positive, got {z}")
    if T <= t:
        raise DomainError(f"no volatility is recoverable at zero maturity (t={t}, T={T})")
    intrinsic = max(z - strike, 0.0)
    if not intrinsic < price < z:
        raise DomainError(
            f"price {price} violates the arbitrage interior ({intrinsic}, {z})"
        )
    if price < sys.float_info.min:
        # below it the call price is not monotone in sigma, so a root is not the quoted vol
        raise DomainError(f"price {price} is below float64's normal range: sigma is unrecoverable")

    if not isinstance(model.law, LognormalLaw):
        raise ConfigurationError(
            f"implied vol needs a closed-form price map; model {model.name!r} has none"
        )
    evals = 0

    def price_fn(sig):
        nonlocal evals
        evals += 1
        return _bs_call_core(z, strike, sig * sig * (T - t))

    lo, hi = 1e-4, 5.0
    while price_fn(lo) >= price:
        lo /= 4.0
        if lo < 1e-12:
            raise SearchError(f"no bracket: price {price} below the sigma->0 limit")
    while price_fn(hi) < price:
        hi *= 2.0
        if hi > 1024.0:
            raise SearchError(f"no bracket: price {price} above the large-sigma limit")

    sig = float(bisect_increasing(price_fn, [price], lo, hi)[0])
    residual = abs(price_fn(sig) - price)
    if residual > PRICE_TOL:
        raise SearchError(
            f"implied-vol iteration stalled: residual {residual:.3e} above tol {PRICE_TOL:.3e}"
        )
    return ImpliedVolResult(
        sigma=sig,
        iterations=evals,
        # a root on the search's upper end still sits inside the reported bracket
        bracket=(lo, hi if sig < hi else 2.0 * hi),
        residual=float(residual),
        forward_map="gbm-closed-form",
    )
