"""Call-option pricing and implied-volatility inversion.

The lognormal closed form, vectorized (gbm's law prices by it, and the bound's
closed-form tail and band terms build on it), and implied volatility by
inverting a model's law.call.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError, SearchError
from .models import (
    ReferenceModel,
    bisect_increasing,
    simulate,  # not called here: the benchmark's tracer looks up volbound.pricing.simulate
)
from .special_functions import norm_cdf

__all__ = [
    "ImpliedVolResult",
    "implied_vol",
]

#: absolute price residual above which implied_vol reports that its
#: bisection stalled
PRICE_TOL = 1e-10


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
    arrays of the cells' shape are alive at once: a repricing call takes up
    to max(n, q K) cells, the whole table of the exact route's one row or a
    run of cells over n paths (bound._repricing).
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


def implied_vol(
    model: ReferenceModel,
    price: float,
    T: float,
    strike: float,
    z: float,
) -> ImpliedVolResult:
    """Invert the model's forward map, its law's call price, for the
    volatility matching ``price``: the call on strike from z, with T left
    to maturity.

    Brackets the quote, then bisects law.call to the least sigma pricing at
    or above it: the float just below sigma prices under the quote.
    forward_map names the model and the call's route (law.call_route), and
    iterations counts price evaluations. Near degenerate cells
    the price curve is so flat that many sigmas price within an ulp of the
    quote; this one is the least of them.
    """
    if not (math.isfinite(price) and math.isfinite(strike) and strike >= 0.0):
        raise DomainError(f"need finite price and nonnegative strike, got {price}, {strike}")
    if not (math.isfinite(z) and z > 0.0):
        raise DomainError(f"start value must be positive, got {z}")
    if T <= 0.0:
        raise DomainError(f"no volatility is recoverable at zero maturity (T={T})")
    intrinsic = max(z - strike, 0.0)
    if not intrinsic < price < z:
        raise DomainError(
            f"price {price} violates the arbitrage interior ({intrinsic}, {z})"
        )
    if price < sys.float_info.min:
        # below it the call price is not monotone in sigma, so a root is not the quoted vol
        raise DomainError(f"price {price} is below float64's normal range: sigma is unrecoverable")

    if model.law is None:
        raise ConfigurationError(
            f"implied vol needs a transition law; model {model.name!r} has none"
        )
    call = model.law.call
    evals = 0

    def price_fn(sig):
        nonlocal evals
        evals += 1
        return call(z, strike, sig * sig * T)

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
        forward_map=f"{model.name}-{model.law.call_route()['route']}",
    )
