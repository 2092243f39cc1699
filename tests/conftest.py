"""Shared test oracles.

Every oracle here is computed by a route independent of the implementation it
checks (quadrature of integral representations, closed forms, Monte Carlo over
simulated paths, or brute-force refinement). No command runs them, so they
live beside the tests that read them rather than in the package.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

import numpy as np
from scipy.integrate import quad

from volbound.bound import QPolynomial, _g_batch, l_value
from volbound.errors import DomainError
from volbound.models import sample_mean, simulate, step_paths, z_score
from volbound.phi import MartingaleTestReport


def pinned_q_oracle(p, alphas, x0: float) -> QPolynomial:
    """Q for the general free weights p >= 0 on the exponents alphas[2:], its
    double root pinned at x0: the forced linear and constant coefficients
    are the negated slope and value of the weighted terms at x0, each taken
    by QPolynomial's own accumulation. This is build_q's arithmetic with p
    in place of a unit weight; the package itself pins unit weights only."""
    p = tuple(float(x) for x in p)
    x0a = np.asarray(x0, dtype=np.float64)
    qp = QPolynomial(alphas=alphas, coeffs=(0.0, 0.0) + p, x0=float(x0))
    c1 = float(-qp._slope_tail(x0a))
    qp = QPolynomial(alphas=alphas, coeffs=(0.0, c1) + p, x0=float(x0))
    return QPolynomial(alphas=alphas, coeffs=(float(-qp._tail(x0a)), c1) + p, x0=float(x0))


def clipped_phi(phi, b: float, x):
    """(phi(x) - phi(b)) 1_{x > b}: the eigenfunction tail beyond level b,
    pathwise."""
    x = np.asarray(x, dtype=np.float64)
    out = np.where(x > b, np.asarray(phi(x), dtype=np.float64) - float(phi(b)), 0.0)
    return float(out) if out.ndim == 0 else out


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
    of both the closed-form pricer and the package quadrature pricer. The
    lower limit is clipped at -40 standard deviations, as in
    lognormal_sq_call_oracle: a deep in-the-money strike at small v would
    otherwise start it thousands of them below the bulk, which it then
    misses.
    """
    if v == 0.0:
        return max(z - k, 0.0)
    if k == 0.0:
        return z
    s = math.sqrt(v)
    w_k = max((math.log(k / z) + 0.5 * v) / s, -40.0)

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


def besq0_call_oracle(z: float, k: float, v: float) -> float:
    """E[(Z_T - k)^+] on bessel0's law in closed form (Schroder 1989,
    J. Finance 44): 4 Z_T / v given Z_t = z is noncentral chi-square with 0
    degrees of freedom and noncentrality 4z/v, so

        C = z (1 - chndtr(4k/v, 4, 4z/v)) - k chndtr(4z/v, 2, 4k/v).

    chndtr(x, 0, nc) is nan, so the second term takes P(chi'^2_0(lam) > x)
    = P(chi'^2_2(x) <= lam). No quadrature and no Bessel function."""
    from scipy.special import chndtr

    if v == 0.0:
        return max(z - k, 0.0)
    x, lam = 4.0 * k / v, 4.0 * z / v
    return z * (1.0 - chndtr(x, 4.0, lam)) - k * chndtr(lam, 2.0, x)


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


def law_expectation_oracle(name: str, f, s: float, v: float, nodes: int = 400) -> float:
    """E[f(Z_T)] given Z_t = s at variance v under the named builtin model's
    law, by one fixed Gauss-Legendre rule of the given nodes, f vectorized.

    gbm integrates in the normal draw W over +-20. bessel0 integrates in
    r = sqrt(Z_T) against the Poisson-Gamma mixture density (_besq0_density),
    plus f(0) times the atom exp(-2s/v); logdiff the same in the root of its
    squared Bessel draw X, with Z_T = exp(-e^v X) and f(1) times the atom at
    X = 0. In r the law is a bump of sd sqrt(v)/2 about sqrt(s) that vanishes
    at r = 0, so no mass sits at an end of the rule, where its weights are
    least accurate; the rule reaches 24 sd either side."""
    x, w = np.polynomial.legendre.leggauss(nodes)

    def rule(lo, hi):
        half = 0.5 * (hi - lo)
        return 0.5 * (hi + lo) + half * x, half * w

    if name == "gbm":
        u, wu = rule(-20.0, 20.0)
        z = s * np.exp(-0.5 * v + math.sqrt(v) * u)
        return float(np.dot(wu * np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi), f(z)))
    if name == "bessel0":
        y0, w_b, atom, to_z = s, v, 0.0, lambda y: y
    elif name == "logdiff":
        y0, w_b, atom = -math.log(s), -2.0 * math.expm1(-v), 1.0
        to_z = lambda y: np.exp(-math.exp(v) * y)  # noqa: E731
    else:
        raise ValueError(f"no law oracle for {name!r}")
    a, reach = math.sqrt(y0), 12.0 * math.sqrt(w_b)
    r, wr = rule(max(0.0, a - reach), a + reach)
    density = _besq0_density(y0, w_b)
    dens = 2.0 * r * np.array([density(float(y)) for y in r * r])
    off_atom = float(np.dot(wr * dens, f(to_z(r * r))))
    return float(f(np.float64(atom))) * math.exp(-2.0 * y0 / w_b) + off_atom


class McQuote(NamedTuple):
    value: float
    se: float
    steps: int


def mc_call_price(model, sigma: float, t: float, T: float, strike: float, z: float, cfg):
    """(value, se, steps) of the call E[(Z_T - K)^+] from Z_t = z by Monte
    Carlo: the mean payoff over the paths of one simulate run, steps the
    steps each path took. Absorbed paths pay their frozen boundary value."""
    ens = simulate(model, sigma, z, t, [t, T], cfg)
    # sigma = 0 or an unreachable strike pays one value on every path: exact
    value, se = sample_mean(np.maximum(ens.states[:, -1] - strike, 0.0))
    return McQuote(value, se, ens.steps)


def tail_mc_oracle(model, theta: float, s: float, T: float, k_max: float, cfg):
    """(mean, se) of clipped_phi(k_max, Z_T) over the paths of one simulate run
    from Z_0 = s at volatility theta: the tail term G by Monte Carlo."""
    ens = simulate(model, theta, s, 0.0, [0.0, T], cfg)
    return sample_mean(clipped_phi(model.phi, k_max, ens.states[:, -1]))


def band_payoff(phi, strikes, z):
    """The strike-band term on each path: L's integrand with C(K) replaced by
    the payoff (z - K)^+, integrated by parts in K.

    With m = clip(z, K_j, K_j+1) band j gives exactly
    phi(m) - phi(K_j) - (m - K_j) phi'(K_j+1), which convexity keeps <= 0,
    so E[band_payoff(Z_T)] is L. phi must be finite at zero strike.
    """
    ks = np.asarray(strikes.strikes)
    lo, hi = ks[:-1], ks[1:]
    m = np.clip(np.asarray(z, dtype=np.float64)[:, None], lo, hi)
    bands = np.asarray(phi(m), dtype=np.float64) - np.asarray(phi(lo), dtype=np.float64)
    return (bands - (m - lo) * np.asarray(phi.deriv1(hi), dtype=np.float64)).sum(axis=1)


def band_integral_oracle(prices, phi, strikes, splits=()):
    """sum_j int_{K_j}^{K_j+1} (C(K) - C(K_j)) phi''(K) dK by the 64-node
    Gauss-Legendre rule on each band, split further at the points of splits
    that fall inside it; prices maps a 1-d array of strikes to call
    prices."""
    ks = np.asarray(strikes.strikes)
    edges = np.union1d(ks, [b for b in splits if ks[0] < b < ks[-1]])
    # the band each sub-interval lies in, whose left edge its gaps start from
    band = np.searchsorted(ks, edges[:-1], side="right") - 1
    x, w = np.polynomial.legendre.leggauss(64)
    half = 0.5 * np.diff(edges)
    k = (0.5 * (edges[:-1] + edges[1:]))[:, None] + half[:, None] * x
    gaps = prices(k.ravel()).reshape(k.shape) - prices(ks[:-1])[band][:, None]
    return float(half @ ((gaps * np.asarray(phi.deriv2(k))) @ w))


def n_value(t: float, T: float, theta, s, model):
    """Growth factor exp(theta^2 (T - t)) phi(s) per (theta, s) pair, by
    direct arithmetic: the per-path N of the left side, which check_bound
    takes as the point-mass rows of its one left-side formula."""
    if not t <= T:
        raise DomainError(f"need t <= T, got t={t}, T={T}")
    theta = np.asarray(theta, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    if not np.all((s >= model.beta.lower) & (s <= model.beta.upper)):
        raise DomainError("state outside the domain closure")
    out = np.exp(theta * theta * (T - t)) * np.asarray(model.phi(s), dtype=np.float64)
    return float(out) if out.ndim == 0 else out


def decomposition_check(model, theta: float, s: float, t: float, T: float, strikes) -> dict:
    """Termwise consistency of the price-space decomposition, all routes split.

    Under the lognormal law the conditional-expectation side H (strike bands
    of quadrature call prices by band_integral_oracle, split at the spot and
    10 standard deviations either side, plus the tail by quadrature) must
    reproduce L + G + (M - N): L, G and N from the package's closed forms,
    M by quadrature of phi against the law. A constant phi'' and the
    eigenfunction ODE under beta(z) = z leave phi = (phi''/2) z^2, so M is
    phi''/2 times the second moment at zero strike. Every term travels a different
    numerical route, so the defect measures real disagreement, not shared
    bugs.
    """
    # first: l_value refuses T < t and a model without the closed forms
    l_term = l_value(t, T, theta, s, strikes, model)
    g_term = float(_g_batch(model, np.array([theta]), np.array([s]), t, T, strikes.k_max)[0])
    n_term = float(n_value(t, T, theta, s, model))
    v = theta * theta * (T - t)

    def q_prices(ks):
        return np.array([lognormal_call_oracle(s, k, v) for k in ks.tolist()])

    # C(K) bends sharply only within ~sqrt(v) s of the spot (a kink at s once
    # v = 0), which no fixed rule over a whole band resolves: split there
    reach = math.exp(10.0 * math.sqrt(v))
    h_strike = band_integral_oracle(q_prices, model.phi, strikes, (s / reach, s, s * reach))
    h_term = h_strike + lognormal_phi_hat_oracle(s, strikes.k_max, v, model.phi)
    m_term = 0.5 * model.phi.curvature * lognormal_sq_call_oracle(s, 0.0, v)
    defect = (h_term - l_term - g_term) - (m_term - n_term)
    return {"h": h_term, "l": l_term, "g": g_term, "m": m_term, "n": n_term, "defect": defect}


def stochastic_integral_samples(model, g, sigma, times, cfg, g_left_deriv=None,
                                integration_points=65):
    """(ensemble, samples): int_0^t g'_-(Z_s) dZ_s on every path at each of
    times, by the left-point rule on the test times and integration_points
    equally spaced points, which makes the sum an exact martingale transform
    of the simulated increments.

    Without an explicit left derivative a backward difference stands in; for
    a piecewise-linear g it is exact away from the kink. The sums grow block
    by block as step_paths draws each column, so memory is a few path
    vectors per test time whatever integration_points is.
    """
    times = [float(x) for x in times]
    grid = np.union1d(times, np.linspace(0.0, times[-1], integration_points))
    if g_left_deriv is None:
        def g_left_deriv(z):
            step = 1e-7 * np.maximum(1.0, np.abs(z))
            return (np.asarray(g(z)) - np.asarray(g(z - step))) / step

    wanted = {int(np.searchsorted(grid, t)): np.empty(cfg.n_paths) for t in times}
    z_lo = np.empty(cfg.n_paths)
    slope_lo = np.empty(cfg.n_paths)
    # -0.0, not 0.0, is the identity of float addition, so the running sums
    # equal np.cumsum's bit for bit
    cum = np.full(cfg.n_paths, -0.0)

    def visit(rows, c, z, absorbed_at):
        if c > 0:
            cum[rows] += slope_lo[rows] * (z - z_lo[rows])
        z_lo[rows] = z
        slope_lo[rows] = np.asarray(g_left_deriv(z), dtype=np.float64)
        if c in wanted:
            # the sum over no increments is +0.0, not cum's starting -0.0
            wanted[c][rows] = cum[rows] if c > 0 else 0.0

    ens = step_paths(model, sigma, model.z0, 0.0, grid, cfg, visit=visit)
    return ens, list(wanted.values())


def martingale_check_integral(model, g, sigma, times, cfg, g_left_deriv=None,
                              integration_points=65) -> MartingaleTestReport:
    """Test E[int_0^t g'_-(Z_s) dZ_s] = 0 for a convex integrand g: the
    verdict asks |z| <= 3 at every test time."""
    _, samples = stochastic_integral_samples(
        model, g, sigma, times, cfg, g_left_deriv, integration_points
    )
    means, ses = zip(*(sample_mean(x) for x in samples))
    zs = tuple(z_score(m, se) for m, se in zip(means, ses))
    return MartingaleTestReport(
        times=tuple(times),
        means=means,
        ses=ses,
        references=(0.0,) * len(zs),
        z_scores=zs,
        verdict=all(abs(z) <= 3.0 for z in zs),
    )


def strip_timing(report: dict) -> dict:
    return {k: v for k, v in report.items() if k != "timing"}


def canonical_json(report: dict) -> str:
    """A report's body, without its timing block, as the CLI serializes it:
    the byte-stable form two runs are compared in."""
    return json.dumps(strip_timing(report), sort_keys=True, indent=2) + "\n"
