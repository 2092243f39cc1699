"""The finite-strike universal bound and its diagnostics.

Everything here is built from one structural fact about the reference
family: option prices written on it depend on (t, vol, state) only, so a
candidate market (S_t, theta_t) that reprices calls like the reference at
finitely many strikes and maturities is constrained. The constraint is a
two-sided bound on a weighted combination of exponential-moment terms; it
is evaluated here exactly from the reference law where theta does not move,
and over simulated scenario paths where it does, together with the
strike-grid densification diagnostics that make the bound collapse to a
constant-volatility statement in the limit.

Naming used throughout, with x for the state and b for a strike level:

* growth factor N  = exp(theta^2 (T - t)) phi(s).
* moment ratio  X  = exp(theta^2 (T2 - T1)).
* tail term     G  = E[(phi(Z_T) - phi(K_m)) 1_{Z_T > K_m} | Z_t = s] at vol
  theta, the eigenfunction's convex tail beyond K_m (the law's tail).
* strike-band   L  = sum_j int_{K_j}^{K_{j+1}} (C(K) - C(K_j)) phi''(K) dK.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ConfigurationError,
    DivergenceError,
    DomainError,
)
from .models import (
    GENERATORS,
    PathEnsemble,
    PhiFunction,
    ReferenceModel,
    SimConfig,
    ThetaProcess,
    bisect_increasing,
    sample_mean,
    simulate,  # not called here: the benchmark's tracer looks up volbound.bound.simulate
    step_paths,
    z_score,
)
from .phi import phi_mean, semigroup_route
from .pricing import _bs_call_moments
from .pricing import _bs_call_core  # not called here: the benchmark's tracer looks up volbound.bound._bs_call_core

__all__ = [
    "MaturityGrid",
    "StrikeGrid",
    "QPolynomial",
    "Scenario",
    "BoundReport",
    "ResidualTable",
    "DensificationStep",
    "DensificationReport",
    "compute_alphas",
    "build_q",
    "joint_simulate",
    "tail_route",
    "l_value",
    "rhs_bound",
    "check_bound",
    "pricing_residuals",
    "densify_grid",
    "densification_study",
    "self_consistent_scenario",
    "step_vol_scenario",
    "meanrev_vol_scenario",
]


#: in-the-money paths a repricing cell needs before its z-score is gated on
MIN_TAIL_COUNT = 25

#: paths, spread over the ensemble, on which check_bound samples L at time t
L_SAMPLE_PATHS = 256


def _band_sample(n: int) -> np.ndarray:
    """Indices of the L_SAMPLE_PATHS paths out of n (all n if fewer) that
    check_bound samples L on: evenly spread, and strictly increasing, since
    the spacing (n - 1)/(m - 1) of m <= n points is at least 1."""
    return np.linspace(0, n - 1, min(n, L_SAMPLE_PATHS)).astype(int)


# ===== grids and the convex power polynomial =====


@dataclass(frozen=True)
class MaturityGrid:
    times: tuple

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        object.__setattr__(self, "times", times)
        if len(times) < 3:
            raise DomainError(f"need at least 3 maturities, got {len(times)}")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise DomainError(f"maturities must be strictly increasing: {times}")

    @property
    def q(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class StrikeGrid:
    strikes: tuple

    def __post_init__(self):
        strikes = tuple(float(k) for k in self.strikes)
        object.__setattr__(self, "strikes", strikes)
        if len(strikes) < 2:
            raise DomainError("need at least two strikes")
        if strikes[0] != 0.0:
            raise DomainError(f"first strike must be exactly 0, got {strikes[0]}")
        if any(b <= a for a, b in zip(strikes, strikes[1:])):
            raise DomainError(f"strikes must be strictly increasing: {strikes}")

    @property
    def k_max(self) -> float:
        return self.strikes[-1]


@dataclass(frozen=True)
class QPolynomial:
    """sum_k c_k x^{a_k} with a double root pinned at x0.

    The first two coefficients are chosen so the function and its slope
    vanish at x0; with nonnegative free weights on exponents > 1 the
    result is nonnegative and convex on (0, inf) with its minimum at x0.

    Evaluation order matters: value() accumulates the k >= 2 terms first
    and adds the constant last, mirroring exactly how that constant was
    built, so value(x0) is 0.0 in floating point, not merely small. The
    same holds for deriv1(x0).
    """

    alphas: tuple
    coeffs: tuple
    x0: float

    def __post_init__(self):
        alphas = tuple(float(a) for a in self.alphas)
        coeffs = tuple(float(c) for c in self.coeffs)
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "coeffs", coeffs)
        if len(alphas) != len(coeffs) or len(alphas) < 3:
            raise DomainError("need matching exponents and coefficients, at least 3")
        if alphas[0] != 0.0 or alphas[1] != 1.0:
            raise DomainError(f"exponents must start (0, 1, ...), got {alphas[:2]}")
        if any(b <= a for a, b in zip(alphas, alphas[1:])):
            raise DomainError(f"exponents must be strictly increasing: {alphas}")
        if not (self.x0 > 0.0 and math.isfinite(self.x0)):
            raise DomainError(f"pin point must be positive and finite, got {self.x0}")
        if not all(math.isfinite(c) for c in coeffs):
            raise DomainError("coefficients are not finite; maturities or volatility too extreme")

    def _tail(self, x):
        """p2*x plus the free terms, accumulated in fixed order."""
        acc = self.coeffs[1] * x
        for a, c in zip(self.alphas[2:], self.coeffs[2:]):
            acc = acc + c * x**a
        return acc

    def value(self, x):
        x = np.asarray(x, dtype=np.float64)
        out = self._tail(x) + self.coeffs[0]
        return float(out) if out.ndim == 0 else out

    def _slope_tail(self, x):
        acc = np.zeros_like(np.asarray(x, dtype=np.float64))
        for a, c in zip(self.alphas[2:], self.coeffs[2:]):
            acc = acc + c * a * x ** (a - 1.0)
        return acc

    def deriv1(self, x):
        x = np.asarray(x, dtype=np.float64)
        out = self._slope_tail(x) + self.coeffs[1]
        return float(out) if out.ndim == 0 else out

    def deriv2(self, x):
        x = np.asarray(x, dtype=np.float64)
        acc = np.zeros_like(x)
        for a, c in zip(self.alphas[2:], self.coeffs[2:]):
            acc = acc + c * a * (a - 1.0) * x ** (a - 2.0)
        return float(acc) if acc.ndim == 0 else acc


def compute_alphas(mats: MaturityGrid) -> tuple:
    """Maturity exponents: time from T1, normalized by the first gap."""
    times = mats.times
    return tuple((tk - times[0]) / (times[1] - times[0]) for tk in times)


def pin_point(sigma: float, i_12: float) -> float:
    """The pinned abscissa exp(sigma^2 i_12), i_12 = T2 - T1 the first gap.

    Everything that must cancel exactly at the pin (the forced polynomial
    coefficients, the self-consistent gap term, report audit values) goes
    through this one expression so the float is bit-identical everywhere.
    """
    s = np.float64(sigma)
    return float(np.exp(s * s * np.float64(i_12)))


def build_q(alphas, x0: float, j: int) -> QPolynomial:
    """Q_j: the unit weight on the exponent alphas[j] (j >= 2, one free
    maturity), with the double root pinned at x0 by the forced linear and
    constant coefficients.

    The two leading coefficients are the negated slope and value of the
    other terms at x0, taken by the evaluators' own accumulations
    (QPolynomial._slope_tail, _tail), so they cancel exactly in floats; the
    closing numerical check is then conservative. They come out c0 >= 0 and
    c1 <= 0, so both sides of the bound are linear in the free weights, and
    the Q_j span every weight vector.
    """
    alphas = tuple(float(a) for a in alphas)
    if len(alphas) < 3 or not 2 <= j < len(alphas):
        raise DomainError(f"no free exponent {j} among {len(alphas)} (need 2 <= j < q)")
    free = tuple(1.0 if k == j else 0.0 for k in range(2, len(alphas)))
    # a 0-d array, as the evaluators see x0 (numpy scalar pow can differ
    # from 0-d array pow in the last bit)
    x0a = np.asarray(x0, dtype=np.float64)
    qp = QPolynomial(alphas=alphas, coeffs=(0.0, 0.0) + free, x0=float(x0))
    p2 = float(-qp._slope_tail(x0a))
    qp = replace(qp, coeffs=(0.0, p2) + free)
    qp = replace(qp, coeffs=(float(-qp._tail(x0a)), p2) + free)
    scale = max(1.0, sum(abs(c) * x0**a for a, c in zip(alphas, qp.coeffs)))
    if abs(qp.value(x0)) > 1e-10 * scale or abs(qp.deriv1(x0)) > 1e-10 * scale:
        raise DivergenceError("double-root pinning failed its numerical check")
    return qp


# ===== scenarios and joint simulation =====


@dataclass(frozen=True)
class Scenario:
    """A candidate market: the reference family plus a (S, theta) generator."""

    reference: ReferenceModel
    theta_process: ThetaProcess

    @property
    def generator(self) -> str:
        return GENERATORS[self.theta_process.kind]

    @property
    def sigma0(self) -> float:
        return self.theta_process.sigma0

    @property
    def s0(self) -> float:
        return self.reference.z0


def self_consistent_scenario(model: ReferenceModel, sigma: float) -> Scenario:
    return Scenario(model, ThetaProcess(kind="constant", sigma0=sigma))


def step_vol_scenario(
    model: ReferenceModel, sigma: float, jump_time: float, jump_size: float
) -> Scenario:
    return Scenario(
        model,
        ThetaProcess(
            kind="step", sigma0=sigma, jump_times=(jump_time,), jump_values=(sigma + jump_size,)
        ),
    )


def meanrev_vol_scenario(
    model: ReferenceModel,
    sigma: float,
    rate: float,
    level: float,
    vol_of_vol: float,
    correlation: float = 0.0,
) -> Scenario:
    return Scenario(
        model,
        ThetaProcess(
            kind="meanrev", sigma0=sigma, rate=rate, level=level, vol_of_vol=vol_of_vol,
            correlation=correlation,
        ),
    )


def joint_simulate(scn: Scenario, time_grid, cfg: SimConfig) -> PathEnsemble:
    """Paired (S, theta) paths of the scenario from its initial data at time
    0, deterministic in (seed, grid): models.step_paths under the scenario's
    theta process.

    The S-draws line up across generators at matched seeds until theta first
    differs between them; after that an exact law's Poisson and Gamma draws,
    whose count depends on the states, take different parts of the stream.
    """
    return step_paths(scn.reference, scn.theta_process, scn.s0, 0.0, time_grid, cfg)


# ===== the bound's building blocks =====


def _law(model: ReferenceModel):
    """The model's transition law, against which every tail term and call
    price is taken; a model without one is refused."""
    if model.law is None:
        raise ConfigurationError(f"model {model.name!r} has no transition law")
    return model.law


def tail_route(model: ReferenceModel) -> dict:
    """How check_bound computes the tail term G: the law's route for phi."""
    return _law(model).tail_route(model.phi)


def _g_tail(model, s, v, k_max):
    """The tail term per (s, v) pair of 1-d arrays, from the law at state s
    and variance v."""
    return _law(model).tail(model.phi, s, v, k_max)


def _g_batch(model, theta, s, t, T, k_max):
    """The tail term per (theta, s) pair of 1-d arrays: _g_tail at the
    variance theta^2 (T - t)."""
    theta, s = np.broadcast_arrays(theta, s)
    return _g_tail(model, s, theta * theta * (T - t), k_max)


def l_value(t: float, T: float, theta, s, strikes: StrikeGrid, model: ReferenceModel):
    """Strike-band term: between-strike price shortfalls weighted by phi''.

    Always nonpositive: within each band the call price at K is below the
    price at the band's left edge, and phi'' >= 0. theta and s may be 1-d
    arrays (an array of terms, one per pair) or scalars (a float).

    Closed form, where tail_route is (a lognormal law with a quadratic phi):
    int_a^b C dK = (S2(a) - S2(b))/2 with S2(K) = E[((Z_T - K)^+)^2], so
    each band is phi'' ((S2(K_j) - S2(K_j+1))/2 - C(K_j) dK_j), floored at
    its bound 0. Any other model is refused.
    """
    if not t <= T:
        raise DomainError(f"need t <= T, got t={t}, T={T}")
    if tail_route(model)["route"] != "closed-form":
        raise ConfigurationError(f"model {model.name!r} has no closed-form strike-band term")
    scalar = np.ndim(theta) == 0 and np.ndim(s) == 0
    theta, s = (np.atleast_1d(np.asarray(a, dtype=np.float64)) for a in (theta, s))
    negative = theta[theta < 0.0]
    if negative.size:
        raise DomainError(
            f"volatility parameter must be nonnegative, got {negative.size} negative "
            f"value(s), the first {negative[0]}"
        )
    ks = np.asarray(strikes.strikes)
    v = theta * theta * (T - t)
    z, k, v = np.broadcast_arrays(s[:, None], ks[None, :], v[:, None])
    c, s2 = _bs_call_moments(z, k, v)
    bands = 0.5 * (s2[:, :-1] - s2[:, 1:]) - c[:, :-1] * np.diff(ks)
    out = model.phi.curvature * np.minimum(bands, 0.0).sum(axis=1)
    return float(out[0]) if scalar else out


def _strike_slopes(phi: PhiFunction, ks: np.ndarray):
    """(phi' at the strikes, whether the zero-strike convention was used)."""
    d = np.asarray(phi.deriv1(ks), dtype=np.float64)
    convention = not np.isfinite(d[0])
    if convention:
        # slope undefined at zero strike (its one-sided limit diverges):
        # reuse the next strike's slope so the first band contributes 0
        d = d.copy()
        d[0] = d[1]
    return d, convention


def _rhs_detail(coeffs, strikes: StrikeGrid, phi: PhiFunction):
    ks = np.asarray(strikes.strikes)
    d, convention = _strike_slopes(phi, ks)
    if not np.all(np.isfinite(d)):
        raise DomainError("phi' is not finite at an interior strike")
    inner = float(np.sum(np.diff(ks) * np.diff(d)))
    value = 2.0 * float(np.sum(np.abs(np.asarray(coeffs, dtype=np.float64)))) * inner
    return value, convention


def rhs_bound(coeffs, strikes: StrikeGrid, phi: PhiFunction) -> float:
    """Scenario-independent side: 2 sum_k |p_k| sum_j dK_j dphi'_j."""
    if len(tuple(coeffs)) == 0:
        raise DomainError("coefficient vector cannot be empty")
    value, _ = _rhs_detail(coeffs, strikes, phi)
    return value


# ===== the bound check and its companions =====


@dataclass(frozen=True)
class BoundReport:
    """Both sides of the universal bound for one scenario, with diagnostics.

    per_weight has a row per free maturity T_j (j >= 3): maturity, lhs,
    lhs_se, rhs, satisfied and the coefficients of Q_j, the unit weight on
    T_j. satisfied holds when every row does, which by linearity in the
    weights is the bound for every weight vector p >= 0. lhs, lhs_se, rhs,
    the decomposition (nq_*, g_corr_*) and q are the sharpest row's: largest
    lhs/rhs, the earliest maturity on a tie.

    lhs_route names the rows the left side is the mean over (check_bound):
    {"route": "exact", ...}, the one row of the law at time t, with every se
    0, or {"route": "monte-carlo", "paths": n}, a row per simulated path.
    absorbed_fraction is the share of simulated paths absorbed by time t;
    absorbed_mass is the law's probability of the same where the law has an
    atom and theta does not move, else None. On the exact route these
    describe the simulation only; the left side does not read the paths.
    steps is the number of steps each path took.
    """

    t: float
    lhs: float
    lhs_se: float
    rhs: float
    satisfied: bool
    nq_mean: float
    nq_se: float
    g_corr_mean: float
    g_corr_se: float
    l_diagnostics: tuple
    phi_prime_convention: bool
    n_paths: int
    steps: int = 0
    absorbed_fraction: float = 0.0
    absorbed_mass: float | None = None
    q: QPolynomial | None = None
    lhs_route: dict | None = None
    per_weight: tuple = ()

    def __post_init__(self):
        if self.rhs < 0.0:
            raise DomainError("bound right side cannot be negative")
        if self.nq_mean < 0.0:
            raise DomainError("growth-times-gap component cannot be negative")


def check_bound(
    scn: Scenario,
    mats: MaturityGrid,
    strikes: StrikeGrid,
    t: float,
    cfg: SimConfig,
) -> BoundReport:
    """Evaluate both sides of the universal bound for a scenario at time t,
    a per_weight row per unit weight Q_j. Its right side is exact arithmetic
    and identical across scenarios sharing (maturities, strikes, phi). Its
    left side is one formula (_lhs_rows) over time-t rows (s, v_t, theta_t,
    v_to), each standing for S_t drawn from the law at state s and variance
    v_t:

        mean over the rows of exp(theta_t^2 (T_1 - t)) Q_j(X_t) E[phi(S_t)]
                              + sum_k c_k (G(s0, sigma0^2 T_k) - G(s, v_to[k]))

    The routes differ only in the rows. Where theta does not move there is
    one row, (s0, v_t, theta_t) with v_to accrued by _variance_clock
    (_exact_rows), so the left side is exact and its se is 0. A moving theta
    has a row per simulated path, the point mass (S_t, 0, theta_t) with
    v_to[k] = theta_t^2 (T_k - t). A per_weight row is satisfied when
    lhs <= rhs + 3 se. One step of joint_simulate over [0, t] gives the
    absorbed fraction and, for a closed-form model, the band terms L; the
    verdict reads neither.
    """
    model = scn.reference
    times = mats.times
    if not 0.0 <= t <= times[0]:
        raise DomainError(f"evaluation time {t} must lie in [0, {times[0]}]")
    alphas = compute_alphas(mats)
    x0 = pin_point(scn.sigma0, times[1] - times[0])
    qs = [build_q(alphas, x0, j) for j in range(2, mats.q)]

    grid = [0.0] if t == 0.0 else [0.0, t]
    joint = joint_simulate(scn, grid, cfg)
    theta_t = joint.theta[:, -1]
    s_t = joint.states[:, -1]
    n = s_t.size
    mass_fn = getattr(model.law, "absorbed_mass", None)
    mass = None
    if scn.theta_process.moves:
        law_rows = (s_t, np.zeros(n), theta_t, theta_t * theta_t * (np.array(times)[:, None] - t))
        route = {"route": "monte-carlo", "paths": n}
    else:
        law_rows = _exact_rows(scn, t, times)
        route = {"route": "exact", "phi_mean": semigroup_route(model)}
        if mass_fn is not None:
            mass = float(mass_fn(scn.s0, float(law_rows[1][0])))
    parts = _lhs_rows(scn, qs, times, strikes.k_max, t, law_rows)
    rows = []
    for t_j, qp, (_, _, (lhs_raw, se)) in zip(times[2:], qs, parts):
        rhs, convention = _rhs_detail(qp.coeffs, strikes, model.phi)
        lhs = abs(lhs_raw)
        rows.append({"maturity": t_j, "lhs": lhs, "lhs_se": se, "rhs": rhs,
                     "satisfied": lhs <= rhs + 3.0 * se, "coefficients": qp.coeffs})
    # each rhs is sum_k |c_k| times one grid factor, so lhs / sum_k |c_k|
    # orders the rows as lhs / rhs does, also where that factor is 0; max
    # keeps the first of a tie
    best = max(range(len(qs)), key=lambda i: rows[i]["lhs"] / sum(map(abs, qs[i].coeffs)))
    (nq_mean, nq_se), (gc_mean, gc_se), _ = parts[best]

    l_diag = []
    if tail_route(model)["route"] == "closed-form":
        take = _band_sample(n)
        for t_k in times:
            l0 = l_value(0.0, t_k, scn.sigma0, scn.s0, strikes, model)
            # L reads theta^2 only, and a mean-reverting theta can dip below 0
            lt = l_value(t, t_k, np.abs(theta_t[take]), s_t[take], strikes, model)
            lt_mean, lt_se = sample_mean(lt)
            l_diag.append(
                {"maturity": t_k, "l0": l0, "lt_mean": lt_mean, "lt_se": lt_se,
                 "n_sampled": int(lt.size)}
            )

    return BoundReport(
        t=t,
        lhs=rows[best]["lhs"],
        lhs_se=rows[best]["lhs_se"],
        rhs=rows[best]["rhs"],
        satisfied=all(row["satisfied"] for row in rows),
        nq_mean=nq_mean,
        nq_se=nq_se,
        g_corr_mean=gc_mean,
        g_corr_se=gc_se,
        l_diagnostics=tuple(l_diag),
        phi_prime_convention=convention,
        n_paths=n,
        steps=joint.steps,
        absorbed_fraction=float(np.mean(joint.absorbed_at <= t)),
        absorbed_mass=mass,
        q=qs[best],
        lhs_route=route,
        per_weight=tuple(rows),
    )


def _exact_rows(scn, t, times):
    """The one row of a theta that does not move, as _lhs_rows reads rows:
    theta_t is a number and S_t has the law at s0 and variance v_t, the
    integral of theta^2 up to t, with each maturity's variance accrued by
    _variance_clock over the same intervals as at time 0."""
    proc = scn.theta_process
    return (
        np.array([scn.s0]),
        np.array([_variance_clock(proc, t, t)]),
        np.array([proc.deterministic_value(t)]),
        np.array([[_variance_clock(proc, t, t_k)] for t_k in times]),
    )


def _lhs_rows(scn, qs, times, k_max, t, rows):
    """Per polynomial of qs, (mean, se) of N Q(X_t), of the tail corrections
    and of their sum over the rows (s, v_t, theta_t, v_to). Row i stands for
    S_t drawn from the law at state s_i and variance v_t_i, with theta_t_i at
    t, and v_to[k, i] is the variance it accrues up to T_k, so per row

        E[N Q(X_t)] = exp(theta_t^2 (T_1 - t)) Q(X_t) E[phi(S_t)],
        E[G(t, T_k, theta_t, S_t)] = G(s, v_to[k])

    by Chapman-Kolmogorov in the variance clock, with E[phi(S_t)] = phi(s)
    where v_t is 0 and phi_mean(s, v_t) where it is not. X_t is pin_point's
    expression at theta_t. A single row has se 0.
    """
    model = scn.reference
    s, v_t, theta_t, v_to = rows
    n = s.size
    held = v_t == 0.0
    e_phi = np.empty(n)
    e_phi[held] = model.phi(s[held])
    e_phi[~held] = [phi_mean(model, a, b) for a, b in zip(s[~held].tolist(), v_t[~held].tolist())]
    with np.errstate(over="ignore", invalid="ignore"):
        n1 = np.exp(theta_t * theta_t * (times[0] - t)) * e_phi
        x_t = np.exp(theta_t * theta_t * np.float64(times[1] - times[0]))
    bad = np.nonzero(~(np.isfinite(n1) & np.isfinite(x_t)))[0]
    if bad.size:
        first = ", ".join(f"({theta_t[i]:.6g}, {s[i]:.6g}, {v_t[i]:.6g})" for i in bad[:5])
        raise DivergenceError(
            f"growth factor at t={t} is not finite on {bad.size} of {n} rows of model "
            f"{model.name!r}; first (theta_t, s, v_t): {first} on rows {bad[:5].tolist()}"
        )
    # every maturity's G in one tail call per side, G_t over the q n stacked
    # rows: each row is its own reduction, so the rows do not change one
    # another
    q = len(times)
    gt = _g_tail(model, np.tile(s, q), v_to.ravel(), k_max).reshape(q, n)
    g0 = _g_batch(model, np.full(q, scn.sigma0), np.full(q, scn.s0), 0.0, np.array(times), k_max)
    out = []
    for qp in qs:
        # Q >= 0 holds exactly in real arithmetic; floats may dip an ulp
        # below zero right next to the pinned root, so floor at zero
        nq = n1 * np.maximum(qp.value(x_t), 0.0)
        g_corr = np.zeros(n)
        for c_k, g0_k, gt_k in zip(qp.coeffs, g0, gt):
            if c_k != 0.0:
                g_corr = g_corr + c_k * (g0_k - gt_k)
        out.append((sample_mean(nq), sample_mean(g_corr), sample_mean(nq + g_corr)))
    return out


def _variance_clock(proc: ThetaProcess, t: float, T: float) -> float:
    """int_0^T theta^2 for a theta that does not move, held at theta_t after
    t <= T: the variance of Z_T given Z_0 = s0 when the market runs the
    reference dynamics at theta_t from t on. At t = T it is the variance v_t
    of S_t. A jump at t is theta_t's (as deterministic_value reads it): it
    opens the segment [t, T], which adds an exact 0.0 when T = t."""
    edges = [0.0] + [c for c in proc.change_times if c <= t] + [T]
    clock = 0.0
    for a, b in zip(edges, edges[1:]):
        theta = proc.deterministic_value(a)
        clock += theta * theta * (b - a)
    return clock


@dataclass(frozen=True)
class ResidualTable:
    """Repricing residuals per (maturity, strike): the mean payoff minus the
    mean model price, with standard errors and z-scores.

    route names how they were taken (pricing_residuals): {"route": "exact"}
    from the law, with every se 0, so each z is 0.0 where the cell reprices
    and inf where it does not; or {"route": "monte-carlo", "paths": n} over
    simulated paths.

    On the path route a cell's z-score is trustworthy only where the payoff
    tail is actually sampled: deep out-of-the-money cells with a handful of
    in-the-money paths have standard errors dominated by whichever rare
    paths happened to land, and their z is not close to normal. calibrated
    marks cells with at least min_tail_count (MIN_TAIL_COUNT) in-the-money
    paths; max_abs_z reads only those (falling back to the full table if
    nothing is calibrated). The exact route has no paths: tail_counts,
    calibrated, min_tail_count and n_paths are None, and max_abs_z reads
    every cell.
    """

    maturities: tuple
    strikes: tuple
    residuals: np.ndarray
    ses: np.ndarray
    z_scores: np.ndarray
    route: dict
    tail_counts: np.ndarray | None = None
    calibrated: np.ndarray | None = None
    min_tail_count: int | None = None
    n_paths: int | None = None
    steps: int = 0

    @property
    def max_abs_z(self) -> float:
        z = np.abs(self.z_scores)
        if self.calibrated is not None and np.any(self.calibrated):
            z = z[self.calibrated]
        return float(np.max(z))


def pricing_residuals(
    scenarios,
    mats: MaturityGrid,
    strikes: StrikeGrid,
    t: float,
    cfg: SimConfig,
) -> tuple:
    """Mean payoff minus mean model price, per maturity and strike: one
    ResidualTable per scenario of a group that shares its model and its theta
    history up to t.

    Tests the unconditional consequence of the repricing identity: the
    difference (S_T - K)^+ - C(T, t, K, theta_t, S_t), C the law's call, has
    mean 0 when the scenario reprices like the reference. Where no member's
    theta moves that mean is exact (_residuals_exact) and nothing is
    simulated, so cfg is not read; otherwise it is taken over simulated
    paths (_residuals_paths). On either route a member whose history up to t
    differs from the first member's is an error.
    """
    scenarios = tuple(scenarios)
    if not scenarios:
        raise DomainError("need at least one scenario to reprice")
    times = mats.times
    if not 0.0 <= t <= times[0]:
        raise DomainError(f"evaluation time {t} must lie in [0, {times[0]}]")
    if any(scn.theta_process.moves for scn in scenarios):
        return _residuals_paths(scenarios, mats, strikes, t, cfg)
    return _residuals_exact(scenarios, mats, strikes, t)


def _history_differs(g: int, scn: Scenario, t: float) -> DomainError:
    return DomainError(
        f"scenario {g} of the group ({scn.theta_process}) does not share scenario 0's "
        f"(S_t, theta_t) at t={t}: its history differs at or before t"
    )


def _residuals_exact(scenarios, mats, strikes, t):
    """Residuals from the law, for thetas that do not move: S_T has the law
    at s0 and variance V_T = int_0^T theta^2, and S_t at v_t, so

        E[(S_T - K)^+] = C(s0, K, V_T),
        E[C(T, t, K, theta_t, S_t)] = C(s0, K, v_t + theta_t^2 (T - t))

    by Chapman-Kolmogorov in the variance clock, the second at the exact
    row's variances (_exact_rows). Both are _variance_clock's, which accrues
    them over the same intervals wherever theta is constant after t, so such
    a member reads 0.0 exactly. The model prices are the group's, taken
    once; the group shares them when each member's law and exact row equal
    the first member's, which is checked.
    """
    first = scenarios[0]
    times, ks = mats.times, strikes.strikes
    row = _exact_rows(first, t, times)
    for g, scn in enumerate(scenarios[1:], start=1):
        if scn.reference.law != first.reference.law or not all(
            map(np.array_equal, _exact_rows(scn, t, times), row)
        ):
            raise _history_differs(g, scn, t)

    call = _law(first.reference).call

    def prices(variances):
        # one call per strike over the maturities: the payoff and the model
        # price of a cell are taken at the same place in equal-shaped arrays,
        # so equal variances give equal floats
        v = np.array(variances)
        return np.stack([call(first.s0, k, v) for k in ks], axis=1)

    model_price = prices(row[3][:, 0])
    tables = []
    for scn in scenarios:
        res = prices([_variance_clock(scn.theta_process, t_i, t_i) for t_i in times]) - model_price
        tables.append(ResidualTable(
            maturities=times,
            strikes=ks,
            residuals=res,
            ses=np.zeros_like(res),
            z_scores=np.vectorize(z_score, otypes=[float])(res, 0.0),
            route={"route": "exact"},
        ))
    return tuple(tables)


def _residuals_paths(scenarios, mats, strikes, t, cfg):
    """Residuals over simulated paths: the law's call on every path at t,
    against the payoffs at each maturity. Differences share paths, so the
    standard error is that of the paired sample.

    Each scenario's paths are its own joint_simulate run, as if it were
    alone, of which only the maturity columns are kept. The prices read the
    paths at t only, so each (T_i, K) cell is priced once for the whole
    group; that needs S_t and theta_t of every member to equal the first
    member's bit for bit, which is checked.
    """
    call = _law(scenarios[0].reference).call
    times = mats.times
    grid = sorted({0.0, t, *times})
    at_t = grid.index(t)
    n = cfg.n_paths
    # ends[g, i] holds member g's paths at maturity i, all a group keeps
    ends = np.empty((len(scenarios), mats.q, n))
    steps = []
    for g, scn in enumerate(scenarios):
        joint = joint_simulate(scn, grid, cfg)
        if g == 0:
            s_t, theta_t = joint.states[:, at_t].copy(), joint.theta[:, at_t]
            if theta_t.strides[0]:
                # a moving theta's column, copied so its path matrix can go;
                # one that does not move is a broadcast row and costs nothing
                theta_t = theta_t.copy()
        elif not (
            np.array_equal(joint.states[:, at_t], s_t)
            and np.array_equal(joint.theta[:, at_t], theta_t)
        ):
            raise _history_differs(g, scn, t)
        for i, t_i in enumerate(times):
            ends[g, i] = joint.states[:, grid.index(t_i)]
        steps.append(joint.steps)
        # freed before the next member is simulated
        del joint

    ks = strikes.strikes
    shape = (len(scenarios), mats.q, len(ks))
    res, ses, zs = np.empty(shape), np.empty(shape), np.empty(shape)
    counts = np.empty(shape, dtype=np.int64)
    payoff, diff = np.empty(n), np.empty(n)
    for i, t_i in enumerate(times):
        v = theta_t * theta_t * (t_i - t)
        for j, k in enumerate(ks):
            price = call(s_t, k, v)
            for g in range(len(scenarios)):
                np.subtract(ends[g, i], k, out=payoff)
                np.maximum(payoff, 0.0, out=payoff)
                mean, se = sample_mean(np.subtract(payoff, price, out=diff))
                res[g, i, j], ses[g, i, j], zs[g, i, j] = mean, se, z_score(mean, se)
                counts[g, i, j] = np.count_nonzero(payoff > 0.0)
            # freed before the next cell is priced
            del price
    return tuple(
        ResidualTable(
            maturities=times,
            strikes=ks,
            residuals=res[g],
            ses=ses[g],
            z_scores=zs[g],
            route={"route": "monte-carlo", "paths": n},
            tail_counts=counts[g],
            calibrated=counts[g] >= MIN_TAIL_COUNT,
            min_tail_count=MIN_TAIL_COUNT,
            n_paths=n,
            steps=steps[g],
        )
        for g in range(len(scenarios))
    )


@dataclass(frozen=True)
class DensificationStep:
    n_strikes: int
    k_min: float
    k_max: float
    diagnostic: float
    rhs: float


@dataclass(frozen=True)
class DensificationReport:
    steps: tuple
    schedule_ok: bool
    phi_prime_convention: bool


def densify_grid(model: ReferenceModel, n: int) -> StrikeGrid:
    """Grid n of the densification schedule: n + 1 strikes at equal steps of
    phi' up to K_m, which is n^(1/4) on an unbounded state domain and
    upper (1 - n^(-1/4)) on a bounded one. The steps start at the strike 0
    where phi'(0) is finite (for phi = z^2 the grid is K_m i/n), else at
    K_1 = K_m/sqrt(n), after the strike 0."""
    upper = model.beta.upper
    k_m = n**0.25 if math.isinf(upper) else upper * (1.0 - n**-0.25)
    slope = model.phi.deriv1
    k_lo = 0.0 if np.isfinite(slope(0.0)) else k_m / math.sqrt(n)
    d_lo, d_hi = slope(np.array([k_lo, k_m]))
    m = n if k_lo == 0.0 else n - 1
    targets = d_lo + (d_hi - d_lo) * np.arange(1, m) / m
    # phi' increases (phi is convex): the least strike reaching each target
    knots = [k_lo, *bisect_increasing(slope, targets, k_lo, k_m).tolist(), k_m]
    return StrikeGrid(strikes=tuple(knots if k_lo == 0.0 else [0.0, *knots]))


def densification_study(
    model: ReferenceModel,
    sigma: float,
    mats: MaturityGrid,
    grid_schedule,
) -> DensificationReport:
    """Track the bound along a schedule of finer, wider strike grids.

    Per grid: the diagnostic K_m * max_j dphi'_j and the exact right side of
    Q_q, the unit weight on the last maturity. Every unit weight's right
    side is its own sum_k |c_k| times the same grid factor, so this one
    column shows how all of them shrink. The self-consistent left side is
    exactly 0: X_t sits at the pin, so N Q(X_t) = 0 on every path, and
    E[G(t, T_k, sigma, S_t)] = G(0, T_k, sigma, s0) by the Markov property.
    The schedule is flagged healthy when the diagnostic strictly decreases.
    """
    schedule = list(grid_schedule)
    if not schedule:
        raise DomainError("grid schedule cannot be empty")
    scn = self_consistent_scenario(model, sigma)
    i_12 = mats.times[1] - mats.times[0]
    qp = build_q(compute_alphas(mats), pin_point(scn.sigma0, i_12), mats.q - 1)
    steps = []
    convention = False
    for grid in schedule:
        d, zero_slope = _strike_slopes(model.phi, np.asarray(grid.strikes))
        convention = convention or zero_slope
        steps.append(DensificationStep(
            n_strikes=len(grid.strikes), k_min=grid.strikes[1], k_max=grid.k_max,
            diagnostic=float(grid.k_max * np.max(np.diff(d))),
            rhs=rhs_bound(qp.coeffs, grid, model.phi),
        ))
    diags = [s.diagnostic for s in steps]
    return DensificationReport(
        steps=tuple(steps),
        schedule_ok=all(b < a for a, b in zip(diags, diags[1:])),
        phi_prime_convention=convention,
    )

