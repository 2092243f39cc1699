"""Eigenfunction validation and martingale diagnostics.

The eigenfunction condition is the state-space ODE
(1/2) beta(z)^2 phi''(z) = phi(z) with phi positive and convex.
`verify_phi` checks a candidate pointwise, and the martingale checks
test the dynamic consequences on simulated ensembles: the discounted
process and its compensated form have to be flat in expectation, and
E[phi(Z_t)] has to match its semigroup reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DivergenceError, DomainError
from .models import Z_GATE, ReferenceModel, SimConfig, sample_mean, simulate, step_paths, z_score

__all__ = [
    "OdeResidualReport",
    "MartingaleTestReport",
    "verify_phi",
    "martingale_check_U",
    "martingale_check_V",
    "phi_mean",
    "semigroup_check",
    "semigroup_route",
]


@dataclass(frozen=True)
class OdeResidualReport:
    """Pointwise residuals of the eigenfunction ODE on a state grid."""

    grid: np.ndarray
    residuals: np.ndarray
    max_abs: float
    rel_scale: float
    positive: bool
    convex: bool
    passed: bool

    def __post_init__(self):
        if np.any(np.diff(self.grid) <= 0.0):
            raise DomainError("residual grid must be strictly increasing")


@dataclass(frozen=True)
class MartingaleTestReport:
    """Sample means of a tested process against its no-drift reference.

    absorbed_fraction is the share of simulated paths absorbed by each test
    time, and stepping how the simulation stepped (PathEnsemble.stepping).
    """

    times: tuple
    means: tuple
    ses: tuple
    references: tuple
    z_scores: tuple
    verdict: bool
    absorbed_fraction: tuple = ()
    stepping: dict | None = None

    def __post_init__(self):
        if any(se < 0.0 for se in self.ses):
            raise DomainError("standard errors cannot be negative")


def verify_phi(model: ReferenceModel, grid, tol: float) -> OdeResidualReport:
    """Evaluate (1/2) beta^2 phi'' - phi on a grid and judge it against tol.

    Pass requires the worst residual below tol relative to the larger of 1
    and the grid's phi scale, together with positivity and convexity of
    phi at every grid point.
    """
    if not tol > 0.0:
        raise DomainError(f"tolerance must be positive, got {tol}")
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 1 or grid.size == 0:
        raise DomainError("grid must be a nonempty 1-d array")
    for z in grid:
        if not model.beta.contains(float(z)):
            raise DomainError(
                f"grid point {z} outside the open domain "
                f"({model.beta.lower}, {model.beta.upper})"
            )
    beta = np.asarray(model.beta(grid), dtype=np.float64)
    vals = np.asarray(model.phi(grid), dtype=np.float64)
    d2 = np.asarray(model.phi.deriv2(grid), dtype=np.float64)
    residuals = 0.5 * beta * beta * d2 - vals
    max_abs = float(np.max(np.abs(residuals)))
    rel_scale = float(np.max(np.abs(vals)))
    positive = bool(np.all(vals > 0.0))
    convex = bool(np.all(d2 >= 0.0))
    passed = max_abs <= tol * max(1.0, rel_scale) and positive and convex
    return OdeResidualReport(
        grid=grid,
        residuals=residuals,
        max_abs=max_abs,
        rel_scale=rel_scale,
        positive=positive,
        convex=convex,
        passed=passed,
    )


# ===== martingale diagnostics =====


def _check_times(times):
    times = [float(t) for t in times]
    if not times:
        raise DomainError("need at least one test time")
    if any(t < 0.0 for t in times) or any(b <= a for a, b in zip(times, times[1:])):
        raise DomainError(f"times must be strictly increasing and nonnegative: {times}")
    return times


def _summarize(check, model, times, samples, references, ens):
    """Fold per-time sample vectors into a MartingaleTestReport on ens,
    refusing a sample whose mean or se is not finite with a DivergenceError
    naming the check, the time, the model and z0."""
    means, ses, zs = [], [], []
    for t, x, ref in zip(times, samples, references):
        with np.errstate(over="ignore", invalid="ignore"):
            mean, se = sample_mean(x)
        if not (math.isfinite(mean) and math.isfinite(se)):
            raise DivergenceError(
                f"{check} at t={t}: the sample mean {mean} (se {se}) is not finite for "
                f"model {model.name!r} at z0={model.z0}"
            )
        means.append(mean)
        ses.append(se)
        zs.append(z_score(mean - ref, se))
    verdict = all(abs(z) <= Z_GATE for z in zs)
    return MartingaleTestReport(
        times=tuple(times),
        means=tuple(means),
        ses=tuple(ses),
        references=tuple(references),
        z_scores=tuple(zs),
        verdict=verdict,
        absorbed_fraction=tuple(float(np.mean(ens.absorbed_at <= t)) for t in times),
        stepping=ens.stepping,
    )


def _reference(model: ReferenceModel, v=None) -> float:
    """A check's reference, phi(z0) or E[phi(Z)] at variance v, refused unless finite."""
    with np.errstate(over="ignore"):
        phi0 = float(model.phi(model.z0))
        ref = phi0 if v is None else phi_mean(model, model.z0, v)
    if not math.isfinite(ref):
        raise DivergenceError(
            f"the reference {ref} is not finite: phi(z0) is {phi0} for model "
            f"{model.name!r} at z0={model.z0}"
        )
    return ref


def _simulation_grid(times, extra=None):
    pts = {0.0, *times}
    if extra is not None:
        pts.update(float(x) for x in extra)
    return sorted(pts)


def martingale_check_U(
    model: ReferenceModel, sigma: float, times, cfg: SimConfig
) -> MartingaleTestReport:
    """Test that the discounted eigenfunction process has constant mean.

    The tested object is exp(-sigma^2 (t ^ tau)) phi(Z_{t ^ tau}):
    on paths absorbed at tau both the discount and the state freeze there,
    which is exactly the stopped process whose mean is phi(z0) at every t.
    """
    times = _check_times(times)
    grid = _simulation_grid(times)
    ref = _reference(model)
    ens = simulate(model, sigma, model.z0, 0.0, grid, cfg)
    idx = {t: i for i, t in enumerate(grid)}
    samples = []
    for t in times:
        states = ens.states[:, idx[t]]
        weight = np.exp(-sigma * sigma * np.fmin(ens.absorbed_at, t))  # nan: never absorbed
        with np.errstate(over="ignore"):
            samples.append(weight * np.asarray(model.phi(states), dtype=np.float64))
    return _summarize("discounted eigenfunction", model, times, samples, [ref] * len(times), ens)


def martingale_check_V(
    model: ReferenceModel,
    sigma: float,
    times,
    cfg: SimConfig,
    integration_points: int = 65,
) -> MartingaleTestReport:
    """Test the compensated form: phi(Z_t) minus its accumulated drift.

    The compensator sigma^2 int_0^{t ^ tau} phi(Z_s) ds is accumulated
    by the trapezoid rule on a refined grid; the integrand stops at the
    absorption time like the state does. It is accumulated block by block
    as the engine draws each grid column, so memory is a few path vectors
    per test time whatever integration_points is.
    """
    times = _check_times(times)
    if integration_points < 2:
        raise ConfigurationError("need at least 2 integration points")
    ref = _reference(model)
    fine = np.linspace(0.0, times[-1], integration_points)
    # an array, not a list of floats: the grid is V's only per-point state
    grid = np.array(_simulation_grid(times, extra=fine))
    wanted = {int(np.searchsorted(grid, t)): np.empty(cfg.n_paths) for t in times}
    phi_lo = np.empty(cfg.n_paths)
    # -0.0, not 0.0, is the identity of float addition, so the running sums
    # equal np.cumsum's bit for bit
    cum = np.full(cfg.n_paths, -0.0)

    # on the worker threads, where the caller's errstate does not reach: a
    # sample that overflows is refused whole by _summarize
    @np.errstate(over="ignore", invalid="ignore")
    def visit(rows, c, z, absorbed_at):
        # grid segment c - 1 ends at column c: its overlap with [0, tau)
        # stops the integrand where the path was absorbed; a path absorbed
        # after the column still reads nan, and fmin gives seg_hi as it
        # would for its tau > seg_hi
        phi_hi = np.asarray(model.phi(z), dtype=np.float64)
        if c > 0:
            seg_lo, seg_hi = grid[c - 1], grid[c]
            overlap = np.clip(np.fmin(absorbed_at, seg_hi) - seg_lo, 0.0, None)
            cum[rows] += overlap * 0.5 * (phi_lo[rows] + phi_hi)
        phi_lo[rows] = phi_hi
        if c in wanted:
            wanted[c][rows] = phi_hi - sigma * sigma * cum[rows]

    ens = step_paths(model, sigma, model.z0, 0.0, grid, cfg, visit=visit)
    return _summarize(
        "compensated eigenfunction", model, times, list(wanted.values()), [ref] * len(times), ens
    )


def semigroup_route(model: ReferenceModel) -> dict:
    """How phi_mean computes E[phi(Z_t)] under the law (semigroup_check's
    reference, and a factor of check_bound's exact left side), in
    bound.tail_route's vocabulary: {"route": "closed-form"} where no path
    holds a finite nonzero phi at the law's atom, else {"route":
    "quadrature", "nodes": n, "window": w} for the law's expect, whose two
    rules, one either side of sqrt(z0), evaluate n nodes in all."""
    atom = getattr(model.law, "atom", None)
    phi_atom = 0.0 if atom is None else float(model.phi(atom))
    if not math.isfinite(phi_atom) or phi_atom == 0.0:
        return {"route": "closed-form"}
    if not hasattr(model.law, "expect"):
        raise ConfigurationError(
            f"model {model.name!r}: phi is {phi_atom} at its law's atom and the law "
            "has no expect for the stopped process's mean"
        )
    law = model.law
    return {"route": "quadrature", "nodes": 2 * law.expect_nodes, "window": law.expect_window}


def phi_mean(model: ReferenceModel, z: float, v: float) -> float:
    """E[phi(Z)] for Z drawn from the model's law at state z and variance v,
    a path absorbed at the law's atom holding phi(atom), by semigroup_route's
    route: the law's expect, or exp(v) phi(z) where the atom adds nothing."""
    if semigroup_route(model)["route"] == "quadrature":
        return model.law.expect(model.phi, z, v)
    try:
        growth = math.exp(v)
    except OverflowError:
        growth = math.inf
    return growth * float(model.phi(z))


def semigroup_check(
    model: ReferenceModel, sigma: float, t: float, cfg: SimConfig
) -> MartingaleTestReport:
    """Test the eigenvalue identity for E[phi(Z_t)].

    The law of Z_t is indexed by the variance v = sigma^2 t, so without
    absorption E[phi(Z_t)] = exp(v) phi(z0). A path absorbed at the law's
    atom holds phi(atom) and stops growing, so where phi(atom) is finite and
    nonzero, the reference is the stopped process's mean, taken from the law
    at v: phi(atom) times the atom's mass plus phi against the density
    (phi_mean, whose route semigroup_route names).
    """
    if not t > 0.0:
        raise DomainError(f"test time must be positive, got {t}")
    ref = _reference(model, sigma * sigma * t)
    ens = simulate(model, sigma, model.z0, 0.0, [0.0, t], cfg)
    with np.errstate(over="ignore"):
        sample = np.asarray(model.phi(ens.states[:, -1]), dtype=np.float64)
    return _summarize("semigroup", model, [t], [sample], [ref], ens)
