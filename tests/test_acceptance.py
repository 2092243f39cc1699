"""End-to-end acceptance checks, one per shipped guarantee.

Each check prints a single [PASS]/[FAIL] line (visible under pytest -s, or
run this file directly with python3). The tolerances here are the ones the
package promises, not what the implementation happens to achieve today.
"""

import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
from scipy.integrate import quad

from conftest import (
    decomposition_check,
    lognormal_call_oracle,
    martingale_check_integral,
    mc_call_price,
    pinned_q_oracle,
)
from volbound.bound import (
    MaturityGrid,
    StrikeGrid,
    build_q,
    check_bound,
    compute_alphas,
    densification_study,
    l_value,
    pin_point,
    pricing_residuals,
    self_consistent_scenario,
    step_vol_scenario,
)
from volbound.errors import ConfigurationError
from volbound.models import SimConfig, builtin_model, z_score
from volbound.phi import (
    martingale_check_U,
    martingale_check_V,
    semigroup_check,
    verify_phi,
)
from volbound.pricing import implied_vol
from volbound.special_functions import bessel_k

GBM = builtin_model("gbm")
BESSEL = builtin_model("bessel0")
LOGDIFF = builtin_model("logdiff")

MATS = MaturityGrid(times=(1.0, 2.0, 3.0))
KS = StrikeGrid(strikes=(0.0, 0.5, 1.0, 1.5, 2.0))


def _verdict(name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    extra = f"  ({detail})" if detail else ""
    print(f"[{tag}] {name}{extra}", flush=True)
    return ok


def test_eigenfunction_ode_residuals():
    cases = [
        (GBM, np.linspace(0.05, 10.0, 200), 1e-10),
        (LOGDIFF, np.linspace(0.005, 0.995, 200), 1e-10),
        (BESSEL, np.linspace(0.05, 10.0, 200), 1e-10),
    ]
    worst = []
    ok = True
    for model, grid, tol in cases:
        rep = verify_phi(model, grid, tol)
        ok = ok and rep.passed
        worst.append(f"{model.name} {rep.max_abs / max(1.0, rep.rel_scale):.2e}")
    assert _verdict("eigenfunction ODE residuals", ok, ", ".join(worst))


def _k_integral_oracle(order, x):
    # K_n(x) = int_0^inf exp(-x cosh u) cosh(n u) du; the integrand dies
    # once x cosh u > 750, so cut there and let quad resolve the rest
    upper = math.acosh(750.0 / x) + 1.0

    def f(u):
        return math.exp(-x * math.cosh(u)) * math.cosh(order * u)

    val, _ = quad(f, 0.0, upper, epsabs=1e-300, epsrel=1e-13, limit=400)
    return val


def test_bessel_k_against_integral_oracle():
    xs = np.linspace(0.1, 20.0, 50)
    worst = 0.0
    for order in (0, 1):
        for x in xs:
            ref = _k_integral_oracle(order, float(x))
            rel = abs(float(bessel_k(order, float(x))) / ref - 1.0)
            worst = max(worst, rel)
    assert _verdict(
        "Bessel K0/K1 vs integral oracle", worst <= 1e-10, f"worst rel {worst:.2e}"
    )


def test_monte_carlo_and_quadrature_pricing():
    # every law's call price against Monte Carlo over its exact sampler: gbm's
    # closed form on a grid, the quadrature of bessel0 and logdiff where their
    # atoms hold mass (sigma = 1); gbm's also against an adaptive quadrature
    cells = [(GBM, 0.2, T, K) for T in (0.5, 1.0, 2.0) for K in (0.5, 0.8, 1.0, 1.25, 1.5)]
    cells += [(m, 1.0, 1.0, K * m.z0) for m in (BESSEL, LOGDIFF) for K in (0.5, 1.0, 1.5)]
    worst_z = 0.0
    worst_quad = 0.0
    for i, (m, sigma, T, K) in enumerate(cells):
        ref = m.law.call(m.z0, K, sigma * sigma * T)
        cfg = SimConfig(n_paths=100_000, dt=0.005, seed=3000 + i)
        q = mc_call_price(m, sigma, 0.0, T, K, m.z0, cfg)
        worst_z = max(worst_z, abs(z_score(q.value - ref, q.se)))
        if m is GBM:
            worst_quad = max(worst_quad, abs(lognormal_call_oracle(1.0, K, 0.04 * T) - ref))
    ok = worst_z <= 3.0 and worst_quad <= 1e-12
    assert _verdict(
        "law call prices vs Monte Carlo and quadrature",
        ok,
        f"worst |z| {worst_z:.2f}, worst quad gap {worst_quad:.1e}",
    )


def test_implied_vol_round_trip():
    # gbm over ten years: at short maturity the deep in-the-money low-vol cell
    # prices below float resolution of its intrinsic value and nothing can
    # invert it. bessel0 and logdiff over one year, wherever the price moves
    # with sigma (vega >= 1e-3), since logdiff's flattens toward z (1 - K)
    worst = 0.0
    for m, T in ((GBM, 10.0), (BESSEL, 1.0), (LOGDIFF, 1.0)):
        z = m.z0
        for sigma in (0.05, 0.2, 0.5, 1.0):
            for moneyness in (0.5, 1.0, 1.5):
                k = moneyness * z
                price = m.law.call(z, k, sigma * sigma * T)
                up, down = (m.law.call(z, k, s * s * T) for s in (sigma + 1e-6, sigma - 1e-6))
                if (up - down) / 2e-6 < 1e-3:
                    continue
                got = implied_vol(m, price, T, k, z).sigma
                worst = max(worst, abs(got - sigma))
    assert _verdict("implied-vol round trip", worst <= 1e-8, f"worst err {worst:.1e}")


def test_pinned_polynomial_suite():
    # every unit weight on random grids, and the linearity that makes them
    # span every weight vector: the polynomial pinned for random weights p
    # (the oracle) is sum_j p_j Q_j, with c0 >= 0 and c1 <= 0
    rng = np.random.default_rng(20260817)
    worst_pin = worst_linear = 0.0
    shape_ok = signs_ok = True
    for _ in range(100):
        q = int(rng.integers(3, 8))
        t1 = float(rng.uniform(0.25, 2.0))
        gaps = rng.uniform(0.25, 2.0, size=q - 1)
        times = tuple(t1 + np.concatenate([[0.0], np.cumsum(gaps)]))
        sigma = float(rng.uniform(0.05, 1.0))
        mats = MaturityGrid(times=times)
        alphas = compute_alphas(mats)
        x0 = pin_point(sigma, times[1] - times[0])
        qs = [build_q(alphas, x0, j) for j in range(2, q)]
        for qp in qs:
            scale0 = sum(abs(c) * x0**a for a, c in zip(qp.alphas, qp.coeffs))
            scale1 = sum(
                abs(c * a) * x0 ** (a - 1.0) for a, c in zip(qp.alphas, qp.coeffs) if a > 0.0
            )
            worst_pin = max(
                worst_pin,
                abs(qp.value(x0)) / max(1.0, scale0),
                abs(qp.deriv1(x0)) / max(1.0, scale1),
            )
            grid = np.geomspace(x0 * 1e-3, x0 * 1e3, 201)
            vals = qp.value(grid)
            floor = -1e-12 * max(1.0, float(np.max(np.abs(vals))))
            shape_ok = shape_ok and bool(np.all(vals >= floor))
            shape_ok = shape_ok and bool(np.all(qp.deriv2(grid) >= 0.0))

        p = rng.uniform(0.0, 5.0, size=q - 2)
        general = pinned_q_oracle(p, alphas, x0)
        combined = np.array([qp.coeffs for qp in qs]).T @ p
        worst_linear = max(
            worst_linear,
            float(np.max(np.abs(np.array(general.coeffs) - combined) / np.abs(combined))),
        )
        signs_ok = signs_ok and general.coeffs[0] >= 0.0 and general.coeffs[1] <= 0.0

    # three equidistant maturities, unweighted: the polynomial is (x - x0)^2
    x0 = pin_point(0.2, 1.0)
    qp = build_q(compute_alphas(MATS), x0, 2)
    expected = (x0 * x0, -2.0 * x0, 1.0)
    coeff_err = max(
        abs(c - e) / max(1.0, abs(e)) for c, e in zip(qp.coeffs, expected)
    )
    ok = worst_pin <= 1e-10 and shape_ok and coeff_err <= 1e-12
    ok = ok and worst_linear <= 1e-14 and signs_ok
    assert _verdict(
        "pinned-polynomial suite",
        ok,
        f"worst pin {worst_pin:.1e}, coeff err {coeff_err:.1e}, linearity {worst_linear:.1e}, "
        f"shapes {'ok' if shape_ok else 'BAD'}, signs {'ok' if signs_ok else 'BAD'}",
    )


def test_martingale_means_and_semigroup():
    times = (0.25, 0.5, 1.0)
    ok = True
    worst_z = 0.0
    seed = 61
    for model in (GBM, BESSEL, LOGDIFF):
        for sigma in (0.2, 0.5):
            cfg = SimConfig(n_paths=100_000, dt=0.005, seed=seed)
            seed += 1
            for rep in (
                martingale_check_U(model, sigma, times, cfg),
                martingale_check_V(model, sigma, times, cfg),
            ):
                ok = ok and rep.verdict
                worst_z = max(worst_z, max(abs(z) for z in rep.z_scores))
    for model in (GBM, BESSEL):
        for sigma in (0.2, 0.5):
            rep = semigroup_check(model, sigma, 1.0, SimConfig(n_paths=100_000, dt=0.005, seed=seed))
            seed += 1
            ok = ok and rep.verdict
            worst_z = max(worst_z, max(abs(z) for z in rep.z_scores))
    assert _verdict(
        "martingale means and semigroup identity", ok, f"worst |z| {worst_z:.2f}"
    )


def test_stochastic_integral_mean_zero():
    times = (0.25, 0.5, 1.0)
    cases = [
        (lambda z: np.maximum(z - 1.0, 0.0), lambda z: (z > 1.0).astype(float)),
        (lambda z: np.abs(z - 0.8), lambda z: np.where(z > 0.8, 1.0, -1.0)),
        (lambda z: np.sqrt(1.0 + z * z), lambda z: z / np.sqrt(1.0 + z * z)),
    ]
    ok = True
    worst_z = 0.0
    for i, (g, d) in enumerate(cases):
        cfg = SimConfig(n_paths=100_000, dt=0.01, seed=71 + i)
        rep = martingale_check_integral(GBM, g, 0.2, times, cfg, g_left_deriv=d)
        ok = ok and rep.verdict
        worst_z = max(worst_z, max(abs(z) for z in rep.z_scores))
    assert _verdict(
        "stochastic-integral mean zero for convex integrands",
        ok,
        f"worst |z| {worst_z:.2f}",
    )


def test_bound_self_consistency():
    scn = self_consistent_scenario(GBM, 0.2)
    cfg = SimConfig(n_paths=100_000, dt=0.01, seed=88)
    rep = check_bound(scn, MATS, KS, 0.5, cfg)
    # hand evaluation: coefficients (x0^2, -2 x0, 1) sum in absolute value
    # to (x0+1)^2, and each of the four half-unit bands contributes
    # dK * dphi' = 0.5 * 1.0, so rhs = 2 (x0+1)^2 * 2
    x0 = math.exp(0.04)
    closed = 4.0 * (x0 + 1.0) ** 2
    rhs_err = abs(rep.rhs - closed) / closed
    # the exact route's se is 0, where any nonzero tail correction reads inf
    g_z = abs(z_score(rep.g_corr_mean, rep.g_corr_se))
    ok = rep.nq_mean == 0.0 and g_z <= 3.0 and rhs_err <= 1e-12 and rep.satisfied
    assert _verdict(
        "bound self-consistency on the unweighted grid",
        ok,
        f"gap term {rep.nq_mean!r}, tail z {g_z:.2f}, rhs err {rhs_err:.1e}",
    )


def test_price_space_decomposition():
    worst = 0.0
    for t in (0.0, 0.25, 0.5):
        out = decomposition_check(GBM, 0.3, 1.0, t, 1.0, KS)
        worst = max(worst, abs(out["defect"]))
    assert _verdict(
        "price-space decomposition identity", worst <= 1e-12, f"worst defect {worst:.1e}"
    )


def test_strike_band_term_range():
    rng = np.random.default_rng(101)
    ok = True
    for _ in range(50):
        theta = float(rng.uniform(0.0, 1.0))
        s = float(rng.uniform(0.3, 3.0))
        incs = rng.uniform(0.05, 1.2, size=int(rng.integers(2, 7)))
        ks = StrikeGrid(strikes=(0.0, *np.cumsum(incs).tolist()))
        t = float(rng.uniform(0.0, 0.9))
        T = t + float(rng.uniform(0.1, 2.0))
        lv = l_value(t, T, theta, s, ks, GBM)
        strikes = np.asarray(ks.strikes)
        cap = float(np.sum(np.diff(strikes) * np.diff(2.0 * strikes)))
        ok = ok and lv <= 1e-10 and lv >= -cap - 1e-10 * max(1.0, cap)
    # degenerate and near-degenerate variance sit on the intrinsic kink
    for theta in (0.0, 1e-3, 1e-6):
        lv = l_value(0.0, 1.0, theta, 1.2, KS, GBM)
        cap = float(np.sum(np.diff(KS.strikes) * 2.0 * np.diff(KS.strikes)))
        ok = ok and lv <= 1e-10 and lv >= -cap - 1e-10 * max(1.0, cap)
    # L is closed form only: the other models are refused, not approximated
    for model in (BESSEL, LOGDIFF):
        try:
            l_value(0.0, 1.0, 0.3, 0.5, StrikeGrid(strikes=(0.0, 0.25, 0.5, 0.75)), model)
            ok = False
        except ConfigurationError:
            pass
    assert _verdict("strike-band term range", ok)


def test_densification_schedule():
    def uniform_grid(n):
        k_max = float(n) ** 0.25
        return StrikeGrid(strikes=tuple(k_max * i / n for i in range(n + 1)))

    sizes = (4, 16, 64, 256)
    study = densification_study(GBM, 0.2, MATS, [uniform_grid(n) for n in sizes])
    diag_err = max(
        abs(step.diagnostic - 2.0 / math.sqrt(n)) / (2.0 / math.sqrt(n))
        for step, n in zip(study.steps, sizes)
    )
    rhs = [step.rhs for step in study.steps]
    decreasing = all(b < a for a, b in zip(rhs, rhs[1:]))
    ok = study.schedule_ok and decreasing and diag_err <= 1e-12
    assert _verdict(
        "densification schedule",
        ok,
        f"diag err {diag_err:.1e}, rhs {rhs[0]:.3f} -> {rhs[-1]:.3f}",
    )


def test_no_impossible_conjunction():
    # the jump sits between the evaluation time and the first maturity, so
    # the time-t bound data is indistinguishable from self-consistent while
    # the repricing window straddles the lie
    cfg = SimConfig(n_paths=100_000, dt=0.01, seed=97)
    lines = []
    ok = True
    for size in (0.0, 0.1, 0.3, 0.5):
        scn = step_vol_scenario(GBM, 0.2, 0.75, size)
        rep = check_bound(scn, MATS, KS, 0.5, cfg)
        tbl = pricing_residuals(scn, MATS, KS, 0.5, cfg)
        hard_violation = rep.lhs > rep.rhs + 3.0 * rep.lhs_se
        looks_honest = tbl.max_abs_z <= 3.0
        ok = ok and not (hard_violation and looks_honest)
        if size == 0.0:
            ok = ok and rep.satisfied and looks_honest
        else:
            ok = ok and not looks_honest  # the residual detector must fire
        lines.append(f"jump {size}: z {tbl.max_abs_z:.1f}")
    assert _verdict("no impossible conjunction under vol jumps", ok, "; ".join(lines))


CONFIG = """\
model: gbm
sigma: 0.2
generator: self-consistent
maturities: [1.0, 2.0, 3.0]
strikes: [0.0, 0.5, 1.0, 1.5, 2.0]
eval_time: 0.5
simulation:
  paths: 8000
  dt: 0.01
  seed: 11
"""


def test_reproducible_reports_across_workers():
    bodies = []
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "cfg.yaml")
        with open(cfg, "w") as f:
            f.write(CONFIG)
        for name, workers in (("a", "1"), ("b", "1"), ("c", "8")):
            out = os.path.join(tmp, f"{name}.json")
            proc = subprocess.run(
                [sys.executable, "-m", "volbound", "check-bound", "--config", cfg, "--out", out],
                env={**os.environ, "VOLBOUND_WORKERS": workers},
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            body = json.loads(open(out).read())
            body.pop("timing", None)
            bodies.append(json.dumps(body, sort_keys=True))
    ok = bodies[0] == bodies[1] == bodies[2]
    assert _verdict("byte-identical reports across runs and workers", ok)


_ALL = [
    test_eigenfunction_ode_residuals,
    test_bessel_k_against_integral_oracle,
    test_monte_carlo_and_quadrature_pricing,
    test_implied_vol_round_trip,
    test_pinned_polynomial_suite,
    test_martingale_means_and_semigroup,
    test_stochastic_integral_mean_zero,
    test_bound_self_consistency,
    test_price_space_decomposition,
    test_strike_band_term_range,
    test_densification_schedule,
    test_no_impossible_conjunction,
    test_reproducible_reports_across_workers,
]


if __name__ == "__main__":
    failures = 0
    for fn in _ALL:
        try:
            fn()
        except AssertionError:
            failures += 1
    raise SystemExit(1 if failures else 0)
