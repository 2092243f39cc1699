import dataclasses
import math

import numpy as np
import pytest

from volbound.errors import ConfigurationError, DivergenceError, DomainError, InfeasibleError
from volbound.models import SimConfig, StateDiffusion, TimeWeight, builtin_model
from volbound.phi import (
    MartingaleTestReport,
    OdeResidualReport,
    martingale_check_U,
    martingale_check_V,
    martingale_check_integral,
    semigroup_check,
    solve_phi,
    verify_phi,
)

GBM = builtin_model("gbm")
BESSEL = builtin_model("bessel0")
LOGDIFF = builtin_model("logdiff")


class TestVerifyPhi:
    def test_gbm_residual_exactly_zero(self):
        r = verify_phi(GBM, np.linspace(0.1, 10.0, 100), 1e-12)
        assert r.max_abs == 0.0
        assert r.passed and r.positive and r.convex

    def test_logdiff_residual_at_rounding_level(self):
        r = verify_phi(LOGDIFF, np.linspace(0.01, 0.99, 99), 1e-12)
        assert r.max_abs <= 1e-14 * max(1.0, r.rel_scale)
        assert r.passed

    def test_bessel0_residual_small(self):
        r = verify_phi(BESSEL, np.linspace(0.05, 10.0, 200), 1e-8)
        assert r.max_abs <= 1e-8 * max(1.0, r.rel_scale)
        assert r.passed

    def test_scaling_leaves_relative_residual_unchanged(self):
        grid = np.linspace(0.05, 10.0, 50)
        base = verify_phi(BESSEL, grid, 1e-8)
        scaled = verify_phi(dataclasses.replace(BESSEL, phi=BESSEL.phi.scaled(2.0)), grid, 1e-8)
        # doubling is exact in floats, so the ratio is bitwise 2
        assert np.array_equal(scaled.residuals, 2.0 * base.residuals)
        assert scaled.passed == base.passed

    def test_grid_outside_domain_rejected(self):
        with pytest.raises(DomainError):
            verify_phi(LOGDIFF, np.array([0.5, 1.5]), 1e-8)
        with pytest.raises(DomainError):
            verify_phi(GBM, np.array([0.0, 1.0]), 1e-8)

    def test_bad_arguments(self):
        with pytest.raises(DomainError):
            verify_phi(GBM, np.array([1.0, 2.0]), 0.0)
        with pytest.raises(DomainError):
            verify_phi(GBM, np.array([]), 1e-8)

    def test_report_grid_must_increase(self):
        with pytest.raises(DomainError):
            OdeResidualReport(
                grid=np.array([2.0, 1.0]),
                residuals=np.zeros(2),
                max_abs=0.0,
                rel_scale=1.0,
                positive=True,
                convex=True,
                passed=True,
            )

    def test_broken_candidate_fails(self):
        bad = dataclasses.replace(GBM, phi=dataclasses.replace(GBM.phi, value=lambda z: np.asarray(z) ** 2 + 0.1))
        r = verify_phi(bad, np.linspace(0.5, 2.0, 10), 1e-8)
        assert not r.passed
        assert r.max_abs == pytest.approx(0.1, abs=1e-12)


class TestSolvePhi:
    def test_slope_matched_recovers_square(self):
        p = solve_phi(GBM.beta, (1.0, 1.0), (0.5, 2.0), slope=2.0)
        zs = np.linspace(0.5, 2.0, 33)
        assert np.max(np.abs(p(zs) - zs**2)) < 1e-8
        assert np.max(np.abs(p.deriv1(zs) - 2.0 * zs)) < 1e-8
        assert np.max(np.abs(p.deriv2(zs) - 2.0)) < 1e-5
        assert p.provenance == "ode-solver"
        # a numerical solution never claims constant curvature, even for z^2
        assert p.curvature is None

    def test_slope_matched_recovers_bessel_phi(self):
        anchor = (1.0, float(BESSEL.phi(1.0)))
        p = solve_phi(BESSEL.beta, anchor, (0.5, 2.0), slope=float(BESSEL.phi.deriv1(1.0)))
        zs = np.linspace(0.5, 2.0, 25)
        assert np.max(np.abs(p(zs) - BESSEL.phi(zs))) < 1e-6

    def test_shooting_finds_minimal_growth_solution(self):
        # for beta(z)=z on [0.5, 2] the smallest positive solution through
        # (1,1) is a z^2 + (1-a)/z touching zero at the right edge, a=-1/7
        p = solve_phi(GBM.beta, (1.0, 1.0), (0.5, 2.0))
        zs = np.linspace(0.5, 2.0, 33)
        a = -1.0 / 7.0
        want = a * zs**2 + (1.0 - a) / zs
        assert np.max(np.abs(p(zs) - want)) < 1e-9
        assert np.all(p(zs) > 0.0)

    def test_solved_phi_passes_verification(self):
        p = solve_phi(GBM.beta, (1.0, 1.0), (0.5, 2.0), slope=2.0)
        model = dataclasses.replace(GBM, phi=p)
        r = verify_phi(model, np.linspace(0.55, 1.95, 40), 1e-8)
        assert r.passed

    def test_anchor_value_must_be_positive(self):
        with pytest.raises(DomainError):
            solve_phi(GBM.beta, (1.0, 0.0), (0.5, 2.0), slope=2.0)
        with pytest.raises(DomainError):
            solve_phi(GBM.beta, (1.0, -1.0), (0.5, 2.0))

    def test_window_validation(self):
        with pytest.raises(DomainError):
            solve_phi(GBM.beta, (1.0, 1.0), (2.0, 0.5))
        with pytest.raises(DomainError):
            solve_phi(LOGDIFF.beta, (0.5, 1.0), (0.2, 1.5))  # outside (0,1)
        with pytest.raises(DomainError):
            solve_phi(GBM.beta, (5.0, 1.0), (0.5, 2.0))  # anchor off-window

    def test_crossing_solution_rejected(self):
        with pytest.raises(InfeasibleError):
            solve_phi(GBM.beta, (1.0, 1.0), (0.5, 2.0), slope=-50.0)

    def test_singular_beta_rejected(self):
        dead = StateDiffusion(
            evaluator=lambda z: np.where(np.abs(np.asarray(z) - 1.0) < 0.3, 0.0, np.asarray(z)),
            lower=0.0,
            upper=math.inf,
        )
        with pytest.raises(DomainError):
            solve_phi(dead, (1.0, 1.0), (0.5, 2.0), slope=2.0)


CFG = SimConfig(n_paths=20000, dt=0.01, seed=42)


class TestMartingaleU:
    def test_gbm_flat(self):
        r = martingale_check_U(GBM, 0.3, [0.5, 1.0], CFG)
        assert r.verdict and all(abs(z) <= 3.0 for z in r.z_scores)
        assert r.references == (1.0, 1.0)

    def test_sigma_zero_exact(self):
        r = martingale_check_U(GBM, 0.0, [0.5, 1.0], CFG)
        assert r.z_scores == (0.0, 0.0)
        assert r.ses == (0.0, 0.0)
        assert r.means == (1.0, 1.0)

    def test_bessel0_with_absorption(self):
        cfg = SimConfig(n_paths=100000, dt=0.005, seed=7)
        r = martingale_check_U(BESSEL, 0.5, [0.5, 1.0], cfg)
        assert r.verdict

    def test_times_validation(self):
        with pytest.raises(DomainError):
            martingale_check_U(GBM, 0.3, [], CFG)
        with pytest.raises(DomainError):
            martingale_check_U(GBM, 0.3, [1.0, 0.5], CFG)
        with pytest.raises(DomainError):
            martingale_check_U(GBM, 0.3, [-1.0, 0.5], CFG)


class TestMartingaleV:
    def test_sigma_zero_exact(self):
        r = martingale_check_V(GBM, 0.0, [1.0], CFG)
        assert r.z_scores == (0.0,)

    def test_gbm_flat(self):
        r = martingale_check_V(GBM, 0.3, [0.5, 1.0], CFG)
        assert r.verdict

    @pytest.mark.parametrize("name,sigma", [("gbm", 0.3), ("bessel0", 0.5), ("logdiff", 0.3)])
    def test_u_and_v_verdicts_agree(self, name, sigma):
        m = builtin_model(name)
        cfg = SimConfig(n_paths=30000, dt=0.005, seed=13)
        u = martingale_check_U(m, sigma, [0.5, 1.0], cfg)
        v = martingale_check_V(m, sigma, [0.5, 1.0], cfg)
        assert u.verdict == v.verdict

    def test_exact_and_euler_agree_in_the_absorbing_regime(self):
        # sigma = 1 absorbs 13.5% of the paths by t = 1; the exact law's
        # absorption times stop the discount and the compensator as the
        # Euler oracle's (law=None, dt 1e-3) do
        euler = dataclasses.replace(BESSEL, law=None)
        times = [0.25, 0.5, 1.0]
        for check in (martingale_check_U, martingale_check_V):
            a = check(BESSEL, 1.0, times, SimConfig(n_paths=20000, dt=1e-3, seed=48))
            b = check(euler, 1.0, times, SimConfig(n_paths=20000, dt=1e-3, seed=49))
            assert a.verdict and b.verdict
            assert a.steps < 100 and b.steps >= 1000
            for ma, sa, mb, sb in zip(a.means, a.ses, b.means, b.ses):
                assert abs(ma - mb) < 4.0 * math.hypot(sa, sb)

    def test_piecewise_h_supported(self):
        m = dataclasses.replace(GBM, h=TimeWeight(values=(1.0, 2.0), breakpoints=(0.4,)))
        r = martingale_check_V(m, 0.3, [0.5, 1.0], CFG)
        assert r.verdict


class TestMartingaleIntegral:
    def test_identity_integrand(self):
        r = martingale_check_integral(GBM, lambda z: z, 0.3, [0.5, 1.0], CFG)
        assert r.verdict
        assert r.references == (0.0, 0.0)

    def test_absolute_value_kink(self):
        r = martingale_check_integral(GBM, lambda z: np.abs(z - 1.0), 0.3, [1.0], CFG)
        assert r.verdict

    def test_call_payoff_kink(self):
        r = martingale_check_integral(
            GBM, lambda z: np.maximum(z - 1.0, 0.0), 0.3, [1.0], CFG
        )
        assert r.verdict

    def test_explicit_left_derivative_route(self):
        r = martingale_check_integral(
            GBM,
            lambda z: np.abs(z - 1.0),
            0.3,
            [1.0],
            CFG,
            g_left_deriv=lambda z: np.where(np.asarray(z) > 1.0, 1.0, -1.0),
        )
        assert r.verdict

    def test_absorbing_model(self):
        r = martingale_check_integral(
            BESSEL, lambda z: np.maximum(z - 0.5, 0.0), 0.6, [1.0],
            SimConfig(n_paths=30000, dt=0.005, seed=9),
        )
        assert r.verdict


class TestSemigroup:
    def test_gbm(self):
        r = semigroup_check(GBM, 0.2, 1.0, SimConfig(n_paths=50000, dt=0.01, seed=21))
        assert r.verdict
        assert r.references[0] == pytest.approx(math.exp(0.04), rel=1e-12)

    def test_sigma_zero(self):
        r = semigroup_check(GBM, 0.0, 1.0, CFG)
        assert r.z_scores == (0.0,)

    def test_bessel0(self):
        r = semigroup_check(BESSEL, 0.4, 0.5, SimConfig(n_paths=50000, dt=0.005, seed=22))
        assert r.verdict

    def test_bessel0_absorbing_regime(self):
        # sigma = 1: by t = 1 an e^-2 share of paths sits at 0, holding
        # phi(0) = 1 instead of growing like exp(sigma^2 t) phi
        r = semigroup_check(BESSEL, 1.0, 1.0, SimConfig(n_paths=20000, dt=0.001, seed=21))
        assert r.references[0] == pytest.approx(0.3334107465740502, rel=1e-9)
        assert r.references[0] < math.exp(1.0) * BESSEL.phi(1.0)
        assert r.verdict

    def test_nonunit_weight_rejected(self):
        m = dataclasses.replace(GBM, h=TimeWeight(values=(2.0,)))
        with pytest.raises(ConfigurationError):
            semigroup_check(m, 0.2, 1.0, CFG)

    def test_bad_time(self):
        with pytest.raises(DomainError):
            semigroup_check(GBM, 0.2, 0.0, CFG)


def test_report_rejects_negative_se():
    with pytest.raises(DomainError):
        MartingaleTestReport(
            times=(1.0,), means=(1.0,), ses=(-0.1,), references=(1.0,),
            z_scores=(0.0,), verdict=True,
        )
