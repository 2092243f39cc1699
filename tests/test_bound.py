"""Bound-engine tests.

Closed-form expectations here are derived in-line (hand integrals over
piecewise-linear payoffs, exponent patterns of the maturity gaps);
simulation-facing checks use fixed seeds and 3.5-sigma gates.
"""

import dataclasses
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import volbound.bound as bound_module
import volbound.models as models_module
from conftest import (
    band_integral_oracle,
    band_payoff,
    besq0_phi_hat_oracle,
    decomposition_check,
    logbesq0_phi_hat_oracle,
    lognormal_phi_hat_oracle,
    n_value,
    pinned_q_oracle,
    tail_mc_oracle,
)
from volbound.bound import (
    L_SAMPLE_PATHS,
    BoundReport,
    DensificationStep,
    MaturityGrid,
    QPolynomial,
    Scenario,
    StrikeGrid,
    ThetaProcess,
    _band_sample,
    _g_batch,
    _rhs_detail,
    build_q,
    check_bound,
    compute_alphas,
    densification_study,
    densify_grid,
    joint_simulate,
    l_value,
    meanrev_vol_scenario,
    pricing_residuals,
    rhs_bound,
    self_consistent_scenario,
    step_vol_scenario,
    tail_route,
)
from volbound.errors import ConfigurationError, DivergenceError, DomainError
from volbound.models import (
    WORKERS_ENV_VAR,
    LogBesselLaw,
    LognormalLaw,
    PhiFunction,
    SimConfig,
    SquaredBesselLaw,
    builtin_model,
    rng_substream,
    sample_mean,
    simulate,
    step_paths,
)
from volbound.phi import semigroup_route
from volbound.pricing import _bs_call_core
from volbound.special_functions import norm_pdf

GBM = builtin_model("gbm")
BESSEL = builtin_model("bessel0")
LOGDIFF = builtin_model("logdiff")

MATS = MaturityGrid(times=(1.0, 2.0, 3.0))
KS3 = StrikeGrid(strikes=(0.0, 1.0, 2.0))
KS5 = StrikeGrid(strikes=(0.0, 0.5, 1.0, 1.5, 2.0))


def pin_point(sigma, i12):
    """x0 exactly as the bound check builds it, so float comparisons carry."""
    s = np.float64(sigma)
    return float(np.exp(s * s * np.float64(i12)))


def per_path_left_side(scn, mats, strikes, t, cfg, j=2):
    """The left side's two parts for Q_j on each simulated path, N Q(X_t)
    and sum_k c_k (G0_k - Gt_k), from one joint_simulate step over [0, t]
    and the tail term at every path's (theta_t, s_t): the Monte Carlo
    estimator the exact left side stands in for."""
    model = scn.reference
    times = mats.times
    i12 = times[1] - times[0]
    qp = build_q(compute_alphas(mats), pin_point(scn.sigma0, i12), j)
    joint = joint_simulate(scn, [0.0, t], cfg)
    theta_t, s_t = joint.theta[:, -1], joint.states[:, -1]
    x_t = np.exp(theta_t * theta_t * np.float64(i12))
    nq = n_value(t, times[0], theta_t, s_t, model) * np.maximum(qp.value(x_t), 0.0)
    g_corr = np.zeros(s_t.size)
    for t_k, c_k in zip(times, qp.coeffs):
        g0 = _g_batch(model, np.array([scn.sigma0]), np.array([scn.s0]), 0.0, t_k, strikes.k_max)
        g_corr = g_corr + c_k * (float(g0[0]) - _g_batch(model, theta_t, s_t, t, t_k, strikes.k_max))
    return nq, g_corr


class TestGrids:
    def test_maturity_grid_needs_three_increasing(self):
        with pytest.raises(DomainError):
            MaturityGrid(times=(1.0, 2.0))
        with pytest.raises(DomainError):
            MaturityGrid(times=(1.0, 2.0, 2.0))
        assert MaturityGrid(times=(0.0, 0.5, 1.5, 3.5)).q == 4

    def test_strike_grid_starts_at_zero(self):
        with pytest.raises(DomainError):
            StrikeGrid(strikes=(0.5, 1.0))
        with pytest.raises(DomainError):
            StrikeGrid(strikes=(0.0,))
        with pytest.raises(DomainError):
            StrikeGrid(strikes=(0.0, 1.0, 1.0))
        assert KS5.k_max == 2.0


class TestAlphas:
    def test_unit_weight_equidistant(self):
        assert compute_alphas(MATS) == (0.0, 1.0, 2.0)

    def test_unit_weight_uneven(self):
        mats = MaturityGrid(times=(0.0, 0.5, 1.5, 3.5))
        assert compute_alphas(mats) == (0.0, 1.0, 3.0, 7.0)


class TestPinnedPolynomial:
    def test_three_term_unit_weight_coefficients(self):
        # with exponents (0, 1, 2) and free weight 1 the pinned polynomial
        # is (x - x0)^2 expanded, so the forced coefficients are x0^2, -2x0
        x0 = pin_point(0.2, 1.0)
        qp = build_q((0.0, 1.0, 2.0), x0, 2)
        assert qp.coeffs == (x0 * x0, -2.0 * x0, 1.0)

    def test_pin_is_exact_in_floats(self):
        for sigma, i12 in ((0.2, 1.0), (0.5, 2.5), (1.3, 0.7)):
            x0 = pin_point(sigma, i12)
            for j in (2, 3):
                qp = build_q((0.0, 1.0, 2.0, 4.5), x0, j)
                assert qp.value(x0) == 0.0
                assert qp.deriv1(x0) == 0.0

    def test_pin_exact_on_arrays_too(self):
        x0 = pin_point(0.3, 1.0)
        qp = build_q((0.0, 1.0, 2.0), x0, 2)
        vals = qp.value(np.array([x0, 2.0 * x0, x0]))
        assert vals[0] == 0.0 and vals[2] == 0.0 and vals[1] > 0.0

    @settings(max_examples=100, deadline=None)
    @given(
        x0=st.floats(0.2, 5.0),
        extras=st.lists(st.floats(1.5, 8.0), min_size=1, max_size=3, unique=True),
        data=st.data(),
    )
    def test_nonnegative_convex_minimum_at_pin(self, x0, extras, data):
        alphas = (0.0, 1.0, *sorted(extras))
        qp = build_q(alphas, x0, data.draw(st.integers(2, len(alphas) - 1)))
        assert qp.value(x0) == 0.0
        assert qp.deriv1(x0) == 0.0
        xs = x0 * np.exp(np.linspace(-3.0, 2.0, 41))
        vals = qp.value(xs)
        scale = sum(abs(c) * xs**a for a, c in zip(qp.alphas, qp.coeffs))
        assert np.all(vals >= -1e-12 * np.maximum(scale, 1.0))
        assert np.all(qp.deriv2(xs) >= 0.0)
        assert qp.value(2.0 * x0) > 0.0

    def test_validation(self):
        with pytest.raises(DomainError):
            build_q((0.0, 1.0), 1.0, 2)
        with pytest.raises(DomainError):
            build_q((0.0, 1.0, 2.0), 0.0, 2)
        # the unit weight sits on a free exponent: index 2 to q - 1
        for j in (1, 3):
            with pytest.raises(DomainError):
                build_q((0.0, 1.0, 2.0), 1.0, j)
        with pytest.raises(DomainError):
            QPolynomial(alphas=(0.5, 1.0, 2.0), coeffs=(1.0, 1.0, 1.0), x0=1.0)


class TestScenarios:
    def test_step_values_switch_at_jump(self):
        proc = ThetaProcess(
            kind="step", sigma0=0.2, jump_times=(0.5, 1.5), jump_values=(0.6, 0.1)
        )
        assert proc.deterministic_value(0.0) == 0.2
        assert proc.deterministic_value(0.4999) == 0.2
        assert proc.deterministic_value(0.5) == 0.6
        assert proc.deterministic_value(1.5) == 0.1

    def test_generator_follows_theta_kind(self):
        # a scenario names its generator from its theta process, so the two
        # cannot disagree; an unknown kind is refused where it is built
        step = ThetaProcess(kind="step", sigma0=0.2, jump_times=(1.0,), jump_values=(0.3,))
        assert Scenario(GBM, step).generator == "step-vol"
        assert self_consistent_scenario(GBM, 0.2).generator == "self-consistent"
        assert meanrev_vol_scenario(GBM, 0.2, 1.0, 0.3, 0.4).generator == "meanrev-vol"
        with pytest.raises(ConfigurationError):
            ThetaProcess(kind="garch", sigma0=0.2)

    def test_meanrev_has_no_deterministic_path(self):
        proc = ThetaProcess(kind="meanrev", sigma0=0.2, rate=1.0, level=0.3, vol_of_vol=0.4)
        with pytest.raises(ConfigurationError):
            proc.deterministic_value(1.0)

    def test_correlation_range(self):
        with pytest.raises(DomainError):
            meanrev_vol_scenario(GBM, 0.2, 1.0, 0.3, 0.4, correlation=1.5)

    def test_history_keeps_the_jumps_up_to_t(self):
        proc = ThetaProcess(
            kind="step", sigma0=0.2, jump_times=(0.5, 1.5), jump_values=(0.6, 0.1)
        )
        # a jump at exactly t is part of the history: theta(t) reads it
        assert proc.until(0.5) == ThetaProcess(
            kind="step", sigma0=0.2, jump_times=(0.5,), jump_values=(0.6,)
        )
        assert proc.until(1.5) == proc
        assert proc.until(0.4999) == ThetaProcess(kind="constant", sigma0=0.2)
        for t in (0.0, 0.25, 0.5, 1.0, 1.5, 2.0):
            for u in np.linspace(0.0, t, 9):
                assert proc.until(t).deterministic_value(u) == proc.deterministic_value(u)

    def test_history_of_other_kinds_is_the_process(self):
        const = ThetaProcess(kind="constant", sigma0=0.2)
        moving = ThetaProcess(kind="meanrev", sigma0=0.2, rate=1.0, level=0.3, vol_of_vol=0.4)
        still = ThetaProcess(kind="meanrev", sigma0=0.2, rate=1.0, level=0.2)
        for proc in (const, moving, still):
            assert proc.until(0.5) is proc

    def test_initial_data_comes_from_reference(self):
        scn = self_consistent_scenario(builtin_model("gbm", z0=2.5), 0.4)
        assert scn.s0 == 2.5
        assert scn.sigma0 == 0.4


class TestJointSimulate:
    CFG = SimConfig(n_paths=4000, dt=0.01, seed=7)

    def test_zero_jump_at_anchor_is_bitwise_self_consistent(self):
        # jump on a stored anchor adds no refinement node, so the draw
        # schedule and every float op match the constant-vol run
        grid = [0.0, 0.5, 1.0]
        a = joint_simulate(self_consistent_scenario(GBM, 0.3), grid, self.CFG)
        b = joint_simulate(step_vol_scenario(GBM, 0.3, 0.5, 0.0), grid, self.CFG)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.theta, b.theta)

    def test_interior_zero_jump_matches_to_rounding(self):
        # a jump to the value theta already has is no change point, so it
        # adds no step: the runs match bit for bit, not just to rounding
        grid = [0.0, 0.5, 1.0]
        a = joint_simulate(self_consistent_scenario(GBM, 0.3), grid, self.CFG)
        c = joint_simulate(step_vol_scenario(GBM, 0.3, 0.37, 0.0), grid, self.CFG)
        assert np.array_equal(c.states, a.states)
        assert c.steps == a.steps == 2

    def test_degenerate_meanrev_is_bitwise_constant_vol(self):
        grid = [0.0, 0.5, 1.0]
        a = joint_simulate(self_consistent_scenario(GBM, 0.3), grid, self.CFG)
        d = joint_simulate(
            meanrev_vol_scenario(GBM, 0.3, rate=2.0, level=0.3, vol_of_vol=0.0),
            grid,
            self.CFG,
        )
        assert np.all(d.theta == 0.3)
        assert np.array_equal(d.states, a.states)

    def test_jump_applies_from_jump_time(self):
        scn = step_vol_scenario(GBM, 0.3, 0.5, 0.3)
        ens = joint_simulate(scn, [0.0, 0.25, 0.5, 1.0], self.CFG)
        assert np.all(ens.theta[:, 0] == 0.3)
        assert np.all(ens.theta[:, 1] == 0.3)
        assert np.all(ens.theta[:, 2] == 0.6)
        base = joint_simulate(self_consistent_scenario(GBM, 0.3), [0.0, 0.25, 0.5, 1.0], self.CFG)
        assert np.array_equal(ens.states[:, :3], base.states[:, :3])
        assert not np.array_equal(ens.states[:, 3], base.states[:, 3])

    def test_theta_that_does_not_move_is_one_read_only_row(self):
        proc = step_vol_scenario(GBM, 0.3, 0.5, 0.3).theta_process
        grid = [0.0, 0.25, 0.5, 1.0]
        cfg = SimConfig(n_paths=2**15, dt=0.01, seed=7, block_size=2**11)

        def peak(theta):
            tracemalloc.start()
            try:
                ens = step_paths(GBM, theta, 1.0, 0.0, grid, cfg)
                return ens, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        ens, with_theta = peak(proc)
        _, without = peak(0.3)
        assert not ens.theta.flags.writeable
        assert ens.theta.shape == ens.states.shape
        for j, t in enumerate(grid):
            assert np.all(ens.theta[:, j] == proc.deterministic_value(t))
        # no paths-by-times matrix: an n x 4 one would add 4 * 8n bytes
        assert with_theta - without < 8 * cfg.n_paths

    def test_worker_count_never_changes_results(self, monkeypatch):
        scn = meanrev_vol_scenario(GBM, 0.3, 2.0, 0.4, 0.5, correlation=-0.5)
        cfg = SimConfig(n_paths=40000, dt=0.01, seed=7)
        monkeypatch.setenv(WORKERS_ENV_VAR, "1")
        a = joint_simulate(scn, [0.0, 1.0], cfg)
        monkeypatch.setenv(WORKERS_ENV_VAR, "8")
        b = joint_simulate(scn, [0.0, 1.0], cfg)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.theta, b.theta)

    def test_state_stays_a_martingale(self):
        ens = joint_simulate(self_consistent_scenario(GBM, 0.3), [0.0, 1.0], self.CFG)
        s1 = ens.states[:, -1]
        se = s1.std(ddof=1) / math.sqrt(s1.size)
        assert abs(s1.mean() - 1.0) < 3.5 * se

    def test_meanrev_matches_discrete_ou_moments(self):
        # the Euler recursion theta' = theta(1-k dt) + k level dt + noise has
        # closed-form mean and variance; test against those, not the SDE's,
        # so no discretization tolerance has to be invented
        rate, level, nu, t = 2.0, 0.4, 0.5, 1.0
        cfg = SimConfig(n_paths=60000, dt=0.01, seed=19)
        ens = joint_simulate(meanrev_vol_scenario(GBM, 0.3, rate, level, nu), [0.0, t], cfg)
        n_steps = 100
        dt = t / n_steps
        decay = (1.0 - rate * dt) ** n_steps
        mean_exact = level + (0.3 - level) * decay
        r = 1.0 - rate * dt
        var_exact = nu * nu * dt * (1.0 - r ** (2 * n_steps)) / (1.0 - r * r)
        th = ens.theta[:, -1]
        se_mean = th.std(ddof=1) / math.sqrt(th.size)
        assert abs(th.mean() - mean_exact) < 3.5 * se_mean
        se_var = th.var(ddof=1) * math.sqrt(2.0 / (th.size - 1))
        assert abs(th.var(ddof=1) - var_exact) < 4.0 * se_var

    def test_correlation_sign_carries_to_states(self):
        grid = [0.0, 1.0]
        cfg = SimConfig(n_paths=20000, dt=0.01, seed=31)
        up = joint_simulate(meanrev_vol_scenario(GBM, 0.3, 1.0, 0.3, 0.4, 0.8), grid, cfg)
        dn = joint_simulate(meanrev_vol_scenario(GBM, 0.3, 1.0, 0.3, 0.4, -0.8), grid, cfg)
        c_up = np.corrcoef(np.log(up.states[:, -1]), up.theta[:, -1])[0, 1]
        c_dn = np.corrcoef(np.log(dn.states[:, -1]), dn.theta[:, -1])[0, 1]
        assert c_up > 0.1
        assert c_dn < -0.1

    def test_absorbing_reference_freezes_at_boundary(self):
        bes = builtin_model("bessel0", z0=0.2)
        ens = joint_simulate(
            self_consistent_scenario(bes, 1.0), [0.0, 1.0], SimConfig(n_paths=5000, dt=0.002, seed=3)
        )
        hit = np.isfinite(ens.absorbed_at)
        assert np.all(ens.states[hit, -1] == 0.0)
        frac = hit.mean()
        p = math.exp(-2.0 * 0.2 / 1.0)
        assert abs(frac - p) < 4.0 * math.sqrt(p * (1.0 - p) / 5000)

    @pytest.mark.parametrize(
        "name,z0,sigma", [("gbm", 1.0, 0.3), ("bessel0", 0.3, 0.9), ("logdiff", 0.5, 0.6)]
    )
    def test_self_consistent_state_is_simulate_bit_for_bit(self, name, z0, sigma):
        # one stepping kernel: a constant theta steps the state exactly as
        # simulate steps the reference (bessel0 from 0.3 at sigma = 0.9
        # absorbs about half its paths by t = 1, so the clamp is exercised)
        m = builtin_model(name, z0=z0)
        grid = [0.0, 0.3, 1.0]
        cfg = SimConfig(n_paths=3000, dt=0.01, seed=23, block_size=1024)
        ens = simulate(m, sigma, m.z0, 0.0, grid, cfg)
        joint = joint_simulate(self_consistent_scenario(m, sigma), grid, cfg)
        assert np.array_equal(ens.states, joint.states)
        assert np.array_equal(ens.absorbed_at, joint.absorbed_at, equal_nan=True)

    @pytest.mark.parametrize("model", [GBM, BESSEL], ids=["gbm", "bessel0"])
    def test_steps_end_only_where_theta_changes(self, model):
        grid = [0.0, 0.5, 1.0]

        def steps(scn):
            return joint_simulate(scn, grid, self.CFG).steps

        assert steps(self_consistent_scenario(model, 0.3)) == 2
        assert steps(step_vol_scenario(model, 0.3, 0.37, 0.0)) == 2
        assert steps(step_vol_scenario(model, 0.3, 0.37, 0.1)) == 3
        # a theta that cannot move steps as a constant one
        assert steps(meanrev_vol_scenario(model, 0.3, 2.0, 0.3, 0.0)) == 2
        assert steps(meanrev_vol_scenario(model, 0.3, 0.0, 0.5, 0.0)) == 2
        # a moving theta takes dt substeps
        assert steps(meanrev_vol_scenario(model, 0.3, 2.0, 0.4, 0.0)) == 100
        assert steps(meanrev_vol_scenario(model, 0.3, 0.0, 0.3, 0.2)) == 100

    def test_moving_theta_draw_schedule_is_kept(self):
        # a moving theta and its state step on dt substeps as they always
        # have: per substep one normal for S, then one for theta from its
        # own substream, correlated through the S-draw; S steps at |theta|
        rate, level, nu, rho, dt, n = 2.0, 0.4, 0.5, -0.5, 0.01, 3000
        scn = meanrev_vol_scenario(GBM, 0.3, rate, level, nu, correlation=rho)
        ens = joint_simulate(scn, [0.0, 0.5], SimConfig(n_paths=n, dt=dt, seed=29))
        rng, theta_rng = rng_substream(29, 0), rng_substream(29, 0, 1)
        rho_c = math.sqrt(1.0 - rho * rho)
        z, th, vol = np.ones(n), np.full(n, 0.3), 0.3
        fine = np.append(0.5 * np.arange(50) / 50, 0.5)
        for lo, hi in zip(fine[:-1], fine[1:]):
            step = hi - lo
            xi = rng.standard_normal(n)
            z = GBM.law.step(z, vol * vol * step, xi)
            corr = rho * xi + rho_c * theta_rng.standard_normal(n)
            th = th + rate * (level - th) * step + nu * math.sqrt(step) * corr
            vol = np.abs(th)
        assert ens.steps == 50
        assert np.array_equal(ens.states[:, -1], z)
        assert np.array_equal(ens.theta[:, -1], th)

    def test_grid_validation(self):
        scn = self_consistent_scenario(GBM, 0.3)
        with pytest.raises(DomainError):
            joint_simulate(scn, [0.5, 1.0], self.CFG)
        with pytest.raises(DomainError):
            joint_simulate(scn, [0.0, 1.0, 0.5], self.CFG)
        with pytest.raises(DomainError):
            joint_simulate(scn, [], self.CFG)


class TestGrowthFactor:
    def test_unit_example(self):
        assert n_value(0.0, 1.0, 0.2, 1.0, GBM) == pytest.approx(math.exp(0.04), rel=1e-15, abs=0.0)

    def test_zero_interval_and_zero_vol(self):
        assert n_value(1.0, 1.0, 0.7, 2.0, GBM) == float(GBM.phi(2.0))
        assert n_value(0.0, 5.0, 0.0, 2.0, GBM) == float(GBM.phi(2.0))

    def test_broadcasts(self):
        out = n_value(0.0, 1.0, np.array([0.0, 0.2]), np.array([2.0, 1.0]), GBM)
        assert out.shape == (2,)
        assert out[0] == 4.0
        assert out[1] == pytest.approx(math.exp(0.04), rel=1e-15, abs=0.0)

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            n_value(1.0, 0.5, 0.2, 1.0, GBM)
        with pytest.raises(DomainError):
            n_value(0.0, 1.0, 0.2, -1.0, GBM)
        logd = builtin_model("logdiff")
        with pytest.raises(DomainError):
            n_value(0.0, 1.0, 0.2, 1.5, logd)


class TestTailTerm:
    def test_quadrature_matches_oracle(self):
        for theta, s, k_m in ((0.2, 1.0, 2.0), (0.5, 0.7, 1.0), (1.0, 2.5, 2.0)):
            got = float(_g_batch(GBM, np.array([theta]), np.array([s]), 0.0, 1.0, k_m)[0])
            want = lognormal_phi_hat_oracle(s, k_m, theta * theta, GBM.phi)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-14)

    def test_batch_route_matches_scalar_route(self):
        thetas = np.array([0.2, 0.5, 0.35, 1.0, 0.05])
        states = np.array([1.0, 0.7, 1.4, 2.5, 0.9])
        batch = _g_batch(GBM, thetas, states, 0.0, 1.0, 2.0)
        for i in range(thetas.size):
            scalar = lognormal_phi_hat_oracle(float(states[i]), 2.0, float(thetas[i] * thetas[i]), GBM.phi)
            assert batch[i] == pytest.approx(scalar, rel=1e-9, abs=1e-12)

    def test_deep_in_the_money_small_variance(self):
        # the tail starts ~490 standard deviations below the bulk here, a
        # window no fixed-node rule from w_k resolves (160 nodes: 0.25% low)
        want = lognormal_phi_hat_oracle(4.0, 1.5, 0.002 * 0.002, GBM.phi)
        assert want == pytest.approx(13.750064000128, rel=1e-12)
        got = _g_batch(GBM, np.array([0.002]), np.array([4.0]), 0.0, 1.0, 1.5)
        assert float(got[0]) == pytest.approx(want, rel=1e-10)

    def test_cutoff_above_support_is_exactly_zero(self):
        for model in (GBM, INV):
            assert _g_batch(model, np.array([0.2]), np.array([1.0]), 0.0, 1.0, 1e9)[0] == 0.0

    def test_zero_vol_is_the_clipped_value(self):
        # phi(3) - phi(2) = 9 - 4 with the state above the cutoff, 0 below it
        got = _g_batch(GBM, np.zeros(2), np.array([3.0, 1.5]), 0.0, 1.0, 2.0)
        assert got.tolist() == [5.0, 0.0]

    def test_decreasing_phi_gives_negative_tail(self):
        cfg = SimConfig(n_paths=2000, dt=0.01, seed=17)
        mean, se = tail_mc_oracle(BESSEL, 0.5, 1.0, 1.0, 1.5, cfg)
        assert mean < 0.0
        assert se > 0.0
        assert _g_batch(BESSEL, np.array([0.5]), np.array([1.0]), 0.0, 1.0, 1.5)[0] < 0.0

    def test_model_without_a_law_is_refused(self):
        # G is closed form or quadrature against the law; there is no
        # Monte Carlo fallback to take instead
        bare = dataclasses.replace(BESSEL, name="bare", law=None)
        with pytest.raises(ConfigurationError, match="'bare' has no transition law"):
            _g_batch(bare, np.array([0.5]), np.array([1.0]), 0.0, 1.0, 1.5)
        with pytest.raises(ConfigurationError, match="'bare'"):
            tail_route(bare)
        scn = self_consistent_scenario(bare, 0.5)
        with pytest.raises(ConfigurationError, match="'bare'"):
            check_bound(scn, MATS, KS3, 0.5, SimConfig(n_paths=64, dt=0.01, seed=1))

    # (theta, s, T, k_max): bulk below, at, and far above the cutoff, and
    # vols at which most of the mass is absorbed at 0
    BESQ_TAIL_CASES = [
        (0.2, 1.0, 1.0, 2.0), (0.5, 0.7, 1.0, 1.0), (1.0, 1.0, 1.0, 1.5),
        (1.0, 2.5, 2.0, 2.0), (0.3, 3.0, 0.5, 2.0), (2.0, 0.3, 1.0, 0.5),
        (0.1, 1.9, 1.0, 2.0), (1.5, 0.05, 2.5, 2.0),
    ]

    @pytest.mark.parametrize("theta,s,T,k_m", BESQ_TAIL_CASES)
    def test_bessel_law_matches_oracle(self, theta, s, T, k_m):
        got = _g_batch(BESSEL, np.array([theta]), np.array([s]), 0.0, T, k_m)
        want = besq0_phi_hat_oracle(s, k_m, theta * theta * T, BESSEL.phi)
        assert float(got[0]) == pytest.approx(want, rel=1e-10, abs=1e-14)

    def test_bessel_law_matches_inner_mc_under_absorption(self):
        # sigma = 1 from s = 1: exp(-2) of the mass sits in the atom at 0
        cfg = SimConfig(n_paths=40000, dt=0.002, seed=5)
        mean, se = tail_mc_oracle(BESSEL, 1.0, 1.0, 1.0, 0.5, cfg)
        got = _g_batch(BESSEL, np.array([1.0]), np.array([1.0]), 0.0, 1.0, 0.5)
        assert abs(mean - float(got[0])) < 3.5 * se

    # besides the oracle cases: sigma = 1, where a third of the mass or more
    # sits in the atom, and small variance, theta^2 T <= 1e-4
    EDGE_CASES = [(1.0, 0.5, 1.0, 0.3), (1.0, 0.5, 1.0, 0.9), (0.01, 1.0, 1.0, 0.3),
                  (0.01, 0.5, 1.0, 0.9), (0.005, 0.5, 2.0, 0.4999)]

    @staticmethod
    def _converged(model, law_cls, cases):
        class Finer(law_cls):
            nodes = 128

        finer = dataclasses.replace(model, law=Finer())
        for theta, s, T, k_m in cases:
            s_v = np.array([s]), np.array([theta * theta * T])
            a = model.law.tail(model.phi, *s_v, k_m)
            b = finer.law.tail(finer.phi, *s_v, k_m)
            assert b[0] == pytest.approx(a[0], rel=1e-12)

    def test_bessel_law_converged_in_nodes(self):
        cases = self.BESQ_TAIL_CASES + [(0.05, 20.0, 0.5, 0.5)] + self.EDGE_CASES
        self._converged(BESSEL, SquaredBesselLaw, cases)

    def test_lognormal_law_converged_in_nodes(self):
        cases = [(0.5, 1.0, 1.0, 1.5), (1.0, 2.5, 2.0, 2.0), (0.2, 1.0, 1.0, 2.0),
                 (0.002, 4.0, 1.0, 1.5)] + self.EDGE_CASES
        self._converged(INV, LognormalLaw, cases)

    @pytest.mark.parametrize("k_m", [0.3, 0.9, 1.0, 1.5])
    def test_logdiff_law_converged_in_nodes(self, k_m):
        cases = [(theta, s, 1.0, k_m) for theta in (1.0, 0.3, 0.01) for s in (0.5, 0.95)]
        self._converged(LOGDIFF, LogBesselLaw, cases)

    def test_route_names_its_budget(self):
        assert tail_route(GBM) == {"route": "closed-form"}
        for model in (BESSEL, LOGDIFF):
            assert tail_route(model) == {"route": "quadrature", "nodes": 48, "window": 8.0}
        assert tail_route(INV) == {"route": "quadrature", "nodes": 64, "window": 16.0}

    def test_route_budget_is_the_rule_tail_rule_runs(self):
        # a cutoff far below the bulk clips nothing, so each row's interval
        # reaches window sd either side of the bulk's centre, in the
        # variable the rule runs in: r = sqrt(Z_T) for bessel0, the root of
        # the squared Bessel draw for logdiff, W for the lognormal law
        v = np.array([0.01, 0.5, 1.0])
        for model, s, sd in (
            (BESSEL, np.array([20.0, 30.0, 40.0]), 0.5 * np.sqrt(v)),
            (LOGDIFF, np.array([1e-6, 1e-20, 1e-30]), 0.5 * np.sqrt(-2.0 * np.expm1(-v))),
            (INV, np.array([1.0, 2.0, 0.5]), np.ones(3)),
        ):
            route = tail_route(model)
            x, dens, half = model.law.tail_rule(s, v, 1e-300)
            assert x.shape == dens.shape == (s.size, route["nodes"])
            assert model.law.weights.shape == (route["nodes"],)
            np.testing.assert_allclose(half / sd, route["window"], rtol=1e-14)

    @pytest.mark.parametrize("model", [BESSEL, LOGDIFF], ids=["bessel0", "logdiff"])
    def test_tail_budget_is_no_worse_than_the_wide_rule(self, model):
        # 3000 seeded cases, 30 (theta, s) pairs at each of 100 (T, k_max),
        # against a 256-node rule reaching 16 sd: the law's budget is nowhere
        # worse than a 64-node rule reaching 16 sd. Errors are scaled by
        # phi(k_max), which bounds |G| for a decreasing phi
        def rule(nodes, window):
            law = type("Rule", (type(model.law),), {"nodes": nodes, "window": window})()
            return dataclasses.replace(model, law=law)

        reference, wide = rule(256, 16.0), rule(64, 16.0)
        rng = np.random.default_rng(1)
        worst = {"law": 0.0, "wide": 0.0}
        for _ in range(100):
            theta = np.exp(rng.uniform(math.log(0.01), math.log(3.0), 30))
            T = rng.uniform(0.05, 3.0)
            if model is BESSEL:
                s = np.exp(rng.uniform(math.log(0.01), math.log(30.0), 30))
                k_m = math.exp(rng.uniform(math.log(1e-3), math.log(30.0)))
            else:
                s = rng.uniform(0.01, 0.99, 30)
                k_m = rng.uniform(1e-3, 0.999)
            want = reference.law.tail(model.phi, s, theta * theta * T, k_m)
            for name, m in (("law", model), ("wide", wide)):
                err = np.abs(m.law.tail(model.phi, s, theta * theta * T, k_m) - want).max()
                worst[name] = max(worst[name], err / float(model.phi(k_m)))
        assert worst["law"] <= worst["wide"]
        assert worst["wide"] < 1e-10

    # (theta, s, T, k_max) for logdiff: sigma = 1 with a third of the mass at
    # Z = 1, a cutoff near 1, small variance and a state near either end
    LOGDIFF_TAIL_CASES = [
        (1.0, 0.5, 1.0, 0.3), (1.0, 0.5, 1.0, 0.9), (0.3, 0.5, 1.0, 0.3), (0.1, 0.9, 1.0, 0.5),
        (2.0, 0.2, 1.0, 0.5), (0.01, 0.5, 1.0, 0.3), (0.5, 0.99, 1.0, 0.995), (0.6, 0.05, 2.0, 0.2),
    ]

    @pytest.mark.parametrize("theta,s,T,k_m", LOGDIFF_TAIL_CASES)
    def test_logdiff_law_matches_oracle(self, theta, s, T, k_m):
        got = _g_batch(LOGDIFF, np.array([theta]), np.array([s]), 0.0, T, k_m)
        want = logbesq0_phi_hat_oracle(s, k_m, theta * theta * T, LOGDIFF.phi)
        assert float(got[0]) == pytest.approx(want, rel=1e-10, abs=1e-14)

    def test_logdiff_law_matches_euler_oracle(self):
        # the Monte Carlo tail on logdiff without its law (Euler, dt 1e-3)
        cfg = SimConfig(n_paths=20000, dt=1e-3, seed=61)
        mean, se = tail_mc_oracle(dataclasses.replace(LOGDIFF, law=None), 1.0, 0.5, 1.0, 0.3, cfg)
        got = _g_batch(LOGDIFF, np.array([1.0]), np.array([0.5]), 0.0, 1.0, 0.3)
        assert abs(mean - float(got[0])) < 3.5 * se

    def test_logdiff_cutoff_at_or_above_one_is_exactly_zero(self):
        thetas, states = np.array([0.0, 0.3, 1.0, 2.0]), np.array([0.5, 0.5, 0.99, 1e-3])
        for k_m in (1.0, 1.5):
            assert np.all(_g_batch(LOGDIFF, thetas, states, 0.0, 1.0, k_m) == 0.0)

    @pytest.mark.parametrize("model,k_m", [(BESSEL, 0.5), (LOGDIFF, 0.3)])
    def test_blocks_and_workers_never_change_results(self, model, k_m, monkeypatch):
        # three or more row blocks at sigma = 1, where much of the mass sits
        # in the atom, with rows already held at the boundary and rows with
        # no variance left; eight workers with a short switch interval stress
        # the blocks' disjoint writes into one output
        n = 2 * model.law.tail_rows + 3617
        rng = np.random.default_rng(3)
        states = rng.uniform(0.05, 0.95, n) if model is LOGDIFF else rng.uniform(0.0, 3.0, n)
        states[::101] = model.beta.lower
        thetas = np.ones(n)
        thetas[::89] = 0.0
        monkeypatch.setenv(WORKERS_ENV_VAR, "1")
        one = _g_batch(model, thetas, states, 0.0, 1.0, k_m)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (2, 8):
                monkeypatch.setenv(WORKERS_ENV_VAR, str(workers))
                many = _g_batch(model, thetas, states, 0.0, 1.0, k_m)
                assert many.tobytes() == one.tobytes()
        finally:
            sys.setswitchinterval(interval)
        rows = np.arange(0, n, 7)
        single = [_g_batch(model, thetas[i : i + 1], states[i : i + 1], 0.0, 1.0, k_m)[0]
                  for i in rows]
        assert np.array(single).tobytes() == one[rows].tobytes()

    def test_paths_at_the_boundary_keep_their_clipped_value(self):
        got = BESSEL.law.tail(BESSEL.phi, np.array([0.0, 1.0]), np.array([0.25, 0.25]), 1.5)
        assert got[0] == 0.0
        assert got[1] < 0.0


class TestStrikeBand:
    def test_zero_vol_below_first_strike(self):
        # intrinsic prices: C(K) = (s-K)^+ with s = 0.5 < K1 = 1, so on the
        # first band (C(K)-C(0))*phi'' = -2 min(K, s) and the band integral
        # is -(s^2) - 2s(K1-s) = s^2 - 2 s K1 = -0.75; the second band has
        # C constant at 0, contributing nothing
        got = l_value(0.0, 1.0, 0.0, 0.5, KS3, GBM)
        assert got == pytest.approx(-0.75, abs=1e-10)

    def test_zero_vol_above_all_strikes(self):
        # C(K) = s - K exactly: each band integrates 2(K_j - K) to -dK^2
        got = l_value(0.0, 1.0, 0.0, 5.0, KS3, GBM)
        assert got == pytest.approx(-2.0, abs=1e-10)

    def test_near_degenerate_variance_settles(self):
        # tiny positive vol smooths the intrinsic kink at K = s into a
        # boundary layer far narrower than any fixed panel; the quadrature
        # must still settle and stay within a whisker of the exact-kink value
        exact = l_value(0.0, 1.0, 0.0, 1.2, KS3, GBM)
        for theta in (1e-3, 1e-6, 1e-9):
            got = l_value(0.0, 1.0, theta, 1.2, KS3, GBM)
            assert got == pytest.approx(exact, abs=1e-4)
            assert got <= 1e-10

    @pytest.mark.parametrize("theta,s", [(0.2, 1.0), (0.5, 0.6), (0.35, 1.2), (1.0, 2.0)])
    def test_stays_in_band(self, theta, s):
        ks = np.asarray(KS3.strikes)
        d = np.asarray(GBM.phi.deriv1(ks))
        band = float(np.sum(np.diff(ks) * np.diff(d)))
        got = l_value(0.0, 1.0, theta, s, KS3, GBM)
        assert -band - 1e-9 <= got <= 1e-9

    @pytest.mark.parametrize("t", [0.0, 0.25, 0.5])
    def test_closed_form_matches_band_rule(self, t):
        # the acceptance suite's decomposition cases, through the strike-band
        # rule the decomposition oracle uses for H, on closed-form prices
        theta, s, T = 0.3, 1.0, 1.0
        v = theta * theta * (T - t)

        def prices(k):
            return _bs_call_core(s, k, v)

        want = band_integral_oracle(prices, GBM.phi, KS5)
        got = l_value(t, T, theta, s, KS5, GBM)
        assert got == pytest.approx(want, rel=0.0, abs=1e-13)

    def test_vectorized_matches_scalar(self):
        thetas = np.array([0.0, 0.2, 0.35, 1.0])
        states = np.array([1.2, 0.6, 1.2, 2.0])
        got = l_value(0.0, 1.0, thetas, states, KS5, GBM)
        assert isinstance(got, np.ndarray) and got.shape == (4,)
        for i in range(4):
            want = l_value(0.0, 1.0, float(thetas[i]), float(states[i]), KS5, GBM)
            assert isinstance(want, float)
            assert got[i] == pytest.approx(want, rel=1e-14, abs=1e-300)

    def test_vanishing_first_strike_drops_out(self):
        tiny = l_value(0.0, 1.0, 0.2, 1.0, StrikeGrid(strikes=(0.0, 1e-6, 2.0)), GBM)
        coarse = l_value(0.0, 1.0, 0.2, 1.0, StrikeGrid(strikes=(0.0, 2.0)), GBM)
        assert tiny == pytest.approx(coarse, abs=1e-4)

    @pytest.mark.parametrize("theta,s,strikes", [
        (0.3, 1.0, (0.0, 0.5, 1.0, 1.5, 2.0)),
        (0.8, 0.6, (0.0, 0.25, 1.2)),
        (0.15, 1.7, (0.0, 1.0, 1.6, 1.9, 3.0)),
    ])
    def test_band_payoff_integrates_to_the_closed_form(self, theta, s, strikes):
        # the pathwise band payoff, integrated against the lognormal law by
        # adaptive quadrature split at its kinks (the strikes)
        from scipy.integrate import quad

        ks = StrikeGrid(strikes=strikes)

        def integrand(w):
            x = s * math.exp(-0.5 * theta * theta + theta * w)
            return float(band_payoff(GBM.phi, ks, np.array([x]))[0]) * norm_pdf(w)

        kinks = [(math.log(k / s) + 0.5 * theta * theta) / theta for k in strikes[1:]]
        got = quad(integrand, -40.0, 40.0, points=kinks, epsabs=0.0, epsrel=1e-13, limit=500)[0]
        assert got == pytest.approx(l_value(0.0, 1.0, theta, s, ks, GBM), rel=1e-12)

    def test_band_payoff_is_nonpositive_on_every_path(self):
        # convexity holds each band's payoff at or below 0 on every path,
        # absorbed paths (z = 0, where bessel0's phi' diverges) included
        ens = simulate(BESSEL, 1.0, 1.0, 0.0, [0.0, 1.0], SimConfig(n_paths=20000, dt=0.01, seed=41))
        z = ens.states[:, -1]
        assert np.any(z == 0.0)
        got = band_payoff(BESSEL.phi, StrikeGrid(strikes=(0.0, 0.25, 0.75, 1.5, 3.0)), z)
        assert got.shape == z.shape and np.all(got <= 0.0)

    def test_validation(self):
        with pytest.raises(DomainError):
            l_value(0.0, 1.0, -0.1, 1.0, KS3, GBM)
        with pytest.raises(DomainError):
            l_value(1.0, 0.5, 0.2, 1.0, KS3, GBM)
        # L is closed form only: a law other than the lognormal, or a phi
        # without constant curvature (INV's is infinite at zero strike), is
        # refused by name
        for model in (BESSEL, LOGDIFF, INV):
            with pytest.raises(ConfigurationError, match=f"'{model.name}' has no closed-form"):
                l_value(0.0, 1.0, 0.5, 0.5, KS3, model)


# phi(z) = 1/z also solves (1/2) z^2 phi'' = phi on gbm's law, but its
# curvature is not constant, so neither G nor L may take the closed form
INV = dataclasses.replace(GBM, phi=PhiFunction(
    value=lambda z: 1.0 / np.asarray(z, dtype=np.float64),
    deriv1=lambda z: -1.0 / np.square(np.asarray(z, dtype=np.float64)),
    deriv2=lambda z: 2.0 / np.asarray(z, dtype=np.float64) ** 3,
))


class TestClosedFormGate:
    def test_tail_term_of_non_quadratic_phi_falls_back(self):
        # to quadrature against the lognormal law: deterministic, no se
        assert tail_route(INV)["route"] == "quadrature"
        cases = [(0.5, 1.0, 1.0, 1.5), (1.0, 1.0, 1.0, 0.5), (0.2, 1.0, 1.0, 2.0),
                 (1.0, 2.5, 2.0, 2.0), (0.01, 1.0, 1.0, 0.99), (0.002, 4.0, 1.0, 1.5)]
        for theta, s, T, k_m in cases:
            got = _g_batch(INV, np.array([theta]), np.array([s]), 0.0, T, k_m)
            want = lognormal_phi_hat_oracle(s, k_m, theta * theta * T, INV.phi)
            assert float(got[0]) == pytest.approx(want, rel=1e-9, abs=1e-14)

    def test_scaling_keeps_the_route_and_scales_exactly(self):
        gbm2 = dataclasses.replace(GBM, phi=GBM.phi.scaled(2.0))
        assert tail_route(gbm2) == {"route": "closed-form"}
        inv2 = dataclasses.replace(INV, phi=INV.phi.scaled(2.0))
        assert tail_route(inv2)["route"] == "quadrature"
        thetas = np.array([0.0, 0.002, 0.2, 0.5, 1.0])
        states = np.array([1.2, 4.0, 0.7, 1.0, 2.5])
        g1 = _g_batch(GBM, thetas, states, 0.0, 1.0, 1.5)
        g2 = _g_batch(gbm2, thetas, states, 0.0, 1.0, 1.5)
        assert np.array_equal(g2, 2.0 * g1)
        l1 = l_value(0.0, 1.0, thetas, states, KS5, GBM)
        l2 = l_value(0.0, 1.0, thetas, states, KS5, gbm2)
        assert np.array_equal(l2, 2.0 * l1)


class TestRightSide:
    def test_three_strike_pattern(self):
        # phi = z^2 on strikes (0,1,2): inner sum = 1*2 + 1*2 = 4, and the
        # pinned coefficients sum to (x0+1)^2 in absolute value
        x0 = pin_point(0.2, 1.0)
        qp = build_q((0.0, 1.0, 2.0), x0, 2)
        got = rhs_bound(qp.coeffs, KS3, GBM.phi)
        assert got == pytest.approx(8.0 * (x0 + 1.0) ** 2, rel=1e-12)

    def test_five_strike_pattern(self):
        # halving the spacing halves the inner sum: 4 bands of 0.5*1 = 2
        x0 = pin_point(0.2, 1.0)
        qp = build_q((0.0, 1.0, 2.0), x0, 2)
        got = rhs_bound(qp.coeffs, KS5, GBM.phi)
        assert got == pytest.approx(4.0 * (x0 + 1.0) ** 2, rel=1e-12)

    def test_refinement_never_increases(self):
        x0 = pin_point(0.3, 1.0)
        qp = build_q((0.0, 1.0, 2.0), x0, 2)
        rng = np.random.default_rng(5)
        inner = np.sort(rng.uniform(0.1, 2.9, 6))
        coarse = StrikeGrid(strikes=(0.0, *inner, 3.0))
        mids = 0.5 * (np.asarray(coarse.strikes[:-1]) + np.asarray(coarse.strikes[1:]))
        fine = StrikeGrid(strikes=tuple(sorted((*coarse.strikes, *mids))))
        assert rhs_bound(qp.coeffs, fine, GBM.phi) <= rhs_bound(qp.coeffs, coarse, GBM.phi)

    def test_scaling_phi_scales_the_bound(self):
        x0 = pin_point(0.2, 1.0)
        qp = build_q((0.0, 1.0, 2.0), x0, 2)
        base = rhs_bound(qp.coeffs, KS5, GBM.phi)
        doubled = rhs_bound(qp.coeffs, KS5, GBM.phi.scaled(2.0))
        assert doubled == 2.0 * base

    def test_slope_convention_at_zero(self):
        x0 = pin_point(0.5, 0.5)
        qp = build_q((0.0, 1.0, 2.0), x0, 2)
        value, used = _rhs_detail(qp.coeffs, StrikeGrid(strikes=(0.0, 0.75, 1.5)), BESSEL.phi)
        assert used is True
        assert math.isfinite(value) and value > 0.0
        _, used_gbm = _rhs_detail(qp.coeffs, KS3, GBM.phi)
        assert used_gbm is False

    def test_empty_coefficients_rejected(self):
        with pytest.raises(DomainError):
            rhs_bound((), KS3, GBM.phi)


class TestBoundCheck:
    CFG = SimConfig(n_paths=20000, dt=0.01, seed=11)

    def test_self_consistent_holds_with_exact_zero_gap(self):
        rep = check_bound(self_consistent_scenario(GBM, 0.2), MATS, KS5, 0.5, self.CFG)
        assert rep.satisfied
        assert rep.nq_mean == 0.0
        assert rep.nq_se == 0.0
        assert rep.lhs <= 4.0 * rep.lhs_se
        assert abs(rep.g_corr_mean) <= 4.0 * rep.g_corr_se
        assert not rep.phi_prime_convention
        assert rep.n_paths == 20000

    @pytest.mark.parametrize(
        "model,sigma,strikes",
        [
            (GBM, 0.2, KS5),
            (BESSEL, 1.0, KS5),
            (LOGDIFF, 0.2, StrikeGrid(strikes=(0.0, 0.3, 0.6, 0.9))),
            (LOGDIFF, 1.0, StrikeGrid(strikes=(0.0, 0.3, 0.6, 0.9))),
        ],
        ids=["gbm", "bessel0-absorbing", "logdiff", "logdiff-absorbing"],
    )
    def test_self_consistent_left_side_vanishes_in_mean(self, model, sigma, strikes):
        # the identity the exact left side and densification_study rest on:
        # X_t sits at the pin, so the gap term is 0 on every path, and the
        # tail corrections average to 0 by the Markov property, also where
        # paths absorb (bessel0 at sigma 1: ~1.8% by t; logdiff: 17%) and
        # where G does not vanish
        scn = self_consistent_scenario(model, sigma)
        nq, g_corr = per_path_left_side(
            scn, MATS, strikes, 0.5, SimConfig(n_paths=20000, dt=0.01, seed=1)
        )
        assert np.all(nq == 0.0)
        g_corr_mean, g_corr_se = sample_mean(g_corr)
        assert g_corr_se > 0.0
        assert abs(g_corr_mean) <= 3.0 * g_corr_se

    #: (model, strikes) with G != 0: logdiff's grid ends below its atom at 1
    LEFT_SIDE_MODELS = [(GBM, KS5), (BESSEL, KS5), (LOGDIFF, StrikeGrid(strikes=(0.0, 0.3, 0.6, 0.9)))]

    @pytest.mark.parametrize("model,strikes", LEFT_SIDE_MODELS, ids=["gbm", "bessel0", "logdiff"])
    @pytest.mark.parametrize(
        "sigma,jump_time,jump",
        [(0.2, 0.25, 0.3), (0.2, 0.25, -0.1), (1.0, 0.25, 0.5), (1.0, 0.25, -0.5),
         (0.2, 0.5, 0.3), (1.0, 0.5, -0.5)],
        ids=["up", "down", "up-absorbing", "down-absorbing", "up-at-t", "down-absorbing-at-t"],
    )
    def test_exact_left_side_matches_the_per_path_estimator(
        self, model, strikes, sigma, jump_time, jump
    ):
        # a step theta that jumps before t: S_t has the law at the variance
        # accrued over both levels, and each part of the exact left side
        # sits within 4 se of the per-path mean (at sigma 1 the law absorbs
        # 0.2% to 8.5% of bessel0's mass by t and 7.6% to 29% of logdiff's;
        # seeds 7 to 11 give |z| <= 2.8 in every case). A jump at t itself
        # leaves S_t at the old level's variance and sets theta_t, and so the
        # variance from t to each maturity, to the new one.
        scn = step_vol_scenario(model, sigma, jump_time, jump)
        cfg = SimConfig(n_paths=100_000, dt=0.01, seed=7)
        rep = check_bound(scn, MATS, strikes, 0.5, cfg)
        assert rep.lhs_route == {"route": "exact", "phi_mean": semigroup_route(model)}
        assert rep.lhs_se == rep.nq_se == rep.g_corr_se == 0.0
        assert rep.lhs == abs(rep.nq_mean + rep.g_corr_mean)
        nq, g_corr = per_path_left_side(scn, MATS, strikes, 0.5, cfg)
        for exact, sample in ((rep.nq_mean, nq), (rep.g_corr_mean, g_corr),
                              (rep.nq_mean + rep.g_corr_mean, nq + g_corr)):
            mean, se = sample_mean(sample)
            assert se > 0.0
            assert abs(exact - mean) <= 4.0 * se

    def test_moving_theta_keeps_the_per_path_route(self):
        # a moving theta's left side is the per-path estimator's mean, bit
        # for bit
        scn = meanrev_vol_scenario(BESSEL, 1.0, 2.0, 0.8, 0.4, correlation=-0.5)
        cfg = SimConfig(n_paths=3000, dt=0.01, seed=3)
        rep = check_bound(scn, MATS, KS5, 0.5, cfg)
        nq, g_corr = per_path_left_side(scn, MATS, KS5, 0.5, cfg)
        assert rep.lhs_route == {"route": "monte-carlo", "paths": 3000}
        assert (rep.nq_mean, rep.nq_se) == sample_mean(nq)
        assert (rep.g_corr_mean, rep.g_corr_se) == sample_mean(g_corr)
        lhs, se = sample_mean(nq + g_corr)
        assert (rep.lhs, rep.lhs_se) == (abs(lhs), se)
        assert se > 0.0

    @pytest.mark.parametrize("model,strikes", LEFT_SIDE_MODELS, ids=["gbm", "bessel0", "logdiff"])
    @pytest.mark.parametrize("sigma", [0.2, 1.0])
    def test_self_consistent_left_side_is_exactly_zero(self, model, strikes, sigma):
        # on the README strikes and along the densification schedule, and
        # for any theta that does not move before t
        cfg = SimConfig(n_paths=256, dt=0.01, seed=2)
        for grid in (strikes, *(densify_grid(model, n) for n in (4, 16, 64))):
            reps = [
                check_bound(scn, MATS, grid, 0.5, cfg)
                for scn in (
                    self_consistent_scenario(model, sigma),
                    meanrev_vol_scenario(model, sigma, 2.0, sigma, 0.0),
                )
            ]
            for rep in reps:
                fields = (rep.lhs, rep.lhs_se, rep.nq_mean, rep.nq_se, rep.g_corr_mean,
                          rep.g_corr_se)
                assert [repr(f) for f in fields] == ["0.0"] * 6
            assert repr(reps[0]) == repr(reps[1])

    @pytest.mark.parametrize("model,strikes", LEFT_SIDE_MODELS, ids=["gbm", "bessel0", "logdiff"])
    def test_jumps_after_t_give_the_self_consistent_report(self, model, strikes):
        cfg = SimConfig(n_paths=2000, dt=0.01, seed=5)
        a = check_bound(self_consistent_scenario(model, 0.3), MATS, strikes, 0.5, cfg)
        b = check_bound(
            Scenario(model, ThetaProcess(kind="step", sigma0=0.3, jump_times=(0.75, 0.9),
                                         jump_values=(0.6, 0.1))),
            MATS, strikes, 0.5, cfg,
        )
        assert repr(a) == repr(b)
        assert a.lhs == 0.0

    @pytest.mark.parametrize("model,strikes", LEFT_SIDE_MODELS, ids=["gbm", "bessel0", "logdiff"])
    def test_exact_left_side_costs_one_tail_row_per_maturity(self, model, strikes, monkeypatch):
        # the per-path tail quadrature is the cost the exact route removes:
        # under a theta that does not move each side's tail terms take one
        # call with a row per maturity, and nothing is simulated but the one
        # joint_simulate step; a moving theta still integrates the tail on
        # every path, at every maturity
        rows = {"batch": [], "tail": []}
        g_batch, g_tail = bound_module._g_batch, bound_module._g_tail

        def counted_batch(model, theta, s, *args):
            rows["batch"].append(len(s))
            return g_batch(model, theta, s, *args)

        def counted_tail(model, s, *args):
            rows["tail"].append(len(s))
            return g_tail(model, s, *args)

        def no_simulate(*args, **kwargs):
            raise AssertionError("simulate called")

        monkeypatch.setattr(bound_module, "_g_batch", counted_batch)
        monkeypatch.setattr(bound_module, "_g_tail", counted_tail)
        monkeypatch.setattr(bound_module, "simulate", no_simulate)
        monkeypatch.setattr(models_module, "simulate", no_simulate)
        cfg = SimConfig(n_paths=20000, dt=0.01, seed=4)
        q = len(MATS.times)
        for scn in (self_consistent_scenario(model, 0.5), step_vol_scenario(model, 0.5, 0.25, 0.3)):
            check_bound(scn, MATS, strikes, 0.5, cfg)
        assert rows["batch"] and rows["tail"]
        assert set(rows["batch"]) == set(rows["tail"]) == {q}
        if model is BESSEL:
            # one call per side: G_t over the q n stacked path rows, and G0
            # over q rows through _g_batch, which reaches _g_tail too
            rows["batch"].clear()
            rows["tail"].clear()
            check_bound(meanrev_vol_scenario(model, 0.5, 2.0, 0.8, 0.4), MATS, strikes, 0.5, cfg)
            assert rows["batch"] == [q]
            assert sorted(rows["tail"]) == [q, q * 20000]

    def test_negative_meanrev_theta_enters_the_band_term_as_its_modulus(self):
        # a mean-reverting theta crosses below 0 on some paths; L reads
        # theta^2 only, so check_bound hands l_value |theta_t|
        scn = meanrev_vol_scenario(GBM, 0.2, 2.0, 0.3, 0.4, correlation=-0.5)
        cfg = SimConfig(n_paths=2000, dt=0.01, seed=11)
        theta_t = joint_simulate(scn, [0.0, 0.5], cfg).theta[:, -1]
        negative = theta_t[theta_t < 0.0]
        assert negative.size > 0
        message = f"got {negative.size} negative value(s), the first {negative[0]}"
        with pytest.raises(DomainError, match=re.escape(message) + "$"):
            l_value(0.5, 1.0, theta_t, np.ones_like(theta_t), KS5, GBM)
        rep = check_bound(scn, MATS, KS5, 0.5, cfg)
        assert [d["maturity"] for d in rep.l_diagnostics] == list(MATS.times)
        assert all(math.isfinite(d["lt_mean"]) and d["lt_mean"] <= 0.0 for d in rep.l_diagnostics)

    def test_band_sample_indices_are_distinct_and_in_range(self):
        # no path is sampled twice for L, with no np.unique to drop repeats
        for n in range(1, 5001):
            take = _band_sample(n)
            assert take.size == min(n, L_SAMPLE_PATHS)
            assert take[0] == 0 and take[-1] == n - 1
            assert np.all(np.diff(take) > 0)

    def test_self_consistent_band_diagnostics(self):
        rep = check_bound(self_consistent_scenario(GBM, 0.2), MATS, KS5, 0.5, self.CFG)
        assert len(rep.l_diagnostics) == 3
        for d in rep.l_diagnostics:
            assert d["lt_se"] > 0.0
            z = (d["lt_mean"] - d["l0"]) / d["lt_se"]
            assert abs(z) < 3.5

    def test_deterministic_given_seed(self):
        a = check_bound(self_consistent_scenario(GBM, 0.2), MATS, KS5, 0.5, self.CFG)
        b = check_bound(self_consistent_scenario(GBM, 0.2), MATS, KS5, 0.5, self.CFG)
        assert a == b

    def test_right_side_is_scenario_independent(self):
        # same weights, strikes, vol and eigenfunction: the right side is
        # the same number no matter what generator produced the paths
        reps = [
            check_bound(scn, MATS, KS5, 0.5, self.CFG)
            for scn in (
                self_consistent_scenario(GBM, 0.2),
                step_vol_scenario(GBM, 0.2, 0.75, 0.4),
                meanrev_vol_scenario(GBM, 0.2, 1.5, 0.5, 0.6, -0.7),
            )
        ]
        assert reps[0].rhs == reps[1].rhs == reps[2].rhs
        x0 = pin_point(0.2, 1.0)
        qp = build_q((0.0, 1.0, 2.0), x0, 2)
        assert reps[0].rhs == rhs_bound(qp.coeffs, KS5, GBM.phi)

    def test_jump_before_t_still_holds(self):
        # after the jump the market runs the reference dynamics at theta_t,
        # so the bound's hypothesis is genuinely met from t onward; the gap
        # component turns on because X_t leaves the pin
        rep = check_bound(step_vol_scenario(GBM, 0.2, 0.25, 0.4), MATS, KS5, 0.5, self.CFG)
        assert rep.nq_mean > 0.0
        assert rep.satisfied

    def test_jump_after_t_reads_identically(self):
        # the check only consumes time-t data; a jump beyond t has not
        # happened yet at matched seeds, so the report coincides
        a = check_bound(self_consistent_scenario(GBM, 0.2), MATS, KS5, 0.5, self.CFG)
        b = check_bound(step_vol_scenario(GBM, 0.2, 0.75, 0.4), MATS, KS5, 0.5, self.CFG)
        assert a.lhs == b.lhs
        assert a.rhs == b.rhs

    @pytest.mark.parametrize("model", [GBM, BESSEL], ids=["gbm", "bessel0"])
    @pytest.mark.parametrize("jump_time", [0.25, 0.5, 0.75])
    def test_report_is_that_of_the_history_up_to_t(self, model, jump_time):
        # check_bound reads the market up to t only: the step scenario and
        # its history twin give the same report, bit for bit
        cfg = SimConfig(n_paths=2000, dt=0.01, seed=5)
        scn = step_vol_scenario(model, 0.3, jump_time, 0.2)
        twin = Scenario(model, scn.theta_process.until(0.5))
        a = check_bound(scn, MATS, KS5, 0.5, cfg)
        b = check_bound(twin, MATS, KS5, 0.5, cfg)
        assert a == b
        assert repr(a) == repr(b)

    def test_meanrev_report_is_finite_and_consistent(self):
        rep = check_bound(
            meanrev_vol_scenario(GBM, 0.2, 1.5, 0.5, 0.6, -0.7), MATS, KS5, 0.5, self.CFG
        )
        assert math.isfinite(rep.lhs) and math.isfinite(rep.lhs_se)
        assert rep.nq_mean > 0.0

    def test_scaling_phi_scales_both_sides(self):
        gbm2 = dataclasses.replace(GBM, phi=GBM.phi.scaled(2.0))
        scn1 = step_vol_scenario(GBM, 0.2, 0.25, 0.4)
        scn2 = step_vol_scenario(gbm2, 0.2, 0.25, 0.4)
        a = check_bound(scn1, MATS, KS5, 0.5, self.CFG)
        b = check_bound(scn2, MATS, KS5, 0.5, self.CFG)
        assert b.rhs == 2.0 * a.rhs
        assert b.nq_mean == 2.0 * a.nq_mean
        assert b.g_corr_mean == 2.0 * a.g_corr_mean
        assert b.lhs == pytest.approx(2.0 * a.lhs, rel=1e-14, abs=0.0)

    def test_absorbing_reference_self_consistent(self):
        bes = builtin_model("bessel0")
        mats = MaturityGrid(times=(0.5, 1.0, 1.5))
        ks = StrikeGrid(strikes=(0.0, 0.75, 1.5))
        cfg = SimConfig(n_paths=1024, dt=0.02, seed=23)
        rep = check_bound(self_consistent_scenario(bes, 0.5), mats, ks, 0.25, cfg)
        assert rep.nq_mean == 0.0
        assert rep.satisfied
        assert rep.phi_prime_convention
        assert rep.l_diagnostics == ()
        assert rep.steps == 1

    def test_absorbed_fraction_next_to_the_law(self):
        # from z0 = 0.3 at vol 1 a jump to 1.5 at t = 0.2 absorbs ~31% by t = 0.4
        bes = builtin_model("bessel0", z0=0.3)
        mats = MaturityGrid(times=(0.5, 1.0, 1.5))
        ks = StrikeGrid(strikes=(0.0, 0.75, 1.5))
        cfg = SimConfig(n_paths=4096, dt=0.02, seed=5)
        rep = check_bound(step_vol_scenario(bes, 1.0, 0.2, 0.5), mats, ks, 0.4, cfg)
        assert rep.steps == 2
        mass = math.exp(-2.0 * 0.3 / (1.0 * 0.2 + 1.5**2 * 0.2))
        assert rep.absorbed_mass == pytest.approx(mass, rel=1e-14, abs=0.0)
        assert abs(rep.absorbed_fraction - mass) < 4.0 * math.sqrt(mass * (1.0 - mass) / 4096)
        # a moving theta has no deterministic variance, so no law mass
        moving = meanrev_vol_scenario(bes, 1.0, 1.0, 1.0, 0.3)
        rep = check_bound(moving, mats, ks, 0.4, SimConfig(n_paths=256, dt=0.02, seed=5))
        assert rep.absorbed_mass is None and 0.0 < rep.absorbed_fraction < 1.0

    def test_time_window_validation(self):
        scn = self_consistent_scenario(GBM, 0.2)
        with pytest.raises(DomainError):
            check_bound(scn, MATS, KS5, 1.5, self.CFG)
        with pytest.raises(DomainError):
            check_bound(scn, MATS, KS5, -0.1, self.CFG)

    def test_overflowing_vol_is_reported_not_propagated(self):
        wild = meanrev_vol_scenario(GBM, 0.2, 0.0, 0.2, 4000.0)
        cfg = SimConfig(n_paths=64, dt=0.05, seed=2)
        # the error names the phase, the model and the first offending rows
        named = r"growth factor at t=0\.5 .* model 'gbm'; first \(theta_t, s, v_t\): \("
        with pytest.raises(DivergenceError, match=named):
            check_bound(wild, MATS, KS5, 0.5, cfg)


class TestEveryWeightVector:
    """check_bound's rows are the unit weights Q_j; by linearity in the
    weights no weight vector p >= 0 reads a larger lhs/rhs than the
    sharpest row."""

    @pytest.mark.parametrize(
        "model, strikes",
        [(GBM, KS5), (BESSEL, KS5), (LOGDIFF, StrikeGrid(strikes=(0.0, 0.3, 0.6, 0.9)))],
        ids=["gbm", "bessel0", "logdiff"],
    )
    def test_no_weight_vector_beats_the_sharpest_row(self, model, strikes):
        rng = np.random.default_rng(20261019)
        cfg = SimConfig(n_paths=64, dt=0.01, seed=3)
        t = 0.5
        for _ in range(6):
            q = int(rng.integers(3, 8))
            gaps = rng.uniform(0.25, 1.5, size=q - 1)
            times = tuple(float(rng.uniform(0.75, 1.5)) + np.concatenate([[0.0], np.cumsum(gaps)]))
            mats = MaturityGrid(times=times)
            sigma = float(rng.uniform(0.2, 1.0))
            scn = step_vol_scenario(
                model, sigma, float(rng.uniform(0.05, t)), float(rng.uniform(-0.15, 0.6))
            )
            rep = check_bound(scn, mats, strikes, t, cfg)
            rows = rep.per_weight
            assert rep.lhs_route["route"] == "exact"
            assert [row["maturity"] for row in rows] == list(times[2:])
            ratios = [row["lhs"] / row["rhs"] for row in rows]
            assert rep.lhs / rep.rhs == max(ratios)
            assert rep.satisfied == all(row["satisfied"] for row in rows)
            assert rep.q.coeffs == rows[ratios.index(max(ratios))]["coefficients"]

            alphas = compute_alphas(mats)
            x0 = pin_point(sigma, times[1] - times[0])
            for _ in range(10):
                p = rng.uniform(0.0, 1.0, size=q - 2) * (rng.uniform(size=q - 2) < 0.7)
                if not p.any():
                    continue
                qp = pinned_q_oracle(p, alphas, x0)
                ((_, _, (lhs, _)),) = bound_module._lhs_rows(
                    scn, [qp], times, strikes.k_max, t, bound_module._exact_rows(scn, t, times)
                )
                rhs = rhs_bound(qp.coeffs, strikes, model.phi)
                # the right side is linear in p
                assert rhs == pytest.approx(
                    sum(pj * row["rhs"] for pj, row in zip(p, rows)), rel=1e-14, abs=0.0
                )
                assert abs(lhs) / rhs <= max(ratios) * (1.0 + 1e-12) + 1e-12

    def test_moving_theta_rows_are_the_per_path_estimators(self):
        # five maturities: a row per unit weight, each the per-path mean of
        # its own Q_j, bit for bit
        mats = MaturityGrid(times=(1.0, 1.5, 2.0, 3.0, 4.0))
        scn = meanrev_vol_scenario(GBM, 0.2, 2.0, 0.3, 0.4, correlation=-0.5)
        cfg = SimConfig(n_paths=3000, dt=0.01, seed=3)
        rep = check_bound(scn, mats, KS5, 0.5, cfg)
        assert rep.lhs_route == {"route": "monte-carlo", "paths": 3000}
        for j, row in enumerate(rep.per_weight, start=2):
            nq, g_corr = per_path_left_side(scn, mats, KS5, 0.5, cfg, j)
            lhs, se = sample_mean(nq + g_corr)
            assert (row["lhs"], row["lhs_se"]) == (abs(lhs), se)
            assert row["satisfied"] == (abs(lhs) <= row["rhs"] + 3.0 * se)


class TestMartingaleStructure:
    def test_band_plus_tail_mean_is_time_constant(self):
        # under self-consistency the conditional-payoff side equals band
        # plus tail pathwise and is a martingale, so the ensemble mean of
        # L_t + G_t must match the deterministic L_0 + G_0
        cfg = SimConfig(n_paths=2048, dt=0.01, seed=37)
        ens = joint_simulate(self_consistent_scenario(GBM, 0.25), [0.0, 0.5], cfg)
        take = np.linspace(0, 2047, 96).astype(int)
        th = ens.theta[take, -1]
        sv = ens.states[take, -1]
        for T in (1.0, 2.0):
            l0 = l_value(0.0, T, 0.25, 1.0, KS3, GBM)
            g0 = lognormal_phi_hat_oracle(1.0, KS3.k_max, 0.25 * 0.25 * T, GBM.phi)
            lt = np.array(
                [l_value(0.5, T, float(a), float(b), KS3, GBM) for a, b in zip(th, sv)]
            )
            gt = _g_batch(GBM, th, sv, 0.5, T, KS3.k_max)
            h_t = lt + gt
            se = h_t.std(ddof=1) / math.sqrt(h_t.size)
            assert abs(h_t.mean() - (l0 + g0)) < 3.5 * se

    def test_gap_terms_tie_back_to_band_differences(self):
        # the report's tail correction and its band diagnostics estimate the
        # same quantity through different terms; they must agree within the
        # subsample's noise
        cfg = SimConfig(n_paths=20000, dt=0.01, seed=11)
        rep = check_bound(self_consistent_scenario(GBM, 0.2), MATS, KS5, 0.5, cfg)
        x0 = pin_point(0.2, 1.0)
        qp = build_q((0.0, 1.0, 2.0), x0, 2)
        delta_l = sum(
            c * (d["lt_mean"] - d["l0"]) for c, d in zip(qp.coeffs, rep.l_diagnostics)
        )
        se_l = math.sqrt(
            sum((c * d["lt_se"]) ** 2 for c, d in zip(qp.coeffs, rep.l_diagnostics))
        )
        assert abs(rep.g_corr_mean - delta_l) < 3.5 * math.hypot(se_l, rep.g_corr_se)


class TestRepricingResiduals:
    CFG = SimConfig(n_paths=20000, dt=0.01, seed=11)
    #: a theta that moves, near the reference: its table is taken over paths
    MOVING = meanrev_vol_scenario(GBM, 0.2, 1.0, 0.2, 0.05)

    def test_self_consistent_reprices_cleanly(self):
        scn = self_consistent_scenario(GBM, 0.2)
        (res,) = pricing_residuals([scn], MATS, KS5, 0.5, self.CFG)
        assert res.route == {"route": "exact"}
        assert res.residuals.shape == (3, 5)
        assert res.max_abs_z == 0.0
        assert np.array_equal(res.ses, np.zeros((3, 5)))
        # nothing was simulated, so nothing describes paths
        assert (res.tail_counts, res.calibrated, res.min_tail_count, res.n_paths) == (None,) * 4
        assert res.steps == 0

    @pytest.mark.parametrize(
        "model,strikes",
        [(GBM, KS5), (BESSEL, KS5), (LOGDIFF, StrikeGrid(strikes=(0.0, 0.3, 0.6, 0.9)))],
        ids=["gbm", "bessel0", "logdiff"],
    )
    @pytest.mark.parametrize(
        "theta",
        [
            ThetaProcess(kind="constant", sigma0=0.3),
            ThetaProcess(kind="step", sigma0=0.3, jump_times=(0.75,), jump_values=(0.3,)),
            ThetaProcess(kind="step", sigma0=0.3, jump_times=(0.25,), jump_values=(0.6,)),
            ThetaProcess(kind="step", sigma0=0.3, jump_times=(0.5,), jump_values=(0.1,)),
        ],
        ids=["constant", "zero-jump-after-t", "jump-before-t", "jump-at-t"],
    )
    def test_a_theta_constant_after_t_reads_zero_exactly(self, model, strikes, theta):
        # both prices of a cell accrue the same variance over the same
        # intervals, so they are the same float
        (res,) = pricing_residuals([Scenario(model, theta)], MATS, strikes, 0.5, self.CFG)
        assert np.all(res.residuals == 0.0) and not np.any(np.signbit(res.residuals))
        assert np.all(res.z_scores == 0.0)

    #: (model, sigma, jump time, jump size, strikes): jumps up and down,
    #: before and after t = 0.5, and bessel0 where it absorbs (sigma 1)
    AGREEMENT = [
        (model, sigma, jump_time, size, strikes)
        for model, sigma, strikes in (
            (GBM, 0.2, KS5),
            (BESSEL, 0.2, KS5),
            (LOGDIFF, 0.2, StrikeGrid(strikes=(0.0, 0.3, 0.6, 0.9))),
            (BESSEL, 1.0, KS5),
        )
        for jump_time in (0.25, 0.75)
        for size in (0.5 * sigma, -0.5 * sigma)
    ]

    @pytest.mark.parametrize(
        "model,sigma,jump_time,size,strikes", AGREEMENT,
        ids=[f"{m.name}-{s}-at-{jt}-by-{d:+}" for m, s, jt, d, _ in AGREEMENT],
    )
    def test_exact_route_matches_the_path_route(self, model, sigma, jump_time, size, strikes):
        # the path route on the same step theta, through its private entry:
        # the public one takes the exact route for it
        scn = step_vol_scenario(model, sigma, jump_time, size)
        cfg = SimConfig(n_paths=4000, dt=0.01, seed=13)
        (exact,) = pricing_residuals([scn], MATS, strikes, 0.5, cfg)
        (paths,) = bound_module._residuals_paths((scn,), MATS, strikes, 0.5, cfg)
        assert paths.route == {"route": "monte-carlo", "paths": 4000}
        # on the cells whose tail the paths sample: elsewhere a path z-score
        # is hit-count noise (test_rare_tail_cells_do_not_drive_the_headline)
        sampled = paths.calibrated
        assert np.count_nonzero(sampled) >= 2 * MATS.q
        gap = np.abs(exact.residuals - paths.residuals)
        assert np.all(gap[sampled] <= 4.0 * paths.ses[sampled])

    def test_exact_tables_simulate_nothing_and_ignore_the_simulation_block(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the exact route simulated paths")

        monkeypatch.setattr(bound_module, "joint_simulate", refuse)
        want = pricing_residuals(self.GROUP, MATS, KS5, 0.5, self.CFG)
        for workers, cfg in (
            ("1", SimConfig(n_paths=16, dt=0.5, seed=1)),
            ("2", SimConfig(n_paths=100_000, dt=0.01, seed=2, block_size=64)),
        ):
            monkeypatch.setenv(WORKERS_ENV_VAR, workers)
            got = pricing_residuals(self.GROUP, MATS, KS5, 0.5, cfg)
            for a, b in zip(got, want):
                for field in dataclasses.fields(a):
                    assert np.array_equal(getattr(a, field.name), getattr(b, field.name))

    def test_rare_tail_cells_do_not_drive_the_headline(self):
        # K=2 at T=1 under a vol near 0.2 is in the money on ~2e-4 of paths,
        # so its z-score is hit-count noise, not a unit normal; the cell
        # stays in the table but is excluded from max_abs_z
        (res,) = pricing_residuals([self.MOVING], MATS, KS5, 0.5, self.CFG)
        assert res.route == {"route": "monte-carlo", "paths": 20000}
        assert np.array_equal(res.calibrated, res.tail_counts >= res.min_tail_count)
        assert not res.calibrated[0, -1]
        assert np.all(res.calibrated[:, 0])
        assert res.max_abs_z == float(np.max(np.abs(res.z_scores[res.calibrated])))

    def test_vol_jump_inside_window_is_flagged(self):
        scn = step_vol_scenario(GBM, 0.2, 0.75, 0.4)
        (res,) = pricing_residuals([scn], MATS, KS5, 0.5, self.CFG)
        assert res.max_abs_z == math.inf

    def test_stochastic_vol_is_flagged(self):
        scn = meanrev_vol_scenario(GBM, 0.2, 1.5, 0.5, 0.6, -0.7)
        (res,) = pricing_residuals([scn], MATS, KS5, 0.5, self.CFG)
        assert res.max_abs_z > 3.0

    #: step thetas that agree up to t = 0.5: every jump, of any size, falls after it
    GROUP = (
        self_consistent_scenario(GBM, 0.2),
        step_vol_scenario(GBM, 0.2, 0.75, 0.4),
        step_vol_scenario(GBM, 0.2, 0.6, -0.1),
        step_vol_scenario(GBM, 0.2, 2.5, 0.0),
        Scenario(GBM, ThetaProcess(
            kind="step", sigma0=0.2, jump_times=(1.0, 1.5), jump_values=(0.5, 0.1),
        )),
    )

    def test_a_group_gives_each_member_its_table_alone(self):
        self.check_group_tables(pricing_residuals, "exact")

    def test_a_group_on_the_path_route_gives_each_member_its_table_alone(self):
        # the same step thetas through the path route's private entry
        self.check_group_tables(bound_module._residuals_paths, "monte-carlo")

    def check_group_tables(self, residuals, route):
        cfg = SimConfig(n_paths=5000, dt=0.01, seed=3)
        grouped = residuals(self.GROUP, MATS, KS5, 0.5, cfg)
        assert len(grouped) == len(self.GROUP)
        for scn, got in zip(self.GROUP, grouped):
            (alone,) = residuals([scn], MATS, KS5, 0.5, cfg)
            assert got.route["route"] == route
            for field in dataclasses.fields(alone):
                a, b = getattr(got, field.name), getattr(alone, field.name)
                assert np.array_equal(a, b), field.name
        # each member's own payoffs, not the first one's, are read
        assert grouped[0].max_abs_z < 3.5 < grouped[1].max_abs_z

    @pytest.mark.parametrize("jump_time", [0.25, 0.5])
    def test_a_group_whose_histories_differ_by_t_raises(self, jump_time):
        # the exact route compares the members' laws at t
        cfg = SimConfig(n_paths=500, dt=0.01, seed=3)
        group = (self.GROUP[0], step_vol_scenario(GBM, 0.2, jump_time, 0.1))
        with pytest.raises(DomainError, match=r"scenario 1 of the group .* at t=0\.5"):
            pricing_residuals(group, MATS, KS5, 0.5, cfg)

    @pytest.mark.parametrize(
        "other",
        [meanrev_vol_scenario(GBM, 0.2, 1.0, 0.2, 0.1), self_consistent_scenario(GBM, 0.2)],
        ids=["other-vol-of-vol", "constant"],
    )
    def test_a_moving_group_whose_paths_differ_by_t_raises(self, other):
        # the path route compares the members' (S_t, theta_t) bit for bit
        cfg = SimConfig(n_paths=500, dt=0.01, seed=3)
        with pytest.raises(DomainError, match=r"scenario 1 of the group .* at t=0\.5"):
            pricing_residuals((self.MOVING, other), MATS, KS5, 0.5, cfg)

    @pytest.mark.parametrize("n_paths", [2**14, 2**16])
    @pytest.mark.parametrize("members", [1, 4])
    def test_memory_is_linear_in_paths_and_bounded_per_group(
        self, n_paths, members, monkeypatch
    ):
        # a group holds its members' maturity columns, q per member, and a
        # fixed number of columns besides: S_t, the variance, the payoff
        # buffers and the pricing temporaries, or one ensemble being
        # simulated. A moving theta's ensemble also holds its theta at the
        # 5 stored times, and the group keeps a copy of theta_t. One worker
        # and small blocks keep the stepping kernel's per-block temporaries
        # to a fraction of a column.
        monkeypatch.setenv(WORKERS_ENV_VAR, "1")
        group = (self.MOVING,) * members
        cfg = SimConfig(n_paths=n_paths, dt=0.1, seed=3, block_size=n_paths // 16)
        pricing_residuals(group, MATS, KS5, 0.5, SimConfig(n_paths=64, dt=0.1, seed=3))
        tracemalloc.start()
        try:
            pricing_residuals(group, MATS, KS5, 0.5, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        theta_columns = len({0.0, 0.5, *MATS.times}) + 1
        assert peak < (members * MATS.q + 8 + theta_columns) * 8 * n_paths

    @pytest.mark.parametrize(
        "model,strikes", [(BESSEL, KS5), (LOGDIFF, StrikeGrid(strikes=(0.0, 0.3, 0.6, 0.9)))],
        ids=["bessel0", "logdiff"],
    )
    def test_reprices_by_the_law_off_closed_form(self, model, strikes):
        # every law prices by its own call: the self-consistent scenario
        # reads 0.0 exactly, and a jump at 0.75, after t = 0.5, reads inf
        cfg = SimConfig(n_paths=4000, dt=0.01, seed=11)
        (calm,) = pricing_residuals([self_consistent_scenario(model, 0.2)], MATS, strikes, 0.5, cfg)
        (jump,) = pricing_residuals(
            [step_vol_scenario(model, 0.2, 0.75, 0.4)], MATS, strikes, 0.5, cfg
        )
        assert calm.max_abs_z == 0.0
        assert jump.max_abs_z == math.inf

    def test_time_validation(self):
        with pytest.raises(DomainError):
            pricing_residuals([self_consistent_scenario(GBM, 0.2)], MATS, KS5, 2.0, self.CFG)


class TestDensification:
    @staticmethod
    def uniform_grid(n):
        k_m = n**0.25
        return StrikeGrid(strikes=tuple(k_m * i / n for i in range(n + 1)))

    def test_canonical_schedule_diagnostic(self):
        # phi = z^2 with uniform spacing K_m/n and K_m = n^(1/4): the
        # diagnostic is K_m * 2 * (K_m/n) = 2/sqrt(n); the strikes k_max i/n
        # and their differences round, so it lands within a few ulps of that
        # (8.2e-15 relative at n = 64)
        schedule = [self.uniform_grid(n) for n in (4, 16, 64, 256)]
        report = densification_study(GBM, 0.2, MATS, schedule)
        assert report.schedule_ok
        assert not report.phi_prime_convention
        for step, n in zip(report.steps, (4, 16, 64, 256)):
            assert step.diagnostic == pytest.approx(2.0 / math.sqrt(n), rel=1e-14, abs=0.0)
            assert step.n_strikes == n + 1

    def test_right_side_shrinks_along_schedule(self):
        schedule = [self.uniform_grid(n) for n in (4, 16, 64)]
        report = densification_study(GBM, 0.2, MATS, schedule)
        rhs = [s.rhs for s in report.steps]
        assert rhs[1] == pytest.approx(rhs[0] / 2.0, rel=1e-12)
        assert rhs[2] == pytest.approx(rhs[1] / 2.0, rel=1e-12)

    def test_widening_without_refining_is_flagged(self):
        # fixed spacing with a growing cutoff makes the diagnostic grow
        bad = [
            StrikeGrid(strikes=tuple(0.5 * i for i in range(int(2 * km) + 1)))
            for km in (2.0, 4.0)
        ]
        report = densification_study(GBM, 0.2, MATS, bad)
        assert not report.schedule_ok

    def test_empty_schedule_rejected(self):
        with pytest.raises(DomainError):
            densification_study(GBM, 0.2, MATS, [])

    @pytest.mark.parametrize("sigma", [0.0, -0.2])
    def test_vol_must_be_positive(self, sigma):
        with pytest.raises(DomainError, match="initial vol must be positive"):
            densification_study(GBM, sigma, MATS, [self.uniform_grid(4)])

    @pytest.mark.parametrize("model", [GBM, BESSEL, LOGDIFF], ids=["gbm", "bessel0", "logdiff"])
    def test_derived_schedule_stays_in_the_domain_and_densifies(self, model):
        sizes = (4, 16, 64, 256)
        grids = [densify_grid(model, n) for n in sizes]
        for grid, n in zip(grids, sizes):
            ks = np.asarray(grid.strikes)
            assert ks.size == n + 1
            assert np.all(np.diff(ks) > 0.0)
            assert all(model.beta.in_closure(k) for k in ks)
            assert grid.k_max < model.beta.upper
        report = densification_study(model, 0.2, MATS, grids)
        assert report.schedule_ok
        assert [s.k_min for s in report.steps] == [g.strikes[1] for g in grids]
        rhs = [s.rhs for s in report.steps]
        assert all(b < a for a, b in zip(rhs, rhs[1:]))

    def test_derived_schedule_on_gbm_is_the_uniform_grid(self):
        for n in (2, 4, 16, 64, 256, 1024):
            got = np.asarray(densify_grid(GBM, n).strikes)
            want = np.asarray(self.uniform_grid(n).strikes)
            assert np.max(np.abs(got - want)) <= 1e-15

    def test_derived_schedule_steps_phi_prime_evenly_past_a_diverging_slope(self):
        # phi'(0) diverges on bessel0 and logdiff: the strike 0, then K_m/sqrt(n)
        # and n - 1 equal steps of phi' up to K_m
        for model, k_m in ((BESSEL, 64**0.25), (LOGDIFF, 1.0 - 64**-0.25)):
            ks = np.asarray(densify_grid(model, 64).strikes)
            assert ks[0] == 0.0 and ks[-1] == k_m
            assert ks[1] == k_m / 8.0
            steps = np.diff(model.phi.deriv1(ks[1:]))
            assert steps == pytest.approx(np.full(63, steps.mean()), rel=1e-12)

    def test_study_simulates_nothing(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("densification_study simulated paths")

        monkeypatch.setattr(bound_module, "joint_simulate", refuse)
        monkeypatch.setattr(bound_module, "simulate", refuse)
        for model in (GBM, BESSEL, LOGDIFF):
            grids = [densify_grid(model, n) for n in (4, 16)]
            assert densification_study(model, 0.2, MATS, grids).schedule_ok


class TestDecomposition:
    @pytest.mark.parametrize(
        "theta,s,t,T",
        [
            (0.3, 1.1, 0.5, 1.5),
            (0.6, 0.8, 0.0, 1.0),
            # C(K) bends within a few sqrt(v) of the spot, a kink at v = 0,
            # inside the band [0.8, 1.6]
            (0.0, 1.1, 0.0, 1.0),
            (1e-3, 1.1, 0.0, 1.0),
            (1e-2, 1.1, 0.0, 1.0),
            (0.2, 1.1, 0.0, 1.0),
        ],
    )
    def test_routes_agree(self, theta, s, t, T):
        ks = StrikeGrid(strikes=(0.0, 0.8, 1.6, 2.4))
        out = decomposition_check(GBM, theta, s, t, T, ks)
        assert abs(out["defect"]) <= 1e-12
        assert out["m"] == pytest.approx(out["n"], rel=1e-9)
        assert out["l"] <= 1e-9

    def test_needs_closed_form_reference(self):
        with pytest.raises(ConfigurationError):
            decomposition_check(BESSEL, 0.3, 1.0, 0.0, 1.0, KS3)


class TestImpossibleConjunction:
    def test_no_scenario_passes_both_detectors_while_lying(self):
        # a vol jump between t and the first maturity leaves the time-t
        # report indistinguishable from self-consistent, but the repricing
        # residuals blow up: at least one detector always fires
        cfg = SimConfig(n_paths=20000, dt=0.01, seed=11)
        scn = step_vol_scenario(GBM, 0.2, 0.75, 0.4)
        rep = check_bound(scn, MATS, KS5, 0.5, cfg)
        (res,) = pricing_residuals([scn], MATS, KS5, 0.5, cfg)
        assert (not rep.satisfied) or res.max_abs_z > 3.0
        assert res.max_abs_z == math.inf


class TestReportValidation:
    def test_negative_right_side_rejected(self):
        with pytest.raises(DomainError):
            BoundReport(
                t=0.0, lhs=0.0, lhs_se=0.0, rhs=-1.0, satisfied=True,
                nq_mean=0.0, nq_se=0.0, g_corr_mean=0.0, g_corr_se=0.0,
                l_diagnostics=(),
                phi_prime_convention=False, n_paths=1,
            )

    def test_negative_gap_component_rejected(self):
        with pytest.raises(DomainError):
            BoundReport(
                t=0.0, lhs=0.0, lhs_se=0.0, rhs=1.0, satisfied=True,
                nq_mean=-0.5, nq_se=0.0, g_corr_mean=0.0, g_corr_se=0.0,
                l_diagnostics=(),
                phi_prime_convention=False, n_paths=1,
            )
