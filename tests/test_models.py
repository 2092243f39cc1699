import dataclasses
import math
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    besq0_call_oracle,
    law_expectation_oracle,
    logbesq0_phi_hat_oracle,
    lognormal_call_oracle,
    mc_call_price,
)
from volbound import models
from volbound.errors import ConfigurationError, DomainError
from volbound.models import (
    WORKERS_ENV_VAR,
    PathEnsemble,
    SimConfig,
    ThetaProcess,
    builtin_model,
    rng_substream,
    sample_mean,
    simulate,
    step_paths,
    z_score,
)


# ===== builtin models =====


class TestBuiltins:
    def test_gbm(self):
        m = builtin_model("gbm")
        assert m.z0 == 1.0
        assert m.phi(2.0) == 4.0
        assert m.phi.deriv1(2.0) == 4.0
        assert m.phi.deriv2(7.0) == 2.0
        assert float(m.beta(3.0)) == 3.0

    def test_bessel0_phi_limits(self):
        m = builtin_model("bessel0")
        assert m.phi(0.0) == 1.0
        zs = np.geomspace(1e-6, 50.0, 80)
        vals = m.phi(zs)
        assert np.all(np.diff(vals) < 0.0)
        assert vals[0] > 0.999
        assert vals[-1] < 1e-6

    def test_bessel0_derivatives_match_finite_differences(self):
        m = builtin_model("bessel0")
        for z in (0.1, 0.7, 2.0, 5.0):
            h = z * 1e-6
            fd1 = (m.phi(z + h) - m.phi(z - h)) / (2 * h)
            assert m.phi.deriv1(z) == pytest.approx(fd1, rel=1e-6)
            h = z * 2e-4  # wider step: the second difference loses eps/h^2
            fd2 = (m.phi(z + h) - 2 * m.phi(z) + m.phi(z - h)) / (h * h)
            assert m.phi.deriv2(z) == pytest.approx(fd2, rel=1e-5)

    def test_bessel0_deriv1_unbounded_at_zero(self):
        m = builtin_model("bessel0")
        assert m.phi.deriv1(0.0) == -math.inf

    def test_logdiff(self):
        m = builtin_model("logdiff")
        assert m.z0 == 0.5
        assert m.beta.lower == 0.0 and m.beta.upper == 1.0
        assert m.phi(0.5) == pytest.approx(math.log(2.0))
        assert float(m.beta(1.0)) == 0.0  # diffusion vanishes at the boundary
        assert float(m.beta(0.0)) == 0.0
        # phi is positive only inside (0, 1)
        assert m.phi(1.0) == 0.0

    def test_z0_override_and_validation(self):
        m = builtin_model("gbm", z0=2.5)
        assert m.z0 == 2.5
        with pytest.raises(DomainError):
            builtin_model("logdiff", z0=1.5)

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            builtin_model("heston")

    def test_phi_scaling(self):
        m = builtin_model("gbm")
        p2 = m.phi.scaled(2.0)
        assert p2(3.0) == 2.0 * m.phi(3.0)
        assert p2.deriv1(3.0) == 2.0 * m.phi.deriv1(3.0)
        with pytest.raises(DomainError):
            m.phi.scaled(-1.0)

    def test_phi_curvature(self):
        # constant phi'' is recorded only where phi is quadratic
        gbm = builtin_model("gbm").phi
        assert gbm.curvature == 2.0
        assert float(gbm.deriv2(0.7)) == gbm.curvature
        assert gbm.scaled(2.0).curvature == 4.0
        for name in ("bessel0", "logdiff"):
            phi = builtin_model(name).phi
            assert phi.curvature is None
            assert phi.scaled(2.0).curvature is None


# ===== rng substreams =====


class TestSubstreams:
    def test_reproducible(self):
        a = rng_substream(123, 0).standard_normal(8)
        b = rng_substream(123, 0).standard_normal(8)
        assert np.array_equal(a, b)

    def test_workers_independent(self):
        a = rng_substream(123, 0).standard_normal(8)
        b = rng_substream(123, 1).standard_normal(8)
        assert not np.array_equal(a, b)

    def test_seed_sensitivity(self):
        a = rng_substream(123, 0).standard_normal(8)
        b = rng_substream(124, 0).standard_normal(8)
        assert not np.array_equal(a, b)

    def test_nested_key_is_its_own_stream(self):
        # (block, 1) carries a moving theta's noise next to block's state draws
        a = rng_substream(123, 0).standard_normal(8)
        b = rng_substream(123, 0, 1).standard_normal(8)
        assert not np.array_equal(a, b)
        assert np.array_equal(b, rng_substream(123, 0, 1).standard_normal(8))


class TestSampleMean:
    def test_mean_and_standard_error_bit_for_bit(self):
        x = 1.0 + 3.0 * rng_substream(5, 0).standard_normal(1001)
        assert sample_mean(x) == (float(x.mean()), float(x.std(ddof=1) / math.sqrt(x.size)))

    def test_sample_of_equal_values_is_exact(self):
        # numpy's mean of seven copies of 0.1 is 0.09999999999999999; a
        # sample without noise reports its one value, with no error
        x = np.full(7, 0.1)
        assert float(x.mean()) != 0.1
        assert sample_mean(x) == (0.1, 0.0)
        assert sample_mean(np.array([2.5])) == (2.5, 0.0)

    @staticmethod
    @st.composite
    def tables(draw):
        """2-d tables whose rows are noisy, all equal, or noisy with a nan,
        from one column to several thousand."""
        n = draw(st.one_of(st.integers(1, 40), st.sampled_from([1000, 8193])))
        kinds = draw(st.lists(st.sampled_from(["noisy", "equal", "nan"]), min_size=1, max_size=6))
        rng = rng_substream(draw(st.integers(0, 2**32 - 1)), 0)
        rows = []
        for kind in kinds:
            level = draw(st.floats(-1e3, 1e3))
            if kind == "equal":
                rows.append(np.full(n, level))
            else:
                rows.append(level + draw(st.floats(1e-6, 1e3)) * rng.standard_normal(n))
                if kind == "nan":
                    rows[-1][draw(st.integers(0, n - 1))] = math.nan
        return np.array(rows)

    # a one-column row holding nan has no degrees of freedom: numpy warns of
    # it in either form
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=150, deadline=None)
    @given(table=tables())
    def test_table_reduces_row_by_row_bit_for_bit(self, table):
        mean, se = sample_mean(table)
        rows = [sample_mean(row) for row in table]
        assert mean.shape == se.shape == (len(table),)
        assert mean.tobytes() == np.array([m for m, _ in rows]).tobytes()
        assert se.tobytes() == np.array([e for _, e in rows]).tobytes()

    def test_one_column_table_is_its_column_without_a_warning(self, recwarn):
        table = np.array([[0.1], [2.5], [-3.0]])
        mean, se = sample_mean(table)
        assert mean.tolist() == [0.1, 2.5, -3.0] and se.tolist() == [0.0] * 3
        assert len(recwarn) == 0


class TestZScore:
    @staticmethod
    def rule(diff, se):
        if se > 0.0:
            return diff / se
        return 0.0 if diff == 0.0 else math.inf

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(
        st.one_of(st.just(0.0), st.floats(allow_nan=False, allow_infinity=False)),
        st.one_of(st.just(0.0), st.floats(1e-300, 1e300)),
    ), min_size=1, max_size=30))
    def test_array_form_applies_the_scalar_rule_elementwise(self, cells):
        diff, se = (np.array(col) for col in zip(*cells))
        z = z_score(diff, se)
        want = [self.rule(d, e) for d, e in cells]
        assert z.tobytes() == np.array(want).tobytes()
        assert [z_score(d, e) for d, e in cells] == want

    def test_zero_standard_error(self):
        # no noise: 0.0 where there is no difference, +inf for either sign
        assert z_score(np.array([0.0, 1.0, -1.0]), np.zeros(3)).tolist() == [0.0, math.inf, math.inf]
        assert z_score(-3.0, 0.5) == -6.0 and type(z_score(-3.0, 0.5)) is float


# ===== simulation =====


class TestMapBlocks:
    """The block runner: the calling thread and n_workers - 1 threads take
    blocks from one queue."""

    def test_the_calling_thread_works_a_block(self):
        # three blocks that each wait until three threads are inside: with
        # two threads started, the third can only be the caller
        meet = threading.Barrier(3, timeout=10.0)
        seen = []

        def run_block(b, rows):
            seen.append(threading.get_ident())
            meet.wait()

        models._map_blocks(3, 1, 3, run_block)
        assert threading.get_ident() in seen and len(set(seen)) == 3

    @pytest.mark.parametrize("n_workers", [1, 2, 8])
    def test_each_block_runs_once_on_at_most_n_workers_threads(self, n_workers):
        # more workers than cores, switching threads every microsecond: a
        # block taken twice or lost from the shared queue shows
        lock = threading.Lock()
        inside, most, ran, threads = [0], [0], [], set()

        def run_block(b, rows):
            with lock:
                inside[0] += 1
                most[0] = max(most[0], inside[0])
                ran.append((b, rows))
                threads.add(threading.get_ident())
            time.sleep(0.002)
            with lock:
                inside[0] -= 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            models._map_blocks(103, 10, n_workers, run_block)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(ran, key=lambda job: job[0]) == [
            (b, slice(lo, min(lo + 10, 103))) for b, lo in enumerate(range(0, 103, 10))
        ]
        assert most[0] <= n_workers and len(threads) <= n_workers

    def test_one_block_starts_no_thread(self, monkeypatch):
        started = []
        monkeypatch.setattr(models.threading, "Thread", lambda *a, **k: started.append(a))
        seen = []
        models._map_blocks(5, 10, 4, lambda b, rows: seen.append(threading.get_ident()))
        assert started == [] and seen == [threading.get_ident()]

    @pytest.mark.parametrize("n_workers", [1, 3])
    def test_the_lowest_failing_block_raises_after_every_block_ran(self, n_workers):
        # block 5 fails first in time, block 2 later: block 2's error is
        # raised, and only once every block has run
        ran = set()

        def run_block(b, rows):
            if b == 2:
                time.sleep(0.02)
            ran.add(b)
            if b in (2, 5):
                raise ValueError(f"block {b}")

        with pytest.raises(ValueError, match="block 2"):
            models._map_blocks(80, 10, n_workers, run_block)
        assert ran == set(range(8))


class TestSimulate:
    def test_worker_count_never_changes_results(self, monkeypatch):
        # three blocks, so several threads run, each taking draws on 20
        # stored intervals; on bessel0 at sigma = 1 paths absorb, and each
        # block's stream position depends on its states
        cfg = SimConfig(n_paths=3072, dt=0.02, seed=5, block_size=1024)
        grid = np.linspace(0.0, 1.0, 21)
        for name, sigma in (("gbm", 0.4), ("bessel0", 1.0)):
            ens = []
            for workers in ("1", "2", "8"):
                monkeypatch.setenv(WORKERS_ENV_VAR, workers)
                ens.append(simulate(builtin_model(name), sigma, 1.0, 0.0, grid, cfg))
            assert np.any(ens[0].absorbed_at <= 1.0) == (name == "bessel0")
            for e in ens[1:]:
                assert np.array_equal(ens[0].states, e.states)
                assert np.array_equal(ens[0].absorbed_at, e.absorbed_at, equal_nan=True)

    @pytest.mark.parametrize("workers", ["1", "8"])
    @pytest.mark.parametrize("law", ["exact", "euler"])
    def test_visitor_sees_each_stored_column_as_it_is_drawn(self, law, workers, monkeypatch):
        # a visited run stores nothing; each block hands over each stored
        # column once, equal to a stored run's, with the absorption times
        # of the paths absorbed by that column's time
        monkeypatch.setenv(WORKERS_ENV_VAR, workers)
        m = builtin_model("bessel0")
        if law == "euler":
            m = dataclasses.replace(m, law=None)
        cfg = SimConfig(n_paths=3072, dt=0.01, seed=5, block_size=1024)
        grid = np.linspace(0.0, 1.0, 11)
        stored = simulate(m, 1.0, 1.0, 0.0, grid, cfg)
        z_seen = np.full(stored.states.shape, np.nan)
        tau_seen = np.full(stored.states.shape, -1.0)
        visits = np.zeros((3, grid.size), dtype=int)

        def visit(rows, c, z, absorbed_at):
            z_seen[rows, c] = z
            tau_seen[rows, c] = absorbed_at
            visits[rows.start // cfg.block_size, c] += 1

        ens = step_paths(m, 1.0, 1.0, 0.0, grid, cfg, visit=visit)
        assert ens.states is None and ens.n_paths == cfg.n_paths
        assert ens.steps == stored.steps
        assert np.all(visits == 1)
        assert np.array_equal(z_seen, stored.states)
        tau = stored.absorbed_at
        assert np.array_equal(ens.absorbed_at, tau, equal_nan=True)
        assert np.any(tau <= 1.0)
        by_then = np.where(tau[:, None] <= grid[None, :], tau[:, None], np.nan)
        assert np.array_equal(tau_seen, by_then, equal_nan=True)

    def test_sigma_zero_paths_constant(self):
        m = builtin_model("gbm")
        e = simulate(m, 0.0, 1.3, 0.0, [0.0, 1.0], SimConfig(n_paths=64, dt=0.1, seed=1))
        assert np.all(e.states == 1.3)

    def test_gbm_mean_preserved(self):
        m = builtin_model("gbm")
        e = simulate(m, 0.5, 1.0, 0.0, [0.0, 1.0], SimConfig(n_paths=40000, dt=0.01, seed=17))
        zt = e.states[:, -1]
        z = (zt.mean() - 1.0) / (zt.std(ddof=1) / math.sqrt(len(zt)))
        assert abs(z) < 3.0

    @pytest.mark.parametrize("name", ["gbm", "bessel0", "logdiff"])
    @pytest.mark.parametrize("sigma", [0.2, 0.5])
    def test_martingale_preserved_across_models(self, name, sigma):
        m = builtin_model(name)
        for i, horizon in enumerate((0.5, 1.0, 2.0)):
            seed = 1000 * len(name) + 10 * i + round(10 * sigma)
            e = simulate(
                m, sigma, m.z0, 0.0, [0.0, horizon],
                SimConfig(n_paths=20000, dt=0.01, seed=seed),
            )
            zt = e.states[:, -1]
            se = zt.std(ddof=1) / math.sqrt(len(zt))
            assert abs(zt.mean() - m.z0) < 3.0 * se

    def test_exact_gbm_marginals(self):
        m = builtin_model("gbm")
        e = simulate(m, 0.3, 1.0, 0.0, [0.0, 1.0], SimConfig(n_paths=60000, dt=1.0, seed=2))
        lz = np.log(e.states[:, -1])
        n = len(lz)
        assert abs(lz.mean() + 0.045) < 3.0 * lz.std(ddof=1) / math.sqrt(n)
        assert abs(lz.var(ddof=1) - 0.09) < 4.0 * 0.09 * math.sqrt(2.0 / n)

    def test_scheme_consistency_error_decreases_with_dt(self):
        # Matched seeds couple the two schemes step by step: both draw one
        # normal per grid step, so the pathwise log difference isolates the
        # euler discretization error. Without its law gbm steps by Euler.
        m = builtin_model("gbm")
        euler = dataclasses.replace(m, law=None)
        errs = []
        for dt in (0.1, 0.01, 0.001):
            grid = np.linspace(0.0, 1.0, round(1.0 / dt) + 1)
            cfg = SimConfig(n_paths=100_000, dt=dt, seed=31)
            ze = simulate(euler, 0.5, 1.0, 0.0, grid, cfg).states[:, -1]
            zx = simulate(m, 0.5, 1.0, 0.0, grid, cfg).states[:, -1]
            errs.append(abs(np.mean(np.log(ze) - np.log(zx))))
        assert errs[0] > errs[1] > errs[2]

    def test_absorption_fraction_matches_refined_oracle(self):
        # Euler without the law, at dt 0.005, against the law's exact
        # absorbed mass exp(-2 z0 / (sigma^2 T)) = 0.49935
        m = builtin_model("bessel0")
        euler = dataclasses.replace(m, law=None)
        e = simulate(euler, 1.2, 0.5, 0.0, [0.0, 1.0], SimConfig(n_paths=20000, dt=0.005, seed=21))
        assert e.steps == 200
        f = np.isfinite(e.absorbed_at).mean()
        p = m.law.absorbed_mass(0.5, 1.44)
        assert p == pytest.approx(0.49935, abs=1e-5)
        assert abs(f - p) < 3.0 * math.sqrt(f * (1 - f) / 20000)

    def test_absorbed_paths_frozen_at_boundary(self):
        m = builtin_model("bessel0")
        e = simulate(m, 1.2, 0.5, 0.0, [0.0, 0.5, 1.0], SimConfig(n_paths=5000, dt=0.01, seed=3))
        hit = np.isfinite(e.absorbed_at)
        assert hit.any()
        early = hit & (e.absorbed_at <= 0.5)
        assert np.all(e.states[early, 1] == 0.0)
        assert np.all(e.states[early, 2] == 0.0)

    def test_logdiff_stays_in_domain_closure(self):
        # by its exact law and by Euler without it
        m = builtin_model("logdiff")
        for model in (m, dataclasses.replace(m, law=None)):
            cfg = SimConfig(n_paths=10000, dt=0.005, seed=4)
            e = simulate(model, 0.6, 0.5, 0.0, [0.0, 1.0], cfg)
            assert e.states.min() >= 0.0 and e.states.max() <= 1.0

    def test_grid_points_hit_exactly(self):
        m = builtin_model("gbm")
        grid = [0.25, 0.4, 1.0, 2.5]
        e = simulate(m, 0.2, 1.0, 0.25, grid, SimConfig(n_paths=8, dt=0.3, seed=6))
        assert np.array_equal(e.time_grid, np.asarray(grid))
        assert e.states.shape == (8, 4)

    def test_errors(self):
        m = builtin_model("bessel0")
        cfg = SimConfig(n_paths=4, dt=0.1, seed=0)
        with pytest.raises(DomainError):
            simulate(m, 0.2, -1.0, 0.0, [0.0, 1.0], cfg)
        with pytest.raises(DomainError):
            simulate(m, 0.2, 1.0, 0.0, [0.5, 1.0], cfg)  # grid must start at t_start
        with pytest.raises(DomainError):
            simulate(m, 0.2, 1.0, 0.0, [0.0, 1.0, 1.0], cfg)
        with pytest.raises(DomainError):
            simulate(m, -0.5, 1.0, 0.0, [0.0, 1.0], cfg)

    def test_sim_config_validation(self):
        with pytest.raises(ConfigurationError):
            SimConfig(n_paths=0, dt=0.1, seed=1)
        with pytest.raises(ConfigurationError):
            SimConfig(n_paths=10, dt=0.0, seed=1)
        with pytest.raises(TypeError):
            # the model's law, not a scheme option, decides how it steps
            SimConfig(n_paths=10, dt=0.1, seed=1, scheme="milstein")


# ===== exact transition laws =====


def _legendre(n, x):
    """(P_n(x), P_n'(x)) by the three-term recurrence."""
    p0, p1 = 1, x
    for k in range(2, n + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    return p1, n * (x * p1 - p0) / (x * x - 1)


@pytest.mark.parametrize("n", [48, 64])
def test_gauss_legendre_tables_follow_their_recipe(n):
    # the frozen rules against the rule at 40 digits: each root of P_n by
    # Newton's iteration from its asymptotic guess cos(pi (k - 1/4)/(n + 1/2)),
    # each weight 2/((1 - x^2) P_n'(x)^2). Not leggauss bit for bit: its
    # last bits depend on the LAPACK build
    mp = pytest.importorskip("mpmath")
    half_x, half_w = models._GAUSS_LEGENDRE_HALVES[n]
    nodes, weights = models._gauss_legendre(n)
    # exactly symmetric: the negative half is the frozen half mirrored
    assert nodes.tolist() == [-x for x in reversed(half_x)] + list(half_x)
    assert weights.tolist() == list(reversed(half_w)) + list(half_w)
    with mp.workdps(40):
        for k, x_frozen, w_frozen in zip(range(n // 2, 0, -1), half_x, half_w):
            x = mp.cos(mp.pi * (k - mp.mpf(0.25)) / (n + mp.mpf(0.5)))
            for _ in range(20):
                p, dp = _legendre(n, x)
                x -= p / dp
            p, dp = _legendre(n, x)
            assert abs(p / dp) < mp.mpf(10) ** -35  # converged
            w = 2 / ((1 - x * x) * dp * dp)
            assert abs(x_frozen - x) <= math.ulp(float(x))
            # leggauss's own weight error, 1.27e-12 (n = 48) and 1.29e-12 (n = 64)
            assert abs(w_frozen - w) <= 2e-12 * w


def _law_moment(law, s, v, f):
    """E[f(Z_T); Z_T > 0] by the law's own tail rule, cutoff just above 0."""
    x, dens, half = law.tail_rule(np.array([s]), np.array([v]), 1e-300)
    return float((f(x) * dens * law.weights[None, :]).sum(axis=1)[0] * half[0])


# (s, v) from a narrow bump far from 0 to an atom holding most of the mass
BESQ_CASES = [(1.0, 0.01), (1.0, 0.25), (1.0, 1.0), (0.3, 2.0), (0.5, 4.0), (20.0, 0.5)]


class TestSquaredBesselLaw:
    LAW = builtin_model("bessel0").law

    def test_atom_is_the_absorption_probability(self):
        assert self.LAW.absorbed_mass(1.0, 1.0) == pytest.approx(math.exp(-2.0), rel=1e-15, abs=0.0)
        assert self.LAW.absorbed_mass(0.0, 1.0) == 1.0
        assert self.LAW.absorbed_mass(1.0, 0.0) == 0.0

    @pytest.mark.parametrize("s,v", BESQ_CASES)
    def test_atom_plus_density_is_one(self, s, v):
        mass = _law_moment(self.LAW, s, v, np.ones_like)
        assert self.LAW.absorbed_mass(s, v) + mass == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("s,v", BESQ_CASES)
    def test_mean_and_variance(self, s, v):
        # Z is a martingale with d<Z> = sigma^2 Z dt: mean s, variance v s
        mean = _law_moment(self.LAW, s, v, lambda x: x)
        second = _law_moment(self.LAW, s, v, np.square)
        assert mean == pytest.approx(s, rel=1e-12)
        assert second - mean * mean == pytest.approx(v * s, rel=1e-10)

    # (a, r, v) -> density of r = sqrt(Z_T) given sqrt(s) = a, i.e.
    # (4/v) a I1(4ar/v) exp(-2(a^2 + r^2)/v), by mpmath at 40 digits
    # (mp.besseli, mp.exp), rounded to 17 significant digits; the Bessel
    # argument x = 4ar/v runs from 0.06 to 3.5e4
    DENSITY_CASES = [
        ((1.0, 1.0, 0.1), 2.4992891629776824),  # x = 40
        ((1.0, 0.5, 1.0), 0.52226969609611146),  # x = 2
        ((2.0, 2.1, 0.01), 1.053560497130121),  # x = 1680
        ((0.3, 0.2, 4.0), 0.0084374028629344903),  # x = 0.06
        ((1.0, 1.3, 0.04), 0.03875748587660673),  # x = 130
        ((3.0, 2.9, 0.001), 5.2894117040387037e-8),  # x = 3.48e4
    ]

    @pytest.mark.parametrize("arv,want", DENSITY_CASES)
    def test_density_matches_mpmath(self, arv, want):
        assert self.LAW._density(*arv) == pytest.approx(want, rel=2e-15, abs=0.0)

    @pytest.mark.parametrize("s,v", BESQ_CASES + [(2e-4, 1e-3), (0.2, 1.0)])
    def test_expect_of_the_identity_is_the_start(self, s, v):
        # the martingale mean by the rule phi_mean reads, atom included
        assert self.LAW.expect(lambda x: x, s, v) == pytest.approx(s, rel=1e-12, abs=0.0)

    def test_absorbed_mass_matches_simulated_fraction(self):
        m = builtin_model("bessel0")
        n = 40000
        e = simulate(m, 1.0, 0.5, 0.0, [0.0, 1.0], SimConfig(n_paths=n, dt=0.001, seed=12))
        hit = float(np.isfinite(e.absorbed_at).mean())
        p = self.LAW.absorbed_mass(0.5, 1.0)
        assert abs(hit - p) < 3.5 * math.sqrt(p * (1.0 - p) / n)


class TestLogBesselLaw:
    """logdiff's law, tested where it can fail: sigma = 1, z0 = 0.5, T = 1,
    with a third of the mass in the atom at Z = 1."""

    LAW = builtin_model("logdiff").law
    CASES = [(0.5, 1.0), (0.5, 0.01), (0.5, 1e-4), (0.9, 0.25), (0.05, 2.0), (0.999, 1.0)]
    N = 200_000

    def test_atom_sits_at_one(self):
        assert self.LAW.atom == 1.0
        assert self.LAW.absorbed_mass(0.5, 1.0) == pytest.approx(0.33402391255973, rel=1e-12)
        assert self.LAW.absorbed_mass(1.0, 1.0) == 1.0
        assert self.LAW.absorbed_mass(0.5, 0.0) == 0.0

    @pytest.mark.parametrize("z,v", CASES)
    def test_atom_plus_density_is_one_and_moments_hold(self, z, v):
        # Z is a martingale and phi = -ln z an eigenfunction: E[Z_T] = z,
        # E[phi(Z_T)] = e^v phi(z), with phi(1) = 0 on the atom
        mass = self.LAW.absorbed_mass(z, v)
        assert mass + _law_moment(self.LAW, z, v, np.ones_like) == pytest.approx(1.0, rel=1e-12)
        assert mass + _law_moment(self.LAW, z, v, lambda x: x) == pytest.approx(z, rel=1e-12)
        want = math.exp(v) * -math.log(z)
        assert _law_moment(self.LAW, z, v, lambda x: -np.log(x)) == pytest.approx(want, rel=1e-12)

    def test_sampled_atom_matches_its_mass(self):
        for z, v in ((0.5, 1.0), (0.9, 0.25), (0.05, 2.0)):
            x = self.LAW.sample(np.full(self.N, z), v, rng_substream(51, 0))
            p = self.LAW.absorbed_mass(z, v)
            assert np.all((x > 0.0) & (x <= 1.0))
            assert abs(np.mean(x == 1.0) - p) < 4.0 * math.sqrt(p * (1.0 - p) / self.N)
            assert abs(x.mean() - z) < 4.0 * x.std(ddof=1) / math.sqrt(self.N)

    def test_absorption_time_follows_its_law(self):
        # P(tau <= u) = z0^(1 / (1 - exp(-sigma^2 u))), from one exact step
        m = builtin_model("logdiff")
        e = simulate(m, 1.0, 0.5, 0.0, [0.0, 1.0], SimConfig(n_paths=self.N, dt=0.01, seed=52))
        assert e.steps == 1
        hit = np.isfinite(e.absorbed_at)
        assert np.all(e.states[hit, -1] == 1.0) and np.all(e.states[~hit, -1] < 1.0)
        assert np.all((e.absorbed_at[hit] > 0.0) & (e.absorbed_at[hit] <= 1.0))
        for u in (0.1, 0.25, 0.5, 0.75, 1.0):
            p = 0.5 ** (1.0 / -math.expm1(-u))
            got = float(np.mean(e.absorbed_at <= u))
            assert abs(got - p) < 4.0 * math.sqrt(p * (1.0 - p) / self.N)

    def test_held_states_stay(self):
        rng = rng_substream(53, 0)
        z = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 64)])
        assert np.array_equal(self.LAW.sample(z, 0.0, rng), z)  # no variance: no move
        assert np.array_equal(self.LAW.sample(z[:2], 1.0, rng), z[:2])  # both ends hold


#: each law at a start inside its domain, priced at a small variance and at
#: v = 1, where bessel0's atom holds e^-2 at z = 1 and logdiff's a third
LAW_CASES = [
    (name, z, v)
    for name, z in (("gbm", 1.0), ("bessel0", 1.0), ("logdiff", 0.5))
    for v in (1e-3, 1.0)
]


#: besides LAW_CASES, the states a path is held at: bessel0's atom at 0,
#: and both ends of logdiff's domain, where the atom at 1 sits
BOUNDARY_CASES = [
    (name, z, v) for name, z in (("bessel0", 0.0), ("logdiff", 0.0), ("logdiff", 1.0))
    for v in (1e-3, 1.0)
]


#: per law, a start where absorption is likely at v = 1e-3 and at v = 1:
#: bessel0's atom holds exp(-2z/v) and logdiff's z^(1/(1 - e^-v)), each
#: e^-0.4 = 0.67 here; gbm has no atom
MARTINGALE_CASES = [
    (name, start(v), v)
    for name, start in (
        ("gbm", lambda v: 1.0),
        ("bessel0", lambda v: 0.2 * v),
        ("logdiff", lambda v: math.exp(0.4 * math.expm1(-v))),
    )
    for v in (1e-3, 1.0)
]


def _call_oracle(name, z, k, v):
    """The call price by a route independent of law.call: Schroder's closed
    form on bessel0; elsewhere adaptive quadrature against the law's
    density, the atom added in closed form."""
    if name == "gbm":
        return lognormal_call_oracle(z, k, v)
    if name == "bessel0":
        return besq0_call_oracle(z, k, v)
    return logbesq0_phi_hat_oracle(z, k, v, lambda x: x)


def _chapman_kolmogorov_cells(name):
    """25 random (s, k, v1, v2) cells inside the named model's domain."""
    rng = np.random.default_rng(27)
    cells = []
    for _ in range(25):
        if name == "logdiff":
            s, k = rng.uniform(0.05, 0.95), rng.uniform(0.0, 1.0)
        else:
            s = rng.uniform(0.2, 2.0)
            k = rng.uniform(0.0, 2.0 * s)
        v1, v2 = (float(v) for v in rng.uniform(0.01, 1.5, 2))
        cells.append((s, k, v1, v2))
    return cells


class TestLawCall:
    """The contract every transition law's call(z, K, v) keeps."""

    @pytest.mark.parametrize("name,z,v", LAW_CASES + BOUNDARY_CASES)
    def test_limits_and_shape(self, name, z, v):
        law = builtin_model(name).law
        ks = np.linspace(0.0, 2.0 * max(z, 0.5), 41)
        with np.errstate(divide="raise", invalid="raise"):
            c = np.array([law.call(z, k, v) for k in ks])
        # the hard limits hold exactly, with the zero strike at z itself
        assert np.all((np.maximum(z - ks, 0.0) <= c) & (c <= z))
        assert c[0] == pytest.approx(z, rel=0.0, abs=1e-12 * z)
        # nonincreasing and convex in the strike
        assert np.all(np.diff(c) <= 1e-12 * z)
        assert np.all(np.diff(c, 2) >= -1e-12 * z)
        # nondecreasing in the variance
        grown = np.array([[law.call(z, k, f * v) for k in ks] for f in (1.0, 1.5, 2.0, 4.0)])
        assert np.all(np.diff(grown, axis=0) >= -1e-12 * z)

    @pytest.mark.parametrize("name,z,v", LAW_CASES)
    def test_matches_its_oracle(self, name, z, v):
        law = builtin_model(name).law
        for k in (0.25 * z, 0.9 * z, z, 1.1 * z, 1.8 * z):
            want = _call_oracle(name, z, k, v)
            assert law.call(z, k, v) == pytest.approx(want, rel=0.0, abs=1e-12 * z)

    @pytest.mark.parametrize("name,z,v", [c for c in LAW_CASES if c[0] != "gbm"])
    def test_atom_mass_is_the_share_of_draws_there(self, name, z, v):
        law = builtin_model(name).law
        n = 200_000
        x = law.sample(np.full(n, z), v, rng_substream(54, 0))
        p = law.absorbed_mass(z, v)
        assert abs(np.mean(x == law.atom) - p) <= 4.0 * math.sqrt(p * (1.0 - p) / n)

    @pytest.mark.parametrize("name,z,v", MARTINGALE_CASES)
    def test_sampled_mean_is_the_start(self, name, z, v):
        # Z is a martingale: E[Z_T] = z, also where most draws sit on the atom
        law = builtin_model(name).law
        n = 200_000
        x = law.sample(np.full(n, z), v, rng_substream(55, 0))
        if law.atom is not None:
            assert np.mean(x == law.atom) > 0.5
        assert abs(x.mean() - z) < 4.0 * x.std(ddof=1) / math.sqrt(n)

    @pytest.mark.parametrize("name", ["gbm", "bessel0", "logdiff"])
    def test_chapman_kolmogorov_in_the_variance_clock(self, name):
        # E[C(Z, K, v2)] over Z from s at variance v1 is C(s, K, v1 + v2):
        # the identity the exact repricing residuals rest on. Random cells,
        # most with v1 + v2 >= 1, where bessel0 and logdiff put much of their
        # mass on the atom
        law = builtin_model(name).law
        sums = []
        for s, k, v1, v2 in _chapman_kolmogorov_cells(name):
            got = law_expectation_oracle(name, lambda z: law.call(z, k, v2), s, v1)
            assert got == pytest.approx(law.call(s, k, v1 + v2), rel=0.0, abs=1e-13 * s)
            sums.append(v1 + v2)
        assert sum(v >= 1.0 for v in sums) >= 15

    @pytest.mark.parametrize("name", ["gbm", "bessel0", "logdiff"])
    def test_tail_term_chapman_kolmogorov_in_the_variance_clock(self, name):
        # E[G(Z, v2)] over Z from s at variance v1 is G(s, v1 + v2) for the
        # tail term G = E[(phi(Z_T) - phi(k)) 1{Z_T > k}] of the model's own
        # phi, on the cells of the call's identity. |G| is at most phi(k)
        # where phi(Z_T) < phi(k) and E[phi(Z_T)] = e^v phi(s) where not,
        # so the larger of the two is its scale
        model = builtin_model(name)
        law, phi = model.law, model.phi

        def tail(z, k, v):
            out = law.tail(phi, np.atleast_1d(z), v, k)
            return out if np.ndim(z) else float(out[0])

        for s, k, v1, v2 in _chapman_kolmogorov_cells(name):
            got = law_expectation_oracle(name, lambda z: tail(z, k, v2), s, v1)
            scale = max(float(phi(k)), math.exp(v1 + v2) * float(phi(s)))
            assert got == pytest.approx(tail(s, k, v1 + v2), rel=0.0, abs=1e-13 * scale)

    @pytest.mark.parametrize("name", ["gbm", "bessel0", "logdiff"])
    def test_vectorized_over_start_and_variance(self, name):
        law = builtin_model(name).law
        z = np.array([0.2, 0.5, 0.7, 0.9])
        v = np.array([0.0, 1e-3, 0.3, 2.0])
        got = law.call(z, 0.6, v)
        assert got.shape == (4,)
        assert got[0] == max(z[0] - 0.6, 0.0)
        assert np.array_equal(got, [law.call(float(a), 0.6, float(b)) for a, b in zip(z, v)])


#: per law, rows crossing states (the ends of the domain, where a row is
#: held, among them), variances (0 among them) and strikes (0 among them;
#: on logdiff, strikes below and above its atom at 1)
STRIKE_ROWS = {
    "gbm": ((0.0, 0.3, 1.0, 2.5), (0.0, 1e-3, 0.5, 2.0), (0.0, 0.5, 1.0, 3.0)),
    "bessel0": ((0.0, 0.3, 1.0, 2.5), (0.0, 1e-3, 0.5, 2.0), (0.0, 0.5, 1.0, 3.0)),
    "logdiff": ((0.0, 0.2, 0.5, 0.9, 1.0), (0.0, 1e-3, 0.5, 2.0), (0.0, 0.3, 0.6, 1.0, 1.5)),
}


def _strike_rows(name):
    """(s, v, k): every combination of STRIKE_ROWS[name] as 1-d arrays."""
    grid = np.meshgrid(*STRIKE_ROWS[name], indexing="ij")
    return tuple(a.ravel() for a in grid)


def _per_strike(price, k):
    """price(mask, strike) on the rows of each distinct strike in turn, one
    call per strike, as the rows' results."""
    out = np.empty(k.shape)
    for strike in np.unique(k):
        rows = k == strike
        out[rows] = price(rows, float(strike))
    return out


class TestStrikePerRow:
    """A strike per row gives each row what the per-strike call gives it,
    bit for bit: signed zeros, infinities and nans included."""

    @pytest.mark.parametrize("name", ["gbm", "bessel0", "logdiff"])
    def test_call(self, name):
        law = builtin_model(name).law
        s, v, k = _strike_rows(name)
        with np.errstate(all="ignore"):
            got = law.call(s, k, v)
            want = _per_strike(lambda rows, strike: law.call(s[rows], strike, v[rows]), k)
        assert got.tobytes() == want.tobytes()
        assert np.all((np.maximum(s - k, 0.0) <= got) & (got <= s))
        # each row is the scalar call of its own cell
        cells = [law.call(*cell) for cell in zip(s.tolist(), k.tolist(), v.tolist())]
        assert np.array(cells).tobytes() == got.tobytes()

    @pytest.mark.parametrize("phi_of", ["gbm", "bessel0", "logdiff"])
    @pytest.mark.parametrize("name", ["gbm", "bessel0", "logdiff"])
    def test_tail(self, name, phi_of):
        # each law against each model's phi: gbm's takes its closed form on
        # the lognormal law and the quadrature elsewhere
        law, phi = builtin_model(name).law, builtin_model(phi_of).phi
        s, v, k = _strike_rows(name)
        with np.errstate(all="ignore"):
            got = law.tail(phi, s, v, k)
            want = _per_strike(lambda rows, strike: law.tail(phi, s[rows], v[rows], strike), k)
        assert got.tobytes() == want.tobytes()
        assert np.isfinite(got).sum() > got.size // 2


# ===== exact stepping =====


def _two_sample_z(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return (a.mean() - b.mean()) / math.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)


class TestExactSampler:
    LAW = builtin_model("bessel0").law
    N = 200_000

    @pytest.mark.parametrize("s,v", [(1.0, 0.25), (1.0, 1.0), (0.3, 2.0), (20.0, 0.5)])
    def test_atom_mean_and_variance(self, s, v):
        x = self.LAW.sample(np.full(self.N, s), v, rng_substream(41, 0))
        p = self.LAW.absorbed_mass(s, v)
        atom = float(np.mean(x == 0.0))
        assert abs(atom - p) < 4.0 * math.sqrt(max(p * (1.0 - p), 1.0 / self.N) / self.N)
        assert abs(x.mean() - s) < 4.0 * math.sqrt(v * s / self.N)
        var = x.var(ddof=1)
        se_var = math.sqrt((np.mean((x - x.mean()) ** 4) - var * var) / self.N)
        assert abs(var - v * s) < 4.0 * se_var

    def test_degenerate_steps(self):
        rng = rng_substream(42, 0)
        z = np.array([0.0, 0.7, 1.3])
        assert np.array_equal(self.LAW.sample(z, 0.0, rng), z)  # no variance: no move
        assert np.all(self.LAW.sample(np.zeros(64), 1.0, rng) == 0.0)  # the atom holds
        # a Poisson mean past numpy's limit takes the normal with the law's moments
        x = self.LAW.sample(np.ones(4000), 1e-17, rng)
        assert abs(x.mean() - 1.0) < 4.0 * math.sqrt(1e-17 / x.size)
        assert x.std(ddof=1) == pytest.approx(math.sqrt(1e-17), rel=0.1)

    def test_absorption_time_follows_its_law(self):
        # one exact step over [0, 1] places tau by the law P(tau <= u) = exp(-2z/(sigma^2 u))
        z0, sigma = 0.5, 1.0
        m = builtin_model("bessel0", z0=z0)
        e = simulate(m, sigma, z0, 0.0, [0.0, 1.0], SimConfig(n_paths=self.N, dt=0.01, seed=43))
        assert e.steps == 1
        hit = np.isfinite(e.absorbed_at)
        assert np.all(e.states[hit, -1] == 0.0) and np.all(e.states[~hit, -1] > 0.0)
        assert np.all((e.absorbed_at[hit] > 0.0) & (e.absorbed_at[hit] <= 1.0))
        for u in (0.2, 0.4, 0.7, 1.0):
            p = math.exp(-2.0 * z0 / (sigma * sigma * u))
            got = float(np.mean(e.absorbed_at <= u))
            assert abs(got - p) < 4.0 * math.sqrt(p * (1.0 - p) / self.N)

    def test_one_step_and_two_half_steps_agree(self):
        m = builtin_model("bessel0", z0=0.5)
        one = simulate(m, 1.0, 0.5, 0.0, [0.0, 1.0], SimConfig(n_paths=self.N, dt=0.01, seed=44))
        two = simulate(
            m, 1.0, 0.5, 0.0, [0.0, 0.5, 1.0], SimConfig(n_paths=self.N, dt=0.01, seed=45)
        )
        assert (one.steps, two.steps) == (1, 2)
        z1, z2 = one.states[:, -1], two.states[:, -1]
        for f in (lambda z: z == 0.0, lambda z: np.maximum(z - 0.5, 0.0), np.sqrt):
            assert abs(_two_sample_z(f(z1), f(z2))) < 4.0
        for u in (0.25, 0.5, 0.75):
            assert abs(_two_sample_z(one.absorbed_at <= u, two.absorbed_at <= u)) < 4.0

    def test_euler_oracle_prices_the_same_call(self):
        # z0 = 1, sigma = 1, T = 1, K = 1: exact 0.38570 against Euler at
        # dt 1e-3, 0.38548 +- 0.00165, in a scratch check at 2e5 paths
        m = builtin_model("bessel0")
        euler = dataclasses.replace(m, law=None)
        exact = mc_call_price(
            m, 1.0, 0.0, 1.0, 1.0, 1.0, SimConfig(n_paths=self.N, dt=1e-3, seed=46)
        )
        oracle = mc_call_price(
            euler, 1.0, 0.0, 1.0, 1.0, 1.0, SimConfig(n_paths=40_000, dt=1e-3, seed=47)
        )
        assert (exact.steps, oracle.steps) == (1, 1000)
        assert abs(exact.value - oracle.value) < 4.0 * math.hypot(exact.se, oracle.se)
        # and the law's own quadrature of E[(Z_T - 1)^+]
        want = _law_moment(self.LAW, 1.0, 1.0, lambda x: np.maximum(x - 1.0, 0.0))
        assert abs(exact.value - want) < 4.0 * exact.se


class TestStepping:
    GRID = [0.0, 0.25, 1.0, 2.0]
    CFG = SimConfig(n_paths=16, dt=0.01, seed=1)

    @pytest.mark.parametrize("name", ["gbm", "bessel0", "logdiff"])
    def test_exact_law_takes_one_step_per_anchor_interval(self, name):
        m = builtin_model(name)
        theta = ThetaProcess(kind="step", sigma0=0.3, jump_times=(0.4,), jump_values=(0.6,))
        e = step_paths(m, theta, m.z0, 0.0, self.GRID, self.CFG)
        assert e.steps == 4  # anchors 0, 0.25, 0.4 (theta jumps), 1, 2
        assert e.stepping == {"route": "exact-law", "steps": 4}

    def test_euler_takes_dt_substeps(self):
        m = dataclasses.replace(builtin_model("gbm"), law=None)
        e = simulate(m, 0.3, 1.0, 0.0, self.GRID, self.CFG)
        assert e.steps == 200
        assert e.stepping == {"route": "euler", "dt": 0.01}
        # while theta moves, the lognormal law steps exactly on dt substeps
        gbm = builtin_model("gbm")
        theta = ThetaProcess(kind="meanrev", sigma0=0.3, rate=2.0, level=0.3, vol_of_vol=0.4)
        moving = step_paths(gbm, theta, 1.0, 0.0, [0.0, 1.0], self.CFG)
        assert (moving.steps, moving.stepping) == (100, {"route": "exact-law", "dt": 0.01})

    def test_euler_draw_schedule_is_kept(self):
        # a model without an exact sampler steps as it always has: one
        # normal per path per dt substep from its block's substream
        m = dataclasses.replace(builtin_model("logdiff"), law=None)
        sigma, dt, n = 0.6, 0.01, 3000
        e = simulate(m, sigma, 0.5, 0.0, [0.0, 0.3, 1.0], SimConfig(n_paths=n, dt=dt, seed=23))
        rng = rng_substream(23, 0)
        z = np.full(n, 0.5)
        alive = np.ones(n, dtype=bool)
        tau = np.full(n, np.nan)
        stored = [z.copy()]
        for a, b, n_sub in ((0.0, 0.3, 30), (0.3, 1.0, 70)):
            fine = np.append(a + (b - a) * np.arange(n_sub) / n_sub, b)
            for lo, hi in zip(fine[:-1], fine[1:]):
                xi = rng.standard_normal(n)
                z = np.where(alive, z + sigma * math.sqrt(hi - lo) * m.beta(z) * xi, z)
                hit = alive & ((z <= 0.0) | (z >= 1.0))
                z[alive & (z <= 0.0)] = 0.0
                z[alive & (z >= 1.0)] = 1.0
                tau[hit] = hi
                alive &= ~hit
            stored.append(z.copy())
        assert e.steps == 100
        assert np.array_equal(e.states, np.column_stack(stored))
        assert np.array_equal(e.absorbed_at, tau, equal_nan=True)

    def test_a_negative_theta_steps_at_its_square(self):
        # vol_of_vol 0 makes theta deterministic: it reverts from 0.2 toward
        # -0.3 and crosses 0 near t = 0.26. The lognormal step multiplies
        # E[S^2] by exp(theta_j^2 dt) on each substep, so E[S_T^2]/s0^2 is
        # exp(sum_j theta_j^2 dt) over the same Euler recursion of theta,
        # also after theta turns negative
        gbm = builtin_model("gbm")
        proc = ThetaProcess(kind="meanrev", sigma0=0.2, rate=2.0, level=-0.3, vol_of_vol=0.0)
        cfg = SimConfig(n_paths=100_000, dt=0.01, seed=17)
        e = step_paths(gbm, proc, 1.0, 0.0, [0.0, 1.0], cfg)
        th, clock = proc.sigma0, 0.0
        for _ in range(e.steps):
            clock += th * th * cfg.dt
            th = th + proc.rate * (proc.level - th) * cfg.dt
        assert e.steps == 100 and e.theta[0, -1] == pytest.approx(th, rel=1e-12) and th < 0.0
        mean, se = sample_mean(e.states[:, -1] ** 2)
        assert abs(mean - math.exp(clock)) <= 4.0 * se
