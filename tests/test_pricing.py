import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import lognormal_call_oracle, lognormal_sq_call_oracle
from volbound.errors import ConfigurationError, DomainError, SearchError
from volbound.models import SimConfig, builtin_model
from volbound.pricing import (
    ImpliedVolResult,
    PriceQuote,
    bs_call_price,
    implied_vol,
    _bs_call_core,
    _bs_call_moments,
    mc_call_price,
    quad_call_price,
)

GBM = builtin_model("gbm")

# quadrature of the lognormal payoff integral, frozen from conftest oracles
ATM_1Y_S02 = 0.07965567455405796
K12_1Y_S035 = 0.07281405995416475


class TestClosedForm:
    def test_zero_strike_returns_start(self):
        assert bs_call_price(0.0, 1.0, 0.0, 0.2, 1.3).value == 1.3

    def test_zero_variance_returns_intrinsic(self):
        assert bs_call_price(0.0, 1.0, 0.8, 0.0, 1.3).value == 0.5
        assert bs_call_price(1.0, 1.0, 0.8, 0.4, 1.3).value == 0.5
        assert bs_call_price(0.0, 1.0, 1.8, 0.0, 1.3).value == 0.0

    def test_atm_matches_payoff_quadrature(self):
        q = bs_call_price(0.0, 1.0, 1.0, 0.2, 1.0)
        assert q.value == pytest.approx(ATM_1Y_S02, abs=1e-10)
        assert q.se == 0.0

    def test_against_live_oracle_grid(self):
        for k in (0.3, 0.9, 1.0, 1.4, 2.5):
            for v in (0.01, 0.09, 0.5):
                want = lognormal_call_oracle(1.2, k, v)
                got = bs_call_price(0.0, 1.0, k, math.sqrt(v), 1.2).value
                assert got == pytest.approx(want, abs=1e-10)

    def test_arbitrage_bounds_and_monotonicity(self):
        ks = np.linspace(0.0, 3.0, 61)
        prices = np.array([bs_call_price(0.0, 2.0, k, 0.4, 1.0).value for k in ks])
        assert np.all(prices <= 1.0 + 1e-15)
        assert np.all(prices >= np.maximum(1.0 - ks, 0.0) - 1e-15)
        assert np.all(np.diff(prices) <= 1e-15)
        # convexity in strike: second differences nonnegative
        assert np.all(np.diff(prices, 2) >= -1e-12)

    def test_monotone_in_sigma(self):
        sigmas = np.linspace(0.01, 3.0, 50)
        prices = [bs_call_price(0.0, 1.0, 1.1, s, 1.0).value for s in sigmas]
        assert np.all(np.diff(prices) > 0.0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bs_call_price(0.0, 1.0, -0.5, 0.2, 1.0)
        with pytest.raises(DomainError):
            bs_call_price(0.0, 1.0, 1.0, 0.2, -1.0)
        with pytest.raises(DomainError):
            bs_call_price(1.0, 0.5, 1.0, 0.2, 1.0)
        with pytest.raises(DomainError):
            bs_call_price(0.0, 1.0, 1.0, -0.2, 1.0)

    @given(
        st.floats(0.05, 3.0),
        st.floats(0.01, 2.0),
        st.floats(0.1, 4.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_bounds_property(self, k, sigma, z):
        value = bs_call_price(0.0, 1.5, k, sigma, z).value
        assert max(z - k, 0.0) <= value <= z

    def test_rounding_cannot_price_below_intrinsic(self):
        # the formula rounds to 2.9499999999999997 here, an ulp under intrinsic
        assert bs_call_price(0.0, 1.5, 0.05, 0.41796875, 3.0).value >= 3.0 - 0.05


def _second_moment(z, k, v):
    return _bs_call_moments(z, k, v)[1]


class TestSecondMoment:
    # (z, K, v): the degenerate cells, then deep in and out of the money
    EDGE_CASES = [
        (1.3, 0.8, 0.0), (0.5, 0.8, 0.0), (1.3, 0.0, 0.2), (0.0, 0.8, 0.2),
        (0.0, 0.0, 0.2), (4.0, 1.5, 4e-6), (1.0, 3.0, 0.09), (1.0, 0.05, 2.0),
    ]

    def test_against_quadrature_oracle(self):
        rng = np.random.default_rng(31)
        random_cases = zip(
            rng.uniform(0.1, 3.0, 40).tolist(),
            rng.uniform(0.0, 3.0, 40).tolist(),
            rng.uniform(1e-4, 2.0, 40).tolist(),
        )
        for z, k, v in [*self.EDGE_CASES, *random_cases]:
            want = lognormal_sq_call_oracle(z, k, v)
            assert _second_moment(z, k, v) == pytest.approx(want, rel=1e-9, abs=1e-14)

    def test_exact_limits(self):
        assert _second_moment(1.3, 0.8, 0.0) == (1.3 - 0.8) ** 2
        assert _second_moment(0.5, 0.8, 0.0) == 0.0
        assert _second_moment(0.0, 0.8, 0.2) == 0.0
        assert _second_moment(1.3, 0.0, 0.2) == 1.3 * 1.3 * math.exp(0.2)
        # scalar cells in, floats out, the call price included
        assert _bs_call_moments(1.3, 0.0, 0.2) == (1.3, 1.3 * 1.3 * math.exp(0.2))
        assert all(type(x) is float for x in _bs_call_moments(1.2, 0.9, 0.09))

    def test_vectorized_and_bounded(self):
        z, k, v = np.meshgrid([0.0, 0.4, 1.0, 2.5], [0.0, 0.3, 1.0, 4.0], [0.0, 1e-8, 0.1, 3.0])
        got = _second_moment(z, k, v)
        assert got.shape == z.shape
        for idx in np.ndindex(z.shape):
            want = _second_moment(float(z[idx]), float(k[idx]), float(v[idx]))
            assert got[idx] == pytest.approx(want, rel=1e-14, abs=1e-300)
        c = _bs_call_core(z, k, v)
        # Jensen on both convex payoffs, and E[Z^2] from above
        assert np.all(got >= np.square(np.maximum(z - k, 0.0)))
        assert np.all(got >= np.square(c) * (1.0 - 1e-12))
        assert np.all(got <= np.square(z) * np.exp(v))


# one cell of (z, K, v): live values mixed with the degenerate K = 0, v = 0, z = 0
_CELL = st.tuples(
    st.one_of(st.just(0.0), st.floats(1e-3, 10.0)),
    st.one_of(st.just(0.0), st.floats(1e-3, 10.0)),
    st.one_of(st.just(0.0), st.floats(1e-10, 9.0)),
)


class TestFusedMoments:
    @given(st.lists(_CELL, min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_call_is_bs_call_core_bit_for_bit(self, cells):
        z, k, v = (np.array(col) for col in zip(*cells))
        c, s2 = _bs_call_moments(z, k, v)
        want = _bs_call_core(z, k, v)
        assert c.shape == s2.shape == want.shape
        assert np.array_equal(c.view(np.int64), want.view(np.int64))
        # a mixed array takes its live cells by mask, a cell alone as a whole
        alone = np.array([_bs_call_core(*cell) for cell in cells])
        assert np.array_equal(c.view(np.int64), alone.view(np.int64))
        # S2 keeps its clamps on every cell, live or degenerate
        assert np.all(s2 >= np.square(np.maximum(z - k, 0.0)))
        assert np.all(s2 <= np.square(z) * np.exp(v))


class TestQuadrature:
    def test_matches_closed_form_on_grid(self):
        # the integral's reach is immaterial out to sigma = 1 and K = 5; at
        # sigma = 1e-3 a strike of 0.01 sits 9000 sd below the bulk, which
        # the quadrature must not start from
        for sigma in (1e-3, 0.1, 0.3, 1.0):
            for k in (0.01, 0.2, 0.6, 1.0, 1.4, 2.0, 5.0):
                for T in (0.25, 1.0, 4.0):
                    want = bs_call_price(0.0, T, k, sigma, 1.0).value
                    got = quad_call_price(GBM, sigma, 0.0, T, k, 1.0).value
                    assert got == pytest.approx(want, rel=0.0, abs=1e-12)

    def test_zero_strike(self):
        got = quad_call_price(GBM, 0.4, 0.0, 2.0, 0.0, 1.7).value
        assert got == pytest.approx(1.7, abs=1e-12)

    def test_rejects_models_without_density(self):
        with pytest.raises(ConfigurationError):
            quad_call_price(builtin_model("bessel0"), 0.3, 0.0, 1.0, 1.0, 1.0)


class TestMonteCarlo:
    def test_agrees_with_closed_form(self):
        cfg = SimConfig(n_paths=40000, dt=0.01, seed=11)
        for k in (0.5, 1.0, 1.5):
            for T in (0.5, 1.0):
                q = mc_call_price(GBM, 0.3, 0.0, T, k, 1.0, cfg)
                want = bs_call_price(0.0, T, k, 0.3, 1.0).value
                assert abs(q.value - want) < 3.0 * q.se

    def test_sigma_zero_exact(self):
        q = mc_call_price(GBM, 0.0, 0.0, 1.0, 0.7, 1.0, SimConfig(n_paths=100, dt=0.1, seed=1))
        assert q.value == pytest.approx(0.3, abs=1e-15)
        assert q.se == 0.0

    def test_unreachable_strike_prices_zero(self):
        q = mc_call_price(GBM, 0.1, 0.0, 0.5, 50.0, 1.0, SimConfig(n_paths=2000, dt=0.01, seed=2))
        assert q.value == 0.0

    def test_absorbed_paths_pay_boundary_value(self):
        # bessel0 absorbs at 0; with strike 0 the payoff is Z_T itself and
        # the martingale property pins the mean at z0
        m = builtin_model("bessel0")
        q = mc_call_price(m, 1.0, 0.0, 1.0, 0.0, 0.5, SimConfig(n_paths=30000, dt=0.005, seed=3))
        assert abs(q.value - 0.5) < 3.0 * q.se

    def test_exact_scheme_route(self):
        cfg = SimConfig(n_paths=50000, dt=1.0, seed=4)
        q = mc_call_price(GBM, 0.25, 0.0, 1.0, 1.0, 1.0, cfg)
        want = bs_call_price(0.0, 1.0, 1.0, 0.25, 1.0).value
        assert abs(q.value - want) < 3.0 * q.se


class TestImpliedVol:
    def test_round_trip(self):
        for sigma in (0.05, 0.2, 0.5, 1.0):
            for k in (0.5, 1.0, 1.5):
                price = bs_call_price(0.0, 10.0, k, sigma, 1.0).value
                r = implied_vol(GBM, price, 0.0, 10.0, k, 1.0)
                assert r.sigma == pytest.approx(sigma, abs=1e-8)
                assert r.forward_map == "gbm-closed-form"

    def test_quadrature_oracle_forward_price(self):
        r = implied_vol(GBM, K12_1Y_S035, 0.0, 1.0, 1.2, 1.0)
        assert r.sigma == pytest.approx(0.35, abs=1e-8)

    def test_result_invariants(self):
        price = bs_call_price(0.0, 1.0, 1.0, 0.4, 1.0).value
        r = implied_vol(GBM, price, 0.0, 1.0, 1.0, 1.0)
        assert r.bracket[0] < r.sigma < r.bracket[1]
        assert r.residual <= 1e-10
        assert r.iterations > 0

    def test_boundary_price_rejected(self):
        with pytest.raises(DomainError):
            implied_vol(GBM, 0.3, 0.0, 1.0, 0.7, 1.0)  # price == intrinsic
        with pytest.raises(DomainError):
            implied_vol(GBM, 1.0, 0.0, 1.0, 0.7, 1.0)  # price == start value
        with pytest.raises(DomainError):
            implied_vol(GBM, 1.2, 0.0, 1.0, 0.7, 1.0)

    def test_zero_maturity_rejected(self):
        with pytest.raises(DomainError):
            implied_vol(GBM, 0.1, 1.0, 1.0, 1.0, 1.0)

    def test_sigma_outside_default_bracket(self):
        price = bs_call_price(0.0, 1.0, 1.0, 7.0, 1.0).value
        r = implied_vol(GBM, price, 0.0, 1.0, 1.0, 1.0)
        assert r.sigma == pytest.approx(7.0, rel=1e-7)

    @pytest.mark.parametrize("sigma, k", [(0.2, 1.0), (0.02, 1.5), (7.0, 0.5), (1e-5, 1.0)])
    def test_sigma_is_the_least_float_reaching_the_quote(self, sigma, k):
        # bisection to adjacent floats: the float below sigma prices under the
        # quote and sigma at or above it. sigma = 1e-5 lies below the default
        # bracket, whose lower end is first moved down to reach it
        price = bs_call_price(0.0, 1.0, k, sigma, 1.0).value
        r = implied_vol(GBM, price, 0.0, 1.0, k, 1.0)
        below = math.nextafter(r.sigma, 0.0)
        price_at = lambda sig: _bs_call_core(1.0, k, sig * sig)  # noqa: E731
        assert price_at(below) < price <= price_at(r.sigma)
        assert r.sigma == pytest.approx(sigma, rel=1e-7)
        assert r.bracket[0] < r.sigma < r.bracket[1]
        if sigma < 1e-4:
            assert r.bracket[0] < sigma

    def test_non_gbm_forward_map_rejected(self):
        with pytest.raises(ConfigurationError):
            implied_vol(builtin_model("bessel0"), 0.1, 0.0, 1.0, 0.6, 0.5)

    @given(st.floats(0.02, 2.0), st.floats(0.3, 2.5))
    @example(sigma=0.02, k=2.123046875)
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, sigma, k):
        from volbound.special_functions import norm_pdf

        price = bs_call_price(0.0, 1.0, k, sigma, 1.0).value
        if not max(1.0 - k, 0.0) < price < 1.0:
            return  # degenerate cell: price has collapsed onto a boundary
        if price < sys.float_info.min:
            # subnormal price (1.7e-313 at the example): the closed form is not
            # monotone in sigma there, so the inversion refuses it
            with pytest.raises(DomainError, match="normal range"):
                implied_vol(GBM, price, 0.0, 1.0, k, 1.0)
            return
        # one ulp of price maps to eps*price/vega of sigma; skip cells where
        # float64 simply does not carry the digits being asserted
        vega = norm_pdf((math.log(1.0 / k) + sigma * sigma / 2.0) / sigma)
        if math.ulp(price) > 1e-8 * vega:
            return
        r = implied_vol(GBM, price, 0.0, 1.0, k, 1.0)
        assert r.sigma == pytest.approx(sigma, abs=1e-7)


def test_quote_validation():
    with pytest.raises(DomainError):
        PriceQuote(value=math.nan, se=0.0, n_paths=0)
    with pytest.raises(DomainError):
        PriceQuote(value=0.1, se=-1.0, n_paths=0)
    with pytest.raises(DomainError):
        ImpliedVolResult(sigma=2.0, iterations=3, bracket=(0.1, 1.0), residual=0.0, forward_map="x")
