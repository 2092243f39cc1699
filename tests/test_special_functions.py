import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from volbound.special_functions import bessel_k, norm_cdf, norm_pdf

from conftest import bessel_k_oracle, norm_cdf_oracle

# Oracle values frozen from quadrature (see conftest for the oracle routes).
PHI_TABLE = {
    -2.0: 0.022750131948179205,
    -1.0: 0.15865525393145707,
    0.5: 0.6914624612740131,
    1.0: 0.8413447460685431,
    2.5: 0.9937903346742238,
}
K_TABLE = {
    (0, 0.1): 2.4270690247020164,
    (0, 1.0): 0.4210244382407083,
    (0, 20.0): 5.741237815336524e-10,
    (1, 0.1): 9.853844780870604,
    (1, 1.0): 0.6019072301972345,
    (1, 20.0): 5.883057969557038e-10,
}


class TestNormCdf:
    def test_at_zero(self):
        assert norm_cdf(0.0) == 0.5

    def test_frozen_quadrature_values(self):
        for x, ref in PHI_TABLE.items():
            assert abs(norm_cdf(x) - ref) <= 1e-12

    def test_reflection(self):
        for x in (0.5, 1.0, 2.0, 7.3):
            assert abs(norm_cdf(x) + norm_cdf(-x) - 1.0) <= 1e-14

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            norm_cdf(float("nan"))
        with pytest.raises(ValueError):
            norm_cdf(float("inf"))
        with pytest.raises(ValueError):
            norm_cdf(float("-inf"))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_one_bad_element_inside_an_array(self, bad):
        xs = np.array([[-1.0, 0.5], [2.0, 3.0]])
        xs[1, 0] = bad
        with pytest.raises(ValueError):
            norm_cdf(xs)

    def test_empty_array_gives_empty(self):
        out = norm_cdf(np.empty((0, 3)))
        assert out.shape == (0, 3)

    def test_array_input(self):
        xs = np.array([-1.0, 0.0, 1.0])
        out = norm_cdf(xs)
        assert out.shape == xs.shape
        assert out[1] == 0.5

    def test_matches_scipy_ndtr_on_a_dense_sweep(self):
        # the standard library's erfc against the compiled ndtr the package
        # used before, at 1e-4 spacing out to the end of ndtr's range
        x = np.linspace(-37.5, 37.5, 750_001)
        want = ndtr(x)
        assert np.max(np.abs(norm_cdf(x) - want) / want) <= 1e-13

    def test_keeps_the_subnormal_tail_that_ndtr_flushes_to_zero(self):
        # below -37.6 the value is subnormal: ndtr reads 0, erfc resolves it
        # to the Mills-ratio series phi(x)/|x| (1 - 1/x^2 + 3/x^4 - ...),
        # within a couple of the smallest subnormals, down to -38.45
        x = np.linspace(-38.45, -37.7, 76)
        got = norm_cdf(x)
        assert np.all(ndtr(x) == 0.0)
        assert np.all((0.0 < got) & (got < np.finfo(np.float64).tiny))
        assert np.all(np.diff(got) > 0.0)
        series = np.array([
            math.exp(-0.5 * v * v - math.log(-v) - 0.5 * math.log(2.0 * math.pi)
                     + math.log1p(-1 / v**2 + 3 / v**4 - 15 / v**6 + 105 / v**8))
            for v in x
        ])
        assert np.all(np.abs(got - series) <= 1e-12 * series + 2 * math.ulp(0.0))
        assert norm_cdf(-38.5) == 0.0

    def test_array_costs_two_of_its_size_at_peak(self):
        # erfc streams into one float64 output beside the scaled argument:
        # no object array or list of floats, which would cost several times
        # the input
        x = np.linspace(-8.0, 8.0, 100_000)
        norm_cdf(x[:10])
        tracemalloc.start()
        try:
            norm_cdf(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * x.nbytes

    @given(st.floats(-8.0, 8.0), st.floats(-8.0, 8.0))
    @settings(max_examples=200, deadline=None)
    def test_monotone_and_bounded(self, a, b):
        fa, fb = norm_cdf(a), norm_cdf(b)
        assert 0.0 <= fa <= 1.0
        if a <= b:
            assert fa <= fb


def test_norm_pdf_matches_derivative_of_cdf():
    for x in (-1.5, 0.0, 0.7, 2.2):
        h = 1e-6
        fd = (norm_cdf(x + h) - norm_cdf(x - h)) / (2.0 * h)
        assert abs(fd - norm_pdf(x)) < 1e-9


class TestBesselK:
    def test_frozen_oracle_values(self):
        for (order, x), ref in K_TABLE.items():
            assert bessel_k(order, x) == pytest.approx(ref, rel=1e-12)

    def test_oracle_sweep(self):
        # the acceptance suite runs the full 50-point sweep; spot-check here
        for x in (0.1, 0.9, 3.3, 8.0, 12.0, 18.0):
            for order in (0, 1):
                ref = bessel_k_oracle(order, x)
                assert bessel_k(order, x) == pytest.approx(ref, rel=1e-11)

    def test_small_x_limit_of_x_k1(self):
        # x*K1(x) -> 1 as x -> 0
        assert abs(1e-6 * bessel_k(1, 1e-6) - 1.0) < 1e-10
        assert abs(1e-4 * bessel_k(1, 1e-4) - 1.0) < 1e-6

    def test_recurrence_k0_from_k1(self):
        # K0(x) = -K1'(x) - K1(x)/x, K1' by central differences
        for x in (0.5, 1.7, 4.2, 10.0, 18.0):
            h = x * 1e-6
            d = (bessel_k(1, x + h) - bessel_k(1, x - h)) / (2.0 * h)
            lhs = bessel_k(0, x)
            rhs = -d - bessel_k(1, x) / x
            assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(lhs))

    def test_ordering_and_positivity(self):
        xs = np.geomspace(0.05, 40.0, 60)
        k0 = bessel_k(0, xs)
        k1 = bessel_k(1, xs)
        assert np.all(k0 > 0.0) and np.all(k1 > 0.0)
        assert np.all(k1 > k0)
        assert np.all(np.diff(k0) < 0.0) and np.all(np.diff(k1) < 0.0)
        assert np.all(np.isfinite(k0)) and np.all(np.isfinite(k1))

    def test_scalar_array_agree_bitwise(self):
        for x in (0.3, 2.7, 17.0):
            assert bessel_k(1, x) == bessel_k(1, np.array([x, x]))[0]

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bessel_k(0, 0.0)
        with pytest.raises(ValueError):
            bessel_k(1, -1.0)
        with pytest.raises(ValueError):
            bessel_k(2, 1.0)
        with pytest.raises(ValueError):
            bessel_k(0, float("nan"))
        with pytest.raises(ValueError):
            bessel_k(1, float("inf"))
        with pytest.raises(ValueError):
            bessel_k(0, float("-inf"))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1e-300])
    def test_rejects_one_bad_element_inside_an_array(self, bad):
        xs = np.array([[0.5, 1.0], [2.0, 3.0]])
        xs[1, 0] = bad
        for order in (0, 1):
            with pytest.raises(ValueError):
                bessel_k(order, xs)

    def test_empty_array_gives_empty(self):
        for order in (0, 1):
            assert bessel_k(order, np.empty(0)).shape == (0,)

    @given(st.floats(0.01, 30.0), st.floats(0.01, 30.0))
    @settings(max_examples=150, deadline=None)
    def test_strictly_decreasing_property(self, a, b):
        lo, hi = min(a, b), max(a, b)
        if hi - lo < 1e-9 * hi:
            return
        assert bessel_k(0, lo) > bessel_k(0, hi)
        assert bessel_k(1, lo) > bessel_k(1, hi)

