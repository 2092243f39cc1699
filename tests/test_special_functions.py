import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.special import ndtr

from volbound import special_functions
from volbound.special_functions import bessel_i1e, bessel_k, norm_cdf, norm_pdf

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



# mpmath at 40 digits (besselk, besseli, exp), rounded to the nearest double,
# either side of each split (the doubles next to 2 and 8), at the ends of the
# range and in between
MPMATH_K = {
    0: {
        1e-300: 690.8914594138721, 1e-06: 13.93144207362642, 1.0: 0.42102443824070834,
        1.9999999999999998: 0.11389387274953347, 2.0: 0.11389387274953344,
        2.0000000000000004: 0.11389387274953337, 5.0: 0.0036910983340425942,
        700.0: 4.669776431685377e-306,
    },
    1: {
        1e-300: 9.999999999999999e299, 1e-06: 999999.9999927843, 1.0: 0.6019072301972346,
        1.9999999999999998: 0.13986588181652246, 2.0: 0.13986588181652243,
        2.0000000000000004: 0.13986588181652235, 5.0: 0.004044613445452165,
        700.0: 4.6731107967079664e-306,
    },
}
MPMATH_I1E = {
    0.0: 0.0, 1e-300: 5e-301, 1e-06: 4.999995000003125e-07, 2.0: 0.21526928924893765,
    7.999999999999999: 0.13414249329269817, 8.0: 0.13414249329269817,
    8.000000000000002: 0.13414249329269817, 30.0: 0.07191633059864755,
    700.0: 0.015070519444716848, 1e15: 1.2615662610100795e-08,
}
#: worst relative distance from scipy.special on the sweep below: 1.8e-15
#: for k0 (at x = 0.99, where scipy is 1.2e-15 from mpmath and bessel_k
#: 1.1e-15), 1.4e-15 for i1e (at x = 7.6) and 1.0e-15 for k1
SCIPY_SWEEP_REL = 2.5e-15


class TestBesselKernels:
    @pytest.mark.parametrize("order", [0, 1])
    def test_k_matches_mpmath_at_the_split_and_the_ends(self, order):
        xs = np.array(list(MPMATH_K[order]))
        want = np.array(list(MPMATH_K[order].values()))
        assert np.all(np.abs(bessel_k(order, xs) / want - 1.0) <= 1e-15)

    def test_i1e_matches_mpmath_at_the_split_and_the_ends(self):
        xs = np.array(list(MPMATH_I1E))
        want = np.array(list(MPMATH_I1E.values()))
        got = bessel_i1e(xs)
        assert got[0] == 0.0
        assert np.all(np.abs(got[1:] / want[1:] - 1.0) <= 1.5e-15)

    def test_i1e_ends(self):
        assert bessel_i1e(0.0) == 0.0
        assert bessel_i1e(math.inf) == 0.0
        assert math.isnan(bessel_i1e(math.nan))

    def test_dense_sweep_matches_scipy(self):
        # scipy.special's compiled Cephes kernels, a test-only oracle
        x = np.geomspace(1e-6, 700.0, 200_001)
        for ours, theirs in ((lambda v: bessel_k(0, v), special.k0),
                             (lambda v: bessel_k(1, v), special.k1),
                             (bessel_i1e, special.i1e)):
            assert np.max(np.abs(ours(x) / theirs(x) - 1.0)) <= SCIPY_SWEEP_REL
        x = np.geomspace(700.0, 1e15, 10_001)
        assert np.max(np.abs(bessel_i1e(x) / special.i1e(x) - 1.0)) <= SCIPY_SWEEP_REL

    def test_a_cell_does_not_depend_on_its_neighbours(self):
        # each cell takes its own branch's arithmetic, whichever branch holds
        # most of its chunk and however many cells share the call
        rng = np.random.default_rng(8)
        x = np.concatenate([rng.uniform(0.01, 2.0, 300), rng.uniform(2.0, 40.0, 100)])
        for f in (lambda v: bessel_k(0, v), lambda v: bessel_k(1, v), bessel_i1e):
            whole = f(x)
            assert np.array_equal(whole, f(x[::-1])[::-1])
            assert np.array_equal(whole[-100:], f(x[-100:]))
            assert np.array_equal(whole[:3], [f(v) for v in x[:3]])
            assert np.array_equal(whole, f(x.reshape(20, 20)).ravel())

    @pytest.mark.parametrize("f,lo,hi", [(lambda v: bessel_k(1, v), 1.0, 3.0),
                                         (bessel_i1e, 4.0, 12.0)])
    def test_memory_is_the_output_plus_fixed_chunk_scratch(self, f, lo, hi):
        # Clenshaw runs in place over chunks: beyond its output a call holds
        # three chunk-sized scratch vectors, the chunk's mask and the indices
        # of its minority branch, here half the chunk (4.1 chunks measured)
        x = np.random.default_rng(9).uniform(lo, hi, 1_000_000)
        f(x[:10])
        tracemalloc.start()
        try:
            f(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        chunk = 8 * special_functions._CHUNK
        assert peak <= x.nbytes + 5 * chunk


# The recipe the tables in special_functions were made by: f at the Chebyshev
# nodes of [-1, 1], a discrete cosine transform at 40 digits, each
# coefficient rounded to the nearest double.
CHEBYSHEV_NODES = 64
#: name -> (x as a function of t, the function of x the table sums)
TABLES = {
    "_K0_LARGE": (lambda t: 4 / (t + 1), lambda mp, x: mp.exp(x) * mp.sqrt(x) * mp.besselk(0, x)),
    "_K1_LARGE": (lambda t: 4 / (t + 1), lambda mp, x: mp.exp(x) * mp.sqrt(x) * mp.besselk(1, x)),
    "_K0_SMALL": (lambda t: (2 * (t + 1)) ** 0.5,
                  lambda mp, x: mp.besselk(0, x) + mp.log(x / 2) * mp.besseli(0, x)),
    "_K1_SMALL": (lambda t: (2 * (t + 1)) ** 0.5,
                  lambda mp, x: x * mp.besselk(1, x) - x * mp.log(x / 2) * mp.besseli(1, x)),
    "_I1E_LARGE": (lambda t: 16 / (t + 1), lambda mp, x: mp.sqrt(x) * mp.exp(-x) * mp.besseli(1, x)),
}


@pytest.mark.parametrize("name", sorted(TABLES))
def test_chebyshev_tables_follow_their_recipe(name):
    mp = pytest.importorskip("mpmath")
    x_of_t, f = TABLES[name]
    with mp.workdps(40):
        angles = [mp.pi * (j + mp.mpf(0.5)) / CHEBYSHEV_NODES for j in range(CHEBYSHEV_NODES)]
        values = [f(mp, x_of_t(mp.cos(a))) for a in angles]
        coeffs = [
            (2 - (k == 0)) * mp.fsum(v * mp.cos(k * a) for v, a in zip(values, angles))
            / CHEBYSHEV_NODES
            for k in range(40)
        ]
        frozen = [float(c) for c in getattr(special_functions, name)]
        n = len(frozen)
        assert frozen == [float(c) for c in coeffs[:n]]
        # the cut: what the table drops is below 1e-17 of the smallest value
        # on the nodes of the function it serves: K0 and x K1 for the tables
        # below x = 2 (their own sums cross zero), the summed one otherwise
        served = values
        if name == "_K0_SMALL":
            served = [mp.besselk(0, x_of_t(mp.cos(a))) for a in angles]
        elif name == "_K1_SMALL":
            served = [x_of_t(mp.cos(a)) * mp.besselk(1, x_of_t(mp.cos(a))) for a in angles]
        assert mp.fsum(abs(c) for c in coeffs[n:]) < 1e-17 * min(abs(v) for v in served)


@pytest.mark.parametrize("name,order,n,x_max", [
    ("_I0_SERIES", 0, 12, 2.0), ("_I1_SERIES", 1, 12, 2.0), ("_I1_SERIES", 1, 22, 8.0),
])
def test_power_series_are_cut_below_1e17_of_their_sum(name, order, n, x_max):
    # I0 and I1(x)/x in y = x^2/4: every term is positive, and on x <= x_max
    # the terms left out sum to below 1e-17 of the sum (the rest is largest
    # against the sum at x_max)
    mp = pytest.importorskip("mpmath")
    terms = getattr(special_functions, name)[:n]
    with mp.workdps(40):
        want = [1 / (mp.factorial(k) * mp.factorial(k + order) * 2**order) for k in range(60)]
        assert [float(a) for a in terms] == [float(w) for w in want[:n]]
        y = mp.mpf(x_max) ** 2 / 4
        rest = mp.fsum(w * y**k for k, w in enumerate(want) if k >= n)
        assert rest < 1e-17 * mp.fsum(w * y**k for k, w in enumerate(want[:n]))
