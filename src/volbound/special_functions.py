"""Special functions: normal CDF/PDF, modified Bessel K0 and K1, and the
exponentially scaled modified Bessel function e^{-x} I1(x).

All entry points accept a float or a numpy array and evaluate elementwise,
with numpy and the standard library alone.

The Bessel kernels take the shape of Cephes' (Moshier 1989, Methods and
Programs for Mathematical Functions): on each side of a split, K0 and K1 at
x = 2 and e^{-x} I1 at x = 8, a series times an elementary factor.
Clenshaw's recurrence (Clenshaw 1955, MTAC 9) sums each Chebyshev series,
and Horner's rule the power series of I0 and I1, in place over chunks of at
most _CHUNK cells, so that a call costs its output plus three chunk-sized
scratch vectors and little more.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

__all__ = [
    "norm_cdf",
    "norm_pdf",
    "bessel_k",
    "bessel_i1e",
]

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_SQRT_HALF = math.sqrt(0.5)


def norm_pdf(x):
    """Standard normal density."""
    x = np.asarray(x, dtype=np.float64)
    out = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
    return float(out) if out.ndim == 0 else out


def norm_cdf(x):
    """Standard normal distribution function.

    0.5*erfc(-x/sqrt(2)) by the standard library's math.erfc, streamed
    element by element into one float64 array: no object array or list is
    built, so an array costs two of its own size at peak. It agrees with
    scipy.special.ndtr to 1e-13 relative on [-37.5, 37.5]. Below x ~ -37.6,
    where ndtr flushes to 0, it keeps the subnormal value; it reaches 0
    below x ~ -38.5.
    """
    arr = np.asarray(x, dtype=np.float64)
    # a nan anywhere makes min and max nan, and every comparison false
    if arr.size and not -math.inf < arr.min() <= arr.max() < math.inf:
        raise DomainError("norm_cdf requires finite input")
    y = arr * -_SQRT_HALF  # a * sqrt(1/2), the argument ndtr forms
    out = np.fromiter(map(math.erfc, y.flat), np.float64, y.size).reshape(arr.shape)
    out *= 0.5
    return float(out) if out.ndim == 0 else out


# ===== modified Bessel functions =====
#
# Each table is c_0 .. c_{n-1} of a series sum_k c_k T_k(t) on [-1, 1], made
# once with mpmath at 40 significant digits: f at the 64 Chebyshev nodes
# t_j = cos(pi (j + 1/2) / 64), c_k = (2 - [k = 0]) / 64 sum_j f(t_j)
# cos(pi k (j + 1/2) / 64), each c_k rounded to the nearest double, and the
# series cut where what it drops is below 1e-17 of the function it serves.
# tests/test_special_functions.py remakes them by this recipe.
#
# x >= 2, t = 4/x - 1: e^x sqrt(x) K0(x) and e^x sqrt(x) K1(x).
# x <= 2, t = x^2/2 - 1: K0(x) + ln(x/2) I0(x) and x K1(x) - x ln(x/2) I1(x),
#   even entire functions of x, so that K0 = _K0_SMALL - ln(x/2) I0 and
#   K1 = _K1_SMALL/x + x ln(x/2) I1/x, with I0 and I1/x their power series.
# x >= 8, t = 16/x - 1: sqrt(x) e^{-x} I1(x); below 8, e^{-x} I1(x) is
#   e^{-x} x times I1/x's power series.


def _terms(*coeffs):
    """A series' coefficients as 0-d arrays, which numpy takes as an operand
    of a pass faster than floats."""
    return tuple(np.array(c) for c in coeffs)


_K0_LARGE = _terms(
    1.2201515410329777, -0.0314481013119645, 0.0015698838857300533,
    -0.00012849549581627802, 1.39498137188765e-05, -1.8317555227191195e-06,
    2.766813639445015e-07, -4.660489897687948e-08, 8.574034017414225e-09,
    -1.6975345093890614e-09, 3.5773972814003283e-10, -7.957489244477396e-11,
    1.8559491149549264e-11, -4.514597883374519e-12, 1.1403405882073441e-12,
    -2.9800969231481784e-13, 8.032890775068375e-14, -2.2275133267462965e-14,
    6.340076476276646e-15, -1.848593377920907e-15, 5.5120559994043335e-16,
    -1.6782311257549006e-16, 5.2103917776435543e-17, -1.6475805939842632e-17,
)
_K1_LARGE = _terms(
    1.3603130952422213, 0.10392373657681724, -0.002857816859622779,
    0.00019521551847135162, -1.936197974166083e-05, 2.406484947837217e-06,
    -3.5019606030878126e-07, 5.7410841254500495e-08, -1.0345762465678097e-08,
    2.0150497551970347e-09, -4.1903547593419254e-10, 9.218315187605315e-11,
    -2.129967838427791e-11, 5.139639673482343e-12, -1.2891739609498229e-12,
    3.348419666052243e-13, -8.976705182010146e-14, 2.4771544242195988e-14,
    -7.0198370892147685e-15, 2.038703166239861e-15, -6.057047270643018e-16,
    1.8380935752430455e-16, -5.689462849193648e-17, 1.7940510478863572e-17,
)
_K0_SMALL = _terms(
    -0.2676636966169514, 0.3442898999246285, 0.0359799365153615, 0.001264615411446926,
    2.286212103119452e-05, 2.5347910790261494e-07, 1.904516377220209e-09,
    1.0349695257633625e-11, 4.2598161427910826e-14, 1.3744654358807508e-16,
)
_K1_SMALL = _terms(
    0.7626501136694739, -0.3531559607765449, -0.12261118082265715,
    -0.006975723859639864, -0.0001730288957513052, -2.4334061415659684e-06,
    -2.213387630734726e-08, -1.4114883926335278e-10, -6.666901694199329e-13,
    -2.427449850519366e-15, -7.023863479386288e-18,
)
_I1E_LARGE = _terms(
    0.38928811750914005, -0.009761097491361469, -0.00011058893876262371,
    -3.882564808877691e-06, -2.512236237870209e-07, -2.6314688468895196e-08,
    -3.835380385964237e-09, -5.589743462196584e-10, -1.8974958123505413e-11,
    3.2526035830154884e-11, 1.4125807436613782e-11, 2.0356285441470896e-12,
    -7.198551776245908e-13, -4.0835511110921974e-13, -2.1015418427726643e-14,
    4.272440016711951e-14, 1.0420276984128802e-14, -3.8144030724370075e-15,
    -1.8803547755107825e-15, 3.3082023109209285e-16, 2.96262899764595e-16,
    -3.209525921993424e-17, -4.6503053684893586e-17, 4.414348323071708e-18,
    7.517296310842105e-18, -9.314178867326884e-19, -1.242193275194891e-18,
)

#: I0(x) = sum_k y^k / k!^2 and I1(x)/x = sum_k y^k / (2 k! (k+1)!) in
#: y = x^2/4 (Abramowitz & Stegun 9.6.10): positive terms, which Horner's
#: rule sums to a few ulps with one scratch vector fewer than Clenshaw.
#: Cut where the rest is below 1e-17 of the sum: I0 after 12 terms on
#: x <= 2, I1/x after 12 on x <= 2 (K1) and after 22 on x <= 8 (e^{-x} I1).
#: Each coefficient is an int over an int, which Python rounds correctly.
_I0_SERIES = _terms(*(1 / math.factorial(k) ** 2 for k in range(12)))
_I1_SERIES = _terms(*(1 / (2 * math.factorial(k) * math.factorial(k + 1)) for k in range(22)))

#: cells per pass. A chunk makes a hundred-odd numpy calls, and two workers
#: summing tail-term blocks hand the GIL to each other at each one: on the
#: logdiff meanrev check (393,216-cell blocks), 4096-cell chunks took 1.7 s
#: of compute, 16384 0.99 s and 65536 0.75 s, where unchunked took 0.88 s.
#: The three scratch vectors are then 1.5 MB.
_CHUNK = 65536
_HALF = np.array(0.5)


def _clenshaw(c, t2, out, b1, b2):
    """sum_k c[k] T_k(t) into out, for t2 = 2t; b1 and b2 are scratch of
    out's shape.

    b_k = c_k + 2t b_{k+1} - b_{k+2} runs from the top, and the sum is
    c_0 + t b_1 - b_2: three numpy passes per term, the same arithmetic for
    a cell whatever else shares the call. The three buffers take b_k in
    turn, started so that the last write lands in out.
    """
    n = len(c)
    bufs = [b1, b2]
    bufs.insert((n - 2) % 3, out)
    b = bufs[0]
    np.multiply(t2, c[-1], b)
    np.add(b, c[-2], b)
    prev, prev2 = b, c[-1]
    for i in range(1, n - 2):
        b = bufs[i % 3]
        np.multiply(t2, prev, b)
        np.subtract(b, prev2, b)
        np.add(b, c[n - 2 - i], b)
        prev, prev2 = b, prev
    np.multiply(t2, prev, out)
    np.multiply(out, _HALF, out)
    np.subtract(out, prev2, out)
    return np.add(out, c[0], out)


def _horner(a, y, out):
    """sum_k a[k] y^k into out: two numpy passes per term."""
    np.multiply(y, a[-1], out)
    np.add(out, a[-2], out)
    for a_k in a[-3::-1]:
        np.multiply(out, y, out)
        np.add(out, a_k, out)
    return out


# Each branch writes its function of x into out, on every cell of x: a cell
# outside the branch's interval gets a value of no use, and the caller
# overwrites it. t2, b1 and b2 are scratch of x's shape.


def _k_large(table):
    def branch(x, out, t2, b1, b2):
        np.divide(8.0, x, t2)
        np.subtract(t2, 2.0, t2)
        _clenshaw(table, t2, out, b1, b2)
        np.negative(x, b1)
        np.exp(b1, b1)
        np.multiply(out, b1, out)
        np.sqrt(x, b1)
        np.divide(out, b1, out)

    return branch


def _k_small(table, i_series, order):
    """K0 = table - ln(x/2) I0, or K1 = table/x + x ln(x/2) I1/x."""

    def branch(x, out, t2, b1, b2):
        np.multiply(x, x, t2)
        np.subtract(t2, 2.0, t2)
        _clenshaw(table, t2, out, b1, b2)
        np.multiply(x, x, t2)
        np.multiply(t2, 0.25, t2)
        _horner(i_series, t2, b1)
        np.multiply(x, 0.5, b2)
        np.log(b2, b2)
        np.multiply(b1, b2, b1)
        if order == 0:
            np.subtract(out, b1, out)
        else:
            np.divide(out, x, out)
            np.multiply(b1, x, b1)
            np.add(out, b1, out)

    return branch


def _i1e_small(x, out, t2, b1, b2):
    np.multiply(x, x, t2)
    np.multiply(t2, 0.25, t2)
    _horner(_I1_SERIES, t2, out)
    np.negative(x, b1)
    np.exp(b1, b1)
    np.multiply(b1, x, b1)
    np.multiply(out, b1, out)


def _i1e_large(x, out, t2, b1, b2):
    np.divide(32.0, x, t2)
    np.subtract(t2, 2.0, t2)
    _clenshaw(_I1E_LARGE, t2, out, b1, b2)
    np.sqrt(x, b1)
    np.divide(out, b1, out)


def _piecewise(x, split, lower, upper):
    """lower(x) where x <= split, else upper(x), elementwise.

    Chunk by chunk, the branch that holds most of the chunk's cells runs on
    all of them, and then the other on the rest: at most half the chunk,
    gathered into halves of the three scratch vectors, so a call holds its
    output, three chunk-sized vectors and the rest's indices.
    """
    arr = np.asarray(x, dtype=np.float64)
    flat = arr.ravel()
    n = flat.size
    out = np.empty(n)
    scratch = [np.empty(min(n, _CHUNK)) for _ in range(3)]
    # a branch run on cells outside its interval may overflow there
    with np.errstate(all="ignore"):
        for lo in range(0, n, _CHUNK):
            xc, oc = flat[lo:lo + _CHUNK], out[lo:lo + _CHUNK]
            m = xc.size
            low = np.less_equal(xc, split)
            n_low = int(np.count_nonzero(low))
            if 2 * n_low >= m:
                major, minor, rest = lower, upper, np.logical_not(low, low)
            else:
                major, minor, rest = upper, lower, low
            if m < scratch[0].size:
                scratch = [b[:m] for b in scratch]
            major(xc, oc, *scratch)
            if n_low not in (0, m):
                rest = np.flatnonzero(rest)
                r = rest.size
                xr, vals, *rest_scratch = [b[:r] for b in scratch] + [b[r:2 * r] for b in scratch]
                np.take(xc, rest, out=xr)
                minor(xr, vals, *rest_scratch[:3])
                oc[rest] = vals
    out = out.reshape(arr.shape)
    return float(out) if out.ndim == 0 else out


_K_BRANCHES = (
    (_k_small(_K0_SMALL, _I0_SERIES, 0), _k_large(_K0_LARGE)),
    (_k_small(_K1_SMALL, _I1_SERIES[:12], 1), _k_large(_K1_LARGE)),
)


def bessel_k(order: int, x):
    """Modified Bessel function of the second kind, order 0 or 1.

    Positive and strictly decreasing on x > 0, within 1e-15 relative of
    mpmath. Raises DomainError for x <= 0, a non-finite x or an
    unsupported order.
    """
    if order not in (0, 1):
        raise DomainError(f"bessel_k supports orders 0 and 1, got {order!r}")
    arr = np.asarray(x, dtype=np.float64)
    if arr.size and not 0.0 < arr.min() <= arr.max() < math.inf:
        raise DomainError("bessel_k requires finite x > 0")
    return _piecewise(arr, 2.0, *_K_BRANCHES[order])


def bessel_i1e(x):
    """e^{-x} I1(x), the exponentially scaled modified Bessel function of the
    first kind of order 1, for real x >= 0 (inf gives 0, nan gives nan)."""
    return _piecewise(x, 8.0, _i1e_small, _i1e_large)
