"""Reference diffusion families dZ = sigma beta(Z) dB (a time weight h(t) is
the clock change t -> int_0^t h^2 of them) and their convex eigenfunctions
phi solving (1/2) beta^2 phi'' = phi.

Simulation is organized in fixed-size path blocks, each with its own RNG
substream, so ensembles are bit-identical for a given seed no matter how many
workers process the blocks.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from collections import deque
from dataclasses import dataclass, replace
from typing import Callable, ClassVar

import numpy as np
# numpy loads numpy.random lazily on first use, which would land inside a
# timed computation; load it with the module instead
import numpy.random  # noqa: F401

from .errors import ConfigurationError, DomainError
from .special_functions import bessel_i1e, bessel_k, norm_pdf

__all__ = [
    "StateDiffusion",
    "PhiFunction",
    "TransitionLaw",
    "LognormalLaw",
    "SquaredBesselLaw",
    "LogBesselLaw",
    "ReferenceModel",
    "GENERATORS",
    "ThetaProcess",
    "SimConfig",
    "PathEnsemble",
    "BUILTIN_MODELS",
    "builtin_model",
    "step_paths",
    "simulate",
    "rng_substream",
    "sample_mean",
    "z_score",
    "Z_GATE",
    "bisect_increasing",
    "worker_count",
    "WORKERS_ENV_VAR",
]

WORKERS_ENV_VAR = "VOLBOUND_WORKERS"


# ===== state diffusion and eigenfunction =====


@dataclass(frozen=True)
class StateDiffusion:
    """State-dependent diffusion coefficient beta on an open interval domain."""

    evaluator: Callable[[np.ndarray], np.ndarray]
    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.lower < self.upper):
            raise DomainError(f"domain ({self.lower}, {self.upper}) must satisfy 0 <= lower < upper")

    def __call__(self, z):
        return self.evaluator(z)

    def contains(self, z: float) -> bool:
        return self.lower < z < self.upper

    def in_closure(self, z: float) -> bool:
        return self.lower <= z <= self.upper


@dataclass(frozen=True)
class PhiFunction:
    """Positive convex solution of (1/2) beta^2 phi'' = phi with derivatives.

    All three callables accept floats or numpy arrays. curvature is phi''
    when that is a constant (phi quadratic) and None otherwise; under a
    lognormal law it makes the bound's tail and strike-band terms closed form.
    """

    value: Callable
    deriv1: Callable
    deriv2: Callable
    curvature: float | None = None

    def __call__(self, z):
        return self.value(z)

    def scaled(self, c: float) -> "PhiFunction":
        """The eigenfunction c*phi (any c > 0 solves the same ODE)."""
        if not c > 0.0:
            raise DomainError("scale factor must be positive")
        return PhiFunction(
            value=lambda z: c * self.value(z),
            deriv1=lambda z: c * self.deriv1(z),
            deriv2=lambda z: c * self.deriv2(z),
            curvature=None if self.curvature is None else c * self.curvature,
        )


# ===== exact transition laws =====


# The laws' two Gauss-Legendre rules on [-1, 1], frozen so that no run builds
# one: n -> (nodes, weights) of the rule's nonnegative half, ascending, the
# values numpy.polynomial.legendre.leggauss(n) gives (numpy 2.4.6), whose
# rules are exactly symmetric. Each node is within 1 ulp of the rule at 40
# digits and each weight within 2e-12 relative (leggauss's own error);
# tests/test_models.py remakes the rules by a Newton iteration on P_n.
_GAUSS_LEGENDRE_HALVES = {
    48: (
        (
            0.03238017096286937, 0.0970046992094627, 0.1612223560688917,
            0.22476379039468905, 0.28736248735545555, 0.3487558862921607,
            0.4086864819907167, 0.4669029047509584, 0.523160974722233,
            0.5772247260839727, 0.6288673967765136, 0.6778723796326639,
            0.7240341309238146, 0.7671590325157404, 0.8070662040294426,
            0.8435882616243935, 0.8765720202742479, 0.9058791367155696,
            0.9313866907065543, 0.9529877031604308, 0.9705915925462473,
            0.9841245837228269, 0.9935301722663508, 0.9987710072524261,
        ),
        (
            0.06473769681268365, 0.06446616443594982, 0.06392423858464787,
            0.06311419228625373, 0.06203942315989242, 0.0607044391658936,
            0.059114839698395344, 0.057277292100402916, 0.05519950369998403,
            0.05289018948519344, 0.0503590355538542, 0.04761665849249024,
            0.04467456085669423, 0.04154508294346455, 0.0382413510658305,
            0.034777222564770394, 0.031167227832798097, 0.027426509708357034,
            0.023570760839324047, 0.019616160457356056, 0.015579315722943226,
            0.011477234579234614, 0.007327553901276135, 0.0031533460523098414,
        ),
    ),
    64: (
        (
            0.02435029266342443, 0.07299312178779904, 0.12146281929612054,
            0.16964442042399283, 0.21742364374000708, 0.2646871622087674,
            0.31132287199021097, 0.3572201583376681, 0.4022701579639916,
            0.4463660172534641, 0.48940314570705296, 0.5312794640198946,
            0.571895646202634, 0.6111553551723933, 0.6489654712546573,
            0.6852363130542333, 0.7198818501716109, 0.7528199072605319,
            0.7839723589433414, 0.8132653151227975, 0.8406292962525803,
            0.8659993981540928, 0.8893154459951141, 0.9105221370785028,
            0.9295691721319396, 0.9464113748584028, 0.9610087996520538,
            0.973326827789911, 0.983336253884626, 0.9910133714767443,
            0.9963401167719552, 0.9993050417357722,
        ),
        (
            0.048690957009139814, 0.04857546744150351, 0.048344762234802996,
            0.04799938859645842, 0.04754016571483042, 0.046968182816210076,
            0.04628479658131447, 0.045491627927418184, 0.044590558163756566,
            0.04358372452932355, 0.04247351512365361, 0.041262563242623576,
            0.039953741132720544, 0.03855015317861564, 0.03705512854024009,
            0.0354722132568823, 0.033805161837141794, 0.032057928354851495,
            0.030234657072402554, 0.028339672614259535, 0.02637746971505491,
            0.0243527025687112, 0.02227017380838297, 0.020134823153530088,
            0.017951715775697284, 0.01572603047602503, 0.01346304789671786,
            0.011168139460131028, 0.008846759826363397, 0.006504457968978502,
            0.004147033260564499, 0.00178328072169414,
        ),
    ),
}


@functools.cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-node rule on [-1, 1] as read-only arrays, nodes ascending: the
    frozen half mirrored, or leggauss's for any other n."""
    if n in _GAUSS_LEGENDRE_HALVES:
        x, w = map(np.array, _GAUSS_LEGENDRE_HALVES[n])
        nodes, weights = np.concatenate((-x[::-1], x)), np.concatenate((w[::-1], w))
    else:
        nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


#: phi(x) = x, whose tail term above a strike is the call price
_IDENTITY = PhiFunction(lambda x: x, np.ones_like, np.zeros_like, curvature=0.0)


class TransitionLaw:
    """Exact law of Z_T given Z_t = s, indexed by the variance v = sigma^2 (T - t).

    A law with a sample(z, v, rng) method draws Z_T exactly over any
    interval on which v grows linearly, so the stepping kernel takes one
    step per interval between change points for it. A law with an atom
    names the state it sits at (atom), where paths are absorbed: its mass is
    absorbed_mass(s, v), and absorption_fraction(z, v, rng) places the
    absorption of a path that reached it inside its step.

    Every integral against the law is tail(phi, s, v, k), by a closed form
    where the law has one for phi (tail_route(phi) names the route), else
    by fixed-node Gauss-Legendre quadrature: tail_rule(s, v, k) returns
    (x, dens, half) for 1-d arrays s, v and k, such that, the atom left out,

        E[f(Z_T); Z_T > k_i] ~= half_i * sum_j weights_j f(x_ij) dens_ij.

    The rule's ``nodes`` nodes reach ``window`` standard deviations either
    side of the law's bulk, clipped at the cutoff, so the node count need
    not grow with s/v. call(z, K, v) is the tail term of phi(x) = x, and
    call_route() its route.
    """

    nodes: ClassVar[int] = 64
    window: ClassVar[float] = 16.0
    atom: ClassVar[float | None] = None
    #: the state space's ends (the model's beta domain): a state there is held
    domain: ClassVar[tuple[float, float]] = (0.0, math.inf)
    #: rows of (s, v) pairs per block of tail: one block's rows-by-nodes
    #: temporaries stay a few MB whatever the row count
    tail_rows: ClassVar[int] = 8192

    @property
    def weights(self) -> np.ndarray:
        return _gauss_legendre(self.nodes)[1]

    def _abscissae(self, lo, hi):
        """(nodes on [lo_i, hi_i] per row, half-widths)."""
        half = 0.5 * (hi - lo)
        return (0.5 * (hi + lo))[:, None] + half[:, None] * _gauss_legendre(self.nodes)[0], half

    def tail_route(self, phi: PhiFunction) -> dict:
        """How tail integrates phi: by tail_rule, named with its budget."""
        return {"route": "quadrature", "nodes": self.nodes, "window": self.window}

    def call_route(self) -> dict:
        """How call prices: the route of the tail term of phi(x) = x."""
        return self.tail_route(_IDENTITY)

    def tail(self, phi: PhiFunction, s, v, k):
        """The tail term E[(phi(Z_T) - phi(k)) 1{Z_T > k}] per row of the
        1-d arrays s and v and the strikes k, all three broadcast (one
        strike serves every row): tail_rule's sum, plus the atom's share on
        the rows whose atom lies above their k. phi(k) is one call on k as
        given. A row with no variance left, or held at an end of domain,
        keeps Z_T = s. Each row is its own reduction, so the blocks of
        tail_rows rows on the workers never change a result."""
        k = np.asarray(k, dtype=np.float64)
        s, v, k, phi_k = np.broadcast_arrays(s, v, k, np.asarray(phi(k), dtype=np.float64))
        out = np.empty(s.shape, dtype=np.float64)
        lower, upper = self.domain

        def run_block(_, rows):
            s_b, v_b, k_b, phi_kb, out_b = s[rows], v[rows], k[rows], phi_k[rows], out[rows]
            held = (v_b == 0.0) | (s_b <= lower) | (s_b >= upper)
            if held.any():
                s_h = s_b[held]
                phi_h = np.asarray(phi(s_h), dtype=np.float64)
                out_b[held] = np.where(s_h > k_b[held], phi_h - phi_kb[held], 0.0)
            live = ~held
            if not live.any():
                return
            s_l, v_l, k_l, phi_kl = s_b[live], v_b[live], k_b[live], phi_kb[live]
            x, dens, half = self.tail_rule(s_l, v_l, k_l)
            vals = (np.asarray(phi(x), dtype=np.float64) - phi_kl[:, None]) * dens
            g = (vals * self.weights[None, :]).sum(axis=1) * half
            above = self.atom is not None and self.atom > k_l
            if np.any(above):
                mass = self.absorbed_mass(s_l[above], v_l[above])
                g[above] += (float(phi(self.atom)) - phi_kl[above]) * mass
            out_b[live] = g

        _map_blocks(s.size, self.tail_rows, worker_count(), run_block)
        return out

    def call(self, z, strike, v):
        """Call price E[(Z_T - K)^+] given Z_t = z at variance v, clamped to
        [(z - K)^+, z]; z, strike and v broadcast, so one call prices a
        table of strikes, and zero variance gives the intrinsic value.

        The tail term with phi(x) = x: tail_rule integrates x - K from the
        strike up, so no node straddles the payoff's kink, and an atom above
        the strike adds (atom - K) times its mass.
        """
        scalar = np.ndim(z) == 0 and np.ndim(strike) == 0 and np.ndim(v) == 0
        z, strike, v = np.broadcast_arrays(
            *(np.atleast_1d(np.asarray(a, dtype=np.float64)) for a in (z, strike, v))
        )
        body = self.tail(_IDENTITY, z, v, strike) if v.any() else 0.0
        out = np.minimum(np.maximum(body, np.maximum(z - strike, 0.0)), z)
        return float(out[0]) if scalar else out


class LognormalLaw(TransitionLaw):
    """gbm: Z_T = s exp(-v/2 + sqrt(v) W), W standard normal.

    Its call price and the second moment of the call payoff are closed form
    (pricing._bs_call_moments); tail_rule integrates in W. step is the
    exact step driven by given normal draws, which a moving theta
    correlates with its own noise; sample draws them.
    """

    def step(self, z, v, xi):
        """Z_T from Z_t = z at variance v, given standard normal draws xi."""
        return z * np.exp(-0.5 * v + np.sqrt(v) * xi)

    def sample(self, z, v, rng):
        """Draws of Z_T given Z_t = z at variance v."""
        return self.step(z, v, rng.standard_normal(np.shape(z)))

    def tail_route(self, phi):
        return super().tail_route(phi) if phi.curvature is None else {"route": "closed-form"}

    def tail(self, phi, s, v, k):
        """Closed form where phi'' is a constant, since Taylor's formula
        about k is then exact: phi'(k) C(k) + (phi''/2) E[((Z_T - k)^+)^2],
        with phi'(k) one call on k as given; otherwise tail_rule's
        quadrature."""
        if phi.curvature is None:
            return super().tail(phi, s, v, k)
        from .pricing import _bs_call_moments  # pricing imports this module

        k = np.asarray(k, dtype=np.float64)
        slope = np.asarray(phi.deriv1(k), dtype=np.float64)
        c, s2 = _bs_call_moments(*np.broadcast_arrays(s, k, v))
        return slope * c + 0.5 * phi.curvature * s2

    def call(self, z, strike, v):
        """The closed-form call price (pricing._bs_call_core)."""
        from .pricing import _bs_call_core  # pricing imports this module

        return _bs_call_core(z, strike, v)

    def tail_rule(self, s, v, k):
        with np.errstate(divide="ignore"):  # k = 0 starts the rule at -window
            w_k = (np.log(k / s) + 0.5 * v) / np.sqrt(v)
        w, half = self._abscissae(np.maximum(w_k, -self.window), np.maximum(w_k, 0.0) + self.window)
        return self.step(s[:, None], v[:, None], w), norm_pdf(w), half


class SquaredBesselLaw(TransitionLaw):
    """bessel0: Z_T = (v/2) Gamma(N) with N ~ Poisson(2s/v).

    Z is (sigma^2/4) times a zero-dimensional squared Bessel process
    (Feller 1951). The law has an atom exp(-2s/v) at 0, its mass given by
    absorbed_mass(s, v), and on y > 0 the density
    (2/v) sqrt(s/y) exp(-2(s+y)/v) I1(4 sqrt(sy)/v). In r = sqrt(y) that
    density is (4/v) sqrt(s) i1e(4 sqrt(s) r/v) exp(-2(sqrt(s)-r)^2/v),
    a bump of standard deviation sqrt(v)/2 around sqrt(s). i1e(x) is
    e^{-x} I1(x) for real x >= 0 (special_functions.bessel_i1e).

    sample draws Z_T by that Poisson mixture of Gammas (Glasserman 2004,
    section 3.4); tail_rule and expect integrate in r.
    """

    atom: ClassVar[float] = 0.0
    #: tail_rule's budget: beyond 8 sd the bump is below e^-32 of its peak
    nodes: ClassVar[int] = 48
    window: ClassVar[float] = 8.0
    #: expect's budget for each of its two rules, one either side of sqrt(s):
    #: bessel0's phi, ~exp(-2 sqrt(2) r), tilts the integrand about
    #: 1.4 sqrt(v) sd toward 0, past what an 8-sd reach covers
    expect_nodes: ClassVar[int] = 64
    expect_window: ClassVar[float] = 16.0

    @staticmethod
    @np.errstate(over="ignore")
    def _density(a, r, v):
        """Density of r = sqrt(Z_T) at r given sqrt(s) = a, off the atom. Far
        in the tail i1e's argument overflows to inf, where the density reads 0
        as it should; this runs on tail's worker threads, so it silences that."""
        return (4.0 / v) * a * bessel_i1e(4.0 * a * r / v) * np.exp(-2.0 * np.square(a - r) / v)

    def tail_rule(self, s, v, k):
        a = np.sqrt(s)
        reach = self.window * 0.5 * np.sqrt(v)
        r_k = np.sqrt(k)
        r, half = self._abscissae(np.maximum(r_k, a - reach), np.maximum(r_k, a) + reach)
        return r * r, self._density(a[:, None], r, v[:, None]), half

    def expect(self, f, s: float, v: float) -> float:
        """E[f(Z_T)] given Z_t = s at variance v, the atom included.

        f(0) times the atom's mass, plus the density's integral in r by one
        expect_nodes rule on each side of sqrt(s), reaching expect_window sd.
        Where that reaches r = 0 the lower side runs in y with r = sqrt(s) y^2,
        which smooths an r^2 ln r kink of f(r^2) at 0 (bessel0's phi). The
        result is good to ~1e-14 relative, tested at 2e-14 against mpmath;
        the frozen weights carry leggauss's own 1.3e-12 error, most of which
        cancels."""
        if v <= 0.0:
            return float(f(s))
        x, w = _gauss_legendre(self.expect_nodes)
        a = math.sqrt(s)
        reach = self.expect_window * 0.5 * math.sqrt(v)

        def piece(lo, hi):
            half = 0.5 * (hi - lo)
            return 0.5 * (hi + lo) + half * x, half * w

        r_up, w_up = piece(a, a + reach)
        if a > reach:
            r_lo, w_lo = piece(a - reach, a)
        else:
            y, w_y = piece(0.0, 1.0)
            r_lo, w_lo = a * y * y, 2.0 * a * y * w_y
        r = np.concatenate([r_lo, r_up])
        dens = np.concatenate([w_lo, w_up]) * self._density(a, r, v)
        body = float(np.dot(dens, np.asarray(f(r * r), dtype=np.float64)))
        return float(f(self.atom)) * self.absorbed_mass(s, v) + body

    def absorbed_mass(self, s, v):
        s, v = np.broadcast_arrays(np.asarray(s, dtype=np.float64), np.asarray(v, dtype=np.float64))
        with np.errstate(divide="ignore"):
            out = np.where(s > 0.0, np.exp(-2.0 * s / v), 1.0)
        return float(out) if out.ndim == 0 else out

    #: Poisson mean above which a step's relative spread sqrt(v/s) is below
    #: 5e-8 (numpy's Poisson sampler refuses means near 9e18): there a normal
    #: with the law's mean s and variance v s stands in for the mixture
    normal_mean: ClassVar[float] = 1e15

    def sample(self, z, v, rng):
        """Draws of Z_T given Z_t = z at variance v; z and v broadcast."""
        with np.errstate(divide="ignore", invalid="ignore"):
            lam = np.where(v > 0.0, 2.0 * z / v, 0.0)
        big = lam > self.normal_mean
        out = 0.5 * v * rng.standard_gamma(rng.poisson(np.where(big, 0.0, lam)))
        out = np.where(v > 0.0, out, z)
        if np.any(big):
            z, v = np.broadcast_arrays(z, v)
            zb = z[big]
            out[big] = zb + np.sqrt(v[big] * zb) * rng.standard_normal(zb.size)
        return out

    def absorption_fraction(self, z, v, rng):
        """Where a path from Z_t = z > 0 that sits at 0 after variance v was
        absorbed, as a fraction of v, drawn from the law of tau given tau <= v.

        P(absorbed by variance w) = exp(-2z/w), so with q = 2z/v and E a
        standard exponential the fraction is q / (q + E).
        """
        q = 2.0 * np.asarray(z, dtype=np.float64) / v
        return q / (q + rng.standard_exponential(q.shape))


_BESQ = SquaredBesselLaw()


class LogBesselLaw(TransitionLaw):
    """logdiff: Z_T = exp(-e^v X), X drawn from SquaredBesselLaw at state
    -ln s and variance 2(1 - e^{-v}).

    Y = -ln Z solves dY = theta^2 Y dt - theta sqrt(2Y) dW, so e^{-A} Y,
    A the variance accrued, runs SquaredBesselLaw's process on the clock
    2(1 - e^{-A}) (Goeing-Jaeschke & Yor 2003). The atom X = 0 is Z = 1, of
    mass s^{1/(1 - e^{-v})}, reached at A* = -ln(1 - w*/2) for the Bessel
    clock w* of absorption. Z_T > k where X < (-ln k) e^{-v}: tail_rule
    integrates in r = sqrt(X) below that level's root, on
    SquaredBesselLaw's tail budget.
    """

    atom: ClassVar[float] = 1.0
    domain: ClassVar[tuple[float, float]] = (0.0, 1.0)
    nodes: ClassVar[int] = SquaredBesselLaw.nodes
    window: ClassVar[float] = SquaredBesselLaw.window
    #: tail_rule caps v here, where e^v is still finite. Past it the atom
    #: holds s to double precision, and Z_T > k > 0 needs X < (-ln k) e^-v,
    #: a mass of order e^-700 (-ln k): the cap moves no call price or tail
    #: term by more than that
    tail_variance: ClassVar[float] = 700.0

    @staticmethod
    def _bessel(s, v):
        """(state, variance) of the squared Bessel draw behind (s, v)."""
        return -np.log(s), -2.0 * np.expm1(-v)

    def tail_rule(self, s, v, k):
        v = np.minimum(v, self.tail_variance)
        y, w = self._bessel(s, v)
        a = np.sqrt(y)
        reach = self.window * 0.5 * np.sqrt(w)
        with np.errstate(divide="ignore"):  # k = 0 reaches the rule's top, a + reach
            hi = np.minimum(np.sqrt(np.maximum(-np.log(k), 0.0) * np.exp(-v)), a + reach)
        r, half = self._abscissae(np.minimum(hi, np.maximum(a - reach, 0.0)), hi)
        dens = _BESQ._density(a[:, None], r, w[:, None])
        return np.exp(-np.exp(v)[:, None] * r * r), dens, half

    def absorbed_mass(self, s, v):
        return _BESQ.absorbed_mass(*self._bessel(s, v))

    def sample(self, z, v, rng):
        """Draws of Z_T given Z_t = z at variance v; a path held at 0 stays."""
        held = (z <= 0.0) | (v <= 0.0)
        x = _BESQ.sample(*self._bessel(np.where(held, 1.0, z), v), rng)
        return np.where(held, z, np.exp(-np.exp(v) * x))

    def absorption_fraction(self, z, v, rng):
        """Where a path from Z_t = z < 1 that sits at 1 after variance v was
        absorbed, as a fraction of v."""
        frac = _BESQ.absorption_fraction(*self._bessel(z, v), rng)
        return -np.log1p(frac * np.expm1(-v)) / v


@dataclass(frozen=True)
class ReferenceModel:
    """A reference diffusion dZ = sigma beta(Z) dB with eigenfunction phi.

    law, when set, is the exact transition law of dZ = sigma beta(Z) dB;
    it must describe beta, so replace it together with beta.
    """

    name: str
    beta: StateDiffusion
    phi: PhiFunction
    z0: float
    law: TransitionLaw | None = None

    def __post_init__(self) -> None:
        if not self.beta.contains(self.z0):
            raise DomainError(
                f"initial state {self.z0} outside open domain ({self.beta.lower}, {self.beta.upper})"
            )


# ===== builtin models =====


def _bessel0_term(fill, f):
    """bessel0's phi or a derivative: fill at z <= 0, f(u, z, pos) on the
    positive cells z[pos], with u = 2 sqrt(2 z[pos])."""

    def term(z):
        z = np.asarray(z, dtype=np.float64)
        out = np.full_like(z, fill)
        pos = z > 0.0
        if np.any(pos):
            # u in place: a path vector less at the peak of the martingale check
            u = z[pos]
            np.multiply(u, 2.0, u)
            np.sqrt(u, u)
            np.multiply(u, 2.0, u)
            out[pos] = f(u, z, pos)
        return float(out) if out.ndim == 0 else out

    return term


def _bessel0_phi(u, z, pos):
    """bessel0's phi, u K1(u), with K1's output taking the product."""
    out = bessel_k(1, u)
    out *= u
    return out


def _logdiff_term(f):
    """logdiff's phi or a derivative: f on float arrays, infinite at z = 0."""

    def term(z):
        z = np.asarray(z, dtype=np.float64)
        with np.errstate(divide="ignore"):
            out = f(z)
        return float(out) if out.ndim == 0 else out

    return term


#: the builtin reference models, by name
BUILTIN_MODELS = ("gbm", "bessel0", "logdiff")


def builtin_model(name: str, z0: float | None = None) -> ReferenceModel:
    """Construct one of the builtin reference models: gbm, bessel0, logdiff.

    gbm:     beta(z) = z on (0, inf), phi(z) = z^2.
    bessel0: beta(z) = sqrt(z) on (0, inf), phi(z) = 2 sqrt(2z) K1(2 sqrt(2z)),
             which decreases from 1 at 0+ to 0 at infinity; paths absorb at 0.
    logdiff: beta(z) = z sqrt(-2 ln z) on (0, 1), phi(z) = -ln z; paths absorb
             at both endpoints, and phi vanishes at 1 (positivity holds only in
             the open interval).
    """
    if name == "gbm":
        return ReferenceModel(
            name="gbm",
            beta=StateDiffusion(lambda z: np.asarray(z, dtype=np.float64), 0.0, math.inf),
            phi=PhiFunction(
                value=lambda z: np.square(np.asarray(z, dtype=np.float64)),
                deriv1=lambda z: 2.0 * np.asarray(z, dtype=np.float64),
                deriv2=lambda z: np.full_like(np.asarray(z, dtype=np.float64), 2.0),
                curvature=2.0,
            ),
            z0=1.0 if z0 is None else float(z0),
            law=LognormalLaw(),
        )
    if name == "bessel0":
        return ReferenceModel(
            name="bessel0",
            beta=StateDiffusion(
                lambda z: np.sqrt(np.maximum(np.asarray(z, dtype=np.float64), 0.0)),
                0.0,
                math.inf,
            ),
            phi=PhiFunction(
                _bessel0_term(1.0, _bessel0_phi),
                _bessel0_term(-np.inf, lambda u, z, pos: -4.0 * bessel_k(0, u)),
                _bessel0_term(
                    np.inf, lambda u, z, pos: 4.0 * math.sqrt(2.0) * bessel_k(1, u) / np.sqrt(z[pos])
                ),
            ),
            z0=1.0 if z0 is None else float(z0),
            law=SquaredBesselLaw(),
        )
    if name == "logdiff":

        def beta_logdiff(z):
            z = np.asarray(z, dtype=np.float64)
            with np.errstate(divide="ignore", invalid="ignore"):
                val = z * np.sqrt(np.maximum(-2.0 * np.log(z), 0.0))
            return np.where(z > 0.0, val, 0.0)

        return ReferenceModel(
            name="logdiff",
            beta=StateDiffusion(beta_logdiff, 0.0, 1.0),
            phi=PhiFunction(
                _logdiff_term(lambda z: -np.log(z)),
                _logdiff_term(lambda z: -1.0 / z),
                _logdiff_term(lambda z: 1.0 / np.square(z)),
            ),
            z0=0.5 if z0 is None else float(z0),
            law=LogBesselLaw(),
        )
    raise ConfigurationError(f"unknown builtin model {name!r}; expected one of {BUILTIN_MODELS}")


# ===== volatility processes =====


#: the scenario generator, by its config name, behind each kind of theta process
GENERATORS = {"constant": "self-consistent", "step": "step-vol", "meanrev": "meanrev-vol"}


@dataclass(frozen=True)
class ThetaProcess:
    """Volatility-process specification for scenario generation.

    kind "constant": theta == sigma0. kind "step": deterministic
    piecewise-constant, jumping to jump_values[i] at jump_times[i].
    kind "meanrev": dtheta = rate (level - theta) dt + vol_of_vol dW', W'
    correlated with the state's noise by correlation; it moves unless
    vol_of_vol is 0 and it starts at its level or has rate 0, in which case
    it stays at sigma0 like a constant theta.
    """

    kind: str
    sigma0: float
    jump_times: tuple = ()
    jump_values: tuple = ()
    rate: float = 0.0
    level: float = 0.0
    vol_of_vol: float = 0.0
    correlation: float = 0.0

    def __post_init__(self):
        if self.kind not in GENERATORS:
            raise ConfigurationError(f"unknown theta process kind {self.kind!r}")
        if not (self.sigma0 > 0.0 and math.isfinite(self.sigma0)):
            raise DomainError(f"initial vol must be positive, got {self.sigma0}")
        if not -1.0 <= self.correlation <= 1.0:
            raise DomainError(f"correlation must lie in [-1, 1], got {self.correlation}")
        if self.kind == "step":
            jt = tuple(float(t) for t in self.jump_times)
            jv = tuple(float(v) for v in self.jump_values)
            object.__setattr__(self, "jump_times", jt)
            object.__setattr__(self, "jump_values", jv)
            if len(jt) != len(jv) or not jt:
                raise ConfigurationError("step process needs matching jump times and values")
            if any(b <= a for a, b in zip(jt, jt[1:])) or jt[0] <= 0.0:
                raise DomainError("jump times must be strictly increasing and positive")
            if any(v < 0.0 for v in jv):
                raise DomainError("stepped vol values must be nonnegative")
        if self.kind == "meanrev":
            if self.rate < 0.0 or self.vol_of_vol < 0.0:
                raise DomainError("mean reversion rate and vol-of-vol must be nonnegative")

    @property
    def moves(self) -> bool:
        """Whether theta changes between any two instants (kind meanrev)."""
        return self.kind == "meanrev" and (
            self.vol_of_vol > 0.0 or (self.rate > 0.0 and self.level != self.sigma0)
        )

    @property
    def change_times(self) -> tuple:
        """The jump times at which a step theta changes value (a jump to the
        value it already has is none)."""
        if self.kind != "step":
            return ()
        before = (self.sigma0,) + self.jump_values[:-1]
        return tuple(t for t, a, b in zip(self.jump_times, before, self.jump_values) if a != b)

    def until(self, t: float) -> "ThetaProcess":
        """The process that agrees with this one on [0, t]: a step theta keeps
        its jumps at times <= t (deterministic_value(t) reads a jump at t),
        and is constant at sigma0 when none is left; any other theta is its
        own history."""
        if self.kind != "step":
            return self
        kept = sum(1 for jt in self.jump_times if jt <= t)
        if kept == 0:
            return ThetaProcess(kind="constant", sigma0=self.sigma0)
        return replace(
            self, jump_times=self.jump_times[:kept], jump_values=self.jump_values[:kept]
        )

    def deterministic_value(self, t: float) -> float:
        """theta(t) for a theta that does not move."""
        if self.kind == "constant" or (self.kind == "meanrev" and not self.moves):
            return self.sigma0
        if self.kind == "step":
            out = self.sigma0
            for jt, jv in zip(self.jump_times, self.jump_values):
                if t >= jt:
                    out = jv
            return out
        raise ConfigurationError("mean-reverting theta has no deterministic path")



# ===== simulation =====


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo controls.

    dt bounds Euler steps and the substeps of a moving theta; a model whose
    law samples exactly does not use it. block_size fixes the
    path-to-substream assignment: path p lives in block p // block_size, and
    block b always draws from rng_substream(seed, b). Worker count therefore
    never changes results, only wall time.
    """

    n_paths: int
    dt: float
    seed: int
    block_size: int = 16384

    def __post_init__(self) -> None:
        if self.n_paths < 1:
            raise ConfigurationError("n_paths must be >= 1")
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ConfigurationError("dt must be positive and finite")
        if self.block_size < 1:
            raise ConfigurationError("block_size must be >= 1")


@dataclass(frozen=True)
class PathEnsemble:
    """Simulated paths sampled on time_grid.

    states[p, j] is path p at time_grid[j]; absorbed paths are frozen at the
    boundary value from their absorption time onward. states is None after a
    run that handed each stored column to a visitor instead of storing it
    (step_paths' visit). absorbed_at[p] is nan for paths that never left the
    open domain. steps is the number of steps each path took, and stepping
    how step_paths took them: {"route": "exact-law", "steps": steps} for one
    exact draw per interval between change points, else the law's exact
    step ("exact-law", while theta moves) or Euler's ("euler") on substeps
    of at most dt, {"route": ..., "dt": dt}. theta[p, j] is the volatility
    of path p at time_grid[j] when the paths were stepped under a
    ThetaProcess, else None; for a theta that does not move it is one row
    broadcast over the paths, read-only.
    """

    time_grid: np.ndarray
    states: np.ndarray | None
    absorbed_at: np.ndarray
    steps: int = 0
    stepping: dict | None = None
    theta: np.ndarray | None = None

    @property
    def n_paths(self) -> int:
        return self.absorbed_at.size


def rng_substream(seed: int, *key: int) -> np.random.Generator:
    """Dedicated RNG stream for (seed, *key), stable across runs and platforms:
    key (b,) is path block b, and (b, 1) the noise of a moving theta on it."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def sample_mean(x):
    """(mean, standard error) along the last axis: floats for a 1-d sample,
    an array of each per row for a 2-d table. A sample (row) whose values are
    all equal (no noise, e.g. sigma = 0) gives its value exactly, with se 0;
    mean and se are computed on the other rows only."""
    x = np.asarray(x, dtype=np.float64)
    table = np.atleast_2d(x)
    noisy = ~np.all(table == table[:, :1], axis=1)
    mean, se = table[:, 0].copy(), np.zeros(len(table))
    if np.any(noisy):
        rows = table if np.all(noisy) else table[noisy]
        mean[noisy] = rows.mean(axis=1)
        se[noisy] = rows.std(axis=1, ddof=1) / math.sqrt(table.shape[1])
    return (float(mean[0]), float(se[0])) if x.ndim == 1 else (mean, se)


#: the verdicts' gate: a difference passes within Z_GATE standard errors
Z_GATE = 3.0


def z_score(diff, se):
    """diff in units of its standard error se, elementwise (floats give a
    float); with se 0 (no noise), 0 where there is no difference and inf
    where there is one."""
    diff, se = np.asarray(diff, dtype=np.float64), np.asarray(se, dtype=np.float64)
    with np.errstate(all="ignore"):
        z = np.where(se > 0.0, diff / se, np.where(diff == 0.0, 0.0, np.inf))
    return float(z) if z.ndim == 0 else z


def bisect_increasing(f, targets, lo: float, hi: float) -> np.ndarray:
    """Per target, the least x in (lo, hi] with f(x) >= target, for f
    nondecreasing and vectorized, with f(lo) < target <= f(hi). Bisects until
    no bracket can shrink, so the float below each returned x falls short of
    its target: the package's one root finder."""
    targets = np.asarray(targets, dtype=np.float64)
    lo, hi = np.full(targets.shape, lo), np.full(targets.shape, hi)
    mid = 0.5 * (lo + hi)
    while np.any((lo < mid) & (mid < hi)):
        below = f(mid) < targets
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        mid = 0.5 * (lo + hi)
    return hi


def worker_count() -> int:
    """Threads that work path and quadrature blocks, the calling thread
    among them: VOLBOUND_WORKERS, else all CPUs."""
    env = os.environ.get(WORKERS_ENV_VAR)
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ConfigurationError(f"{WORKERS_ENV_VAR} must be an integer, got {env!r}") from exc
    return os.cpu_count() or 1


def _step_grid(
    time_grid: np.ndarray, dt: float, change_times, exact: bool
) -> tuple[np.ndarray, np.ndarray]:
    """The stepping kernel's grid: the stored times and theta's change
    times, with substeps of at most dt in between unless exact, where the
    law samples each interval between them.

    Returns (fine_grid, store_idx) with fine_grid[store_idx] == time_grid
    exactly.
    """
    t0, t1 = time_grid[0], time_grid[-1]
    anchors = np.array(sorted(set(time_grid.tolist()) | {b for b in change_times if t0 < b < t1}))
    if exact:
        fine_grid = anchors
    else:
        fine = []
        for a, b in zip(anchors, anchors[1:]):
            n_sub = max(1, math.ceil((b - a) / dt - 1e-12))
            fine.append(a + (b - a) * np.arange(n_sub) / n_sub)
        fine.append(np.array([t1]))
        fine_grid = np.concatenate(fine)
    store_idx = np.searchsorted(fine_grid, time_grid)
    if not np.array_equal(fine_grid[store_idx], time_grid):
        raise AssertionError("internal grid refinement lost a user point")
    return fine_grid, store_idx


def _map_blocks(n_rows: int, block_size: int, n_workers: int, run_block) -> None:
    """run_block(b, rows) for every block b of block_size consecutive rows
    out of n_rows, rows being its slice. The calling thread and up to
    n_workers - 1 more threads take blocks from one queue, so a single
    block starts no thread. Every block runs; once all have, the error of
    the lowest-numbered block that failed is raised."""
    jobs = deque(enumerate(range(0, n_rows, block_size)))
    errors = {}

    def work():
        while True:
            try:
                b, lo = jobs.popleft()
            except IndexError:
                return
            try:
                run_block(b, slice(lo, min(lo + block_size, n_rows)))
            except Exception as exc:
                errors[b] = exc

    threads = [threading.Thread(target=work) for _ in range(min(n_workers, len(jobs)) - 1)]
    for thread in threads:
        thread.start()
    try:
        work()
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[min(errors)]


def step_paths(
    model: ReferenceModel,
    theta: float | ThetaProcess,
    z_start: float,
    t_start: float,
    time_grid,
    cfg: SimConfig,
    visit=None,
) -> PathEnsemble:
    """The path engine: paths of dZ = theta_t beta(Z) dW from
    (t_start, z_start), stored exactly at the times of time_grid.

    theta is a volatility or a ThetaProcess, whose values at the stored
    times the ensemble keeps. A theta that does not move changes only at its
    change times, which join the stored times as the ends of the steps.
    There a model whose law samples exactly takes the law's draw over each
    step, however long: it may draw any number of variates per state
    (Poisson, Gamma and, for a path that reached the law's atom in the step,
    an exponential that places tau inside it), so the stream position
    depends on the states. Otherwise the steps are
    substeps of at most cfg.dt, and every one draws one normal per state
    whatever the paths' history: the step is the law's exact step driven by
    it where the law has one, else Euler's, and a path that an Euler step
    takes out of the open domain is set to the nearest boundary and frozen
    there. A moving theta follows its process on those substeps with one
    draw per substep from substream (b, 1), correlated with the state's
    draw, and the state steps at |theta|, the variance rate theta^2 that
    every formula of the bound reads.

    visit(rows, c, z, absorbed_at) is called on the worker thread of each
    block right after it draws stored column c: rows is the block's slice
    of the paths, z their states at time_grid[c] and absorbed_at their
    absorption times so far (nan for a path not absorbed by then). The
    default stores z as column c of the ensemble's states; with a visitor
    given, no paths x grid state matrix is allocated and states is None.
    The visitor must not keep z or absorbed_at, which the engine goes on to
    change.
    """
    proc = theta if isinstance(theta, ThetaProcess) else None
    if proc is None and (theta < 0.0 or not math.isfinite(theta)):
        raise DomainError(f"sigma must be a finite nonnegative real, got {theta}")
    grid = np.asarray(time_grid, dtype=np.float64)
    if grid.ndim != 1 or len(grid) < 1:
        raise DomainError("time_grid must be a nonempty 1-d sequence")
    if grid[0] != t_start:
        raise DomainError(f"time_grid must start at t_start ({t_start}), got {grid[0]}")
    if np.any(np.diff(grid) <= 0.0):
        raise DomainError("time_grid must be strictly increasing")
    if not model.beta.in_closure(z_start):
        raise DomainError(
            f"z_start {z_start} outside domain closure [{model.beta.lower}, {model.beta.upper}]"
        )

    moves = proc is not None and proc.moves
    # one exact draw per interval between change points where the law
    # samples exactly and theta does not move
    exact = not moves and hasattr(model.law, "sample")
    change_times = () if proc is None else proc.change_times
    fine_grid, store_idx = _step_grid(grid, cfg.dt, change_times, exact)
    states = None
    if visit is None:
        states = np.empty((cfg.n_paths, grid.size))

        def visit(rows, c, z, absorbed_at):
            states[rows, c] = z

    absorbed = np.full(cfg.n_paths, np.nan)

    def theta_at(t):
        """theta over a step from t, for a theta that does not move."""
        return theta if proc is None else proc.deterministic_value(t)

    # a theta that does not move is one row, read-only, shared by every path
    thetas = None
    if moves:
        thetas = np.empty((cfg.n_paths, grid.size))
    elif proc is not None:
        row = np.array([theta_at(float(t)) for t in grid])
        thetas = np.broadcast_to(row, (cfg.n_paths, grid.size))
    sample = model.law.sample if exact else None
    absorb = getattr(model.law, "absorption_fraction", None)
    exact_step = getattr(model.law, "step", None)
    if exact:
        stepping = {"route": "exact-law", "steps": len(fine_grid) - 1}
    else:
        stepping = {"route": "euler" if exact_step is None else "exact-law", "dt": cfg.dt}
    lower, upper = model.beta.lower, model.beta.upper

    def run_block(b, rows):
        rng = rng_substream(cfg.seed, b)
        absorbed_at = absorbed[rows]
        z = np.full(rows.stop - rows.start, float(z_start))
        alive = (z > lower) & (z < upper)
        absorbed_at[~alive] = fine_grid[0]
        visit(rows, 0, z, absorbed_at)
        if moves:
            theta_rng = rng_substream(cfg.seed, b, 1)
            rho = proc.correlation
            rho_c = math.sqrt(max(0.0, 1.0 - rho * rho))
            th = np.full(z.size, proc.sigma0)
            thetas[rows, 0] = th
            vol_theta = proc.sigma0
        c = 1  # the next stored column; the last fine point is stored, so c stays in range
        for j in range(1, len(fine_grid)):
            t_lo = float(fine_grid[j - 1])
            step_dt = float(fine_grid[j]) - t_lo
            vol = vol_theta if moves else theta_at(t_lo)
            if sample is not None:
                v = vol * vol * step_dt
                z_new = sample(z, v, rng)
                if absorb is not None:
                    hit = alive & (z_new == model.law.atom)
                    if np.any(hit):
                        absorbed_at[hit] = t_lo + absorb(z[hit], v, rng) * step_dt
                        alive &= ~hit
                z = z_new
            else:
                xi = rng.standard_normal(z.shape)
                if exact_step is not None:
                    z = exact_step(z, vol * vol * step_dt, xi)
                else:
                    z = np.where(alive, z + vol * math.sqrt(step_dt) * model.beta(z) * xi, z)
                    hit = alive & (z <= lower)
                    z[hit] = lower
                    if math.isfinite(upper):
                        hit_hi = alive & (z >= upper)
                        z[hit_hi] = upper
                        hit |= hit_hi
                    alive &= ~hit
                    absorbed_at[hit] = fine_grid[j]
                if moves:
                    corr = rho * xi + rho_c * theta_rng.standard_normal(z.size)
                    th = th + proc.rate * (proc.level - th) * step_dt \
                        + proc.vol_of_vol * math.sqrt(step_dt) * corr
                    vol_theta = np.abs(th)
            if j == store_idx[c]:
                visit(rows, c, z, absorbed_at)
                if moves:
                    thetas[rows, c] = th
                c += 1

    _map_blocks(cfg.n_paths, cfg.block_size, worker_count(), run_block)
    return PathEnsemble(
        time_grid=grid, states=states, absorbed_at=absorbed, steps=len(fine_grid) - 1,
        stepping=stepping, theta=thetas,
    )


def simulate(
    model: ReferenceModel,
    sigma: float,
    z_start: float,
    t_start: float,
    time_grid,
    cfg: SimConfig,
) -> PathEnsemble:
    """Simulate the reference diffusion at volatility sigma from
    (t_start, z_start) on time_grid: step_paths at a constant theta.

    Where the model's law samples exactly, each path takes one exact step
    per interval between grid times, and cfg.dt is unused; otherwise it takes
    Euler steps of at most cfg.dt.
    """
    return step_paths(model, sigma, z_start, t_start, time_grid, cfg)
