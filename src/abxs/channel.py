"""The alpha-Beaulieu-Xie shadowed fading model.

Channel parameters, derived constants, exact and asymptotic SNR statistics
(pdf / cdf / ccdf), envelope moments, and the baseline (alpha = 2)
Beaulieu-Xie shadowed envelope density used by the reduction tests.

All quantities are in linear units; dB conversion happens at the CLI
boundary only. The SNR pdf, cdf and ccdf take a float or an ndarray of
gamma; everything else here takes scalars. Everything is pure and
thread-safe.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.special import btdtria, gammainc, gammaincc, gammaln, xlogy

from . import specfun


@dataclass(frozen=True)
class ChannelParams:
    """The six model parameters.

    m_x: overall fading severity (> 0, no half-integer floor)
    m_y: line-of-sight shadowing severity (> 0)
    omega_x: scattered (NLoS) power, linear (> 0)
    omega_y: specular (LoS) power, linear (>= 0)
    alpha: propagation nonlinearity exponent (> 0)
    gamma_bar: average SNR, linear (> 0)
    """

    m_x: float
    m_y: float
    omega_x: float
    omega_y: float
    alpha: float
    gamma_bar: float

    def __post_init__(self) -> None:
        validate(self)


def validate(params: ChannelParams) -> ChannelParams:
    """Check the parameter invariants; returns the params unchanged."""
    for name in ("m_x", "m_y", "omega_x", "alpha", "gamma_bar"):
        v = getattr(params, name)
        if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
            raise ValueError(f"{name} must be a positive finite number, got {v!r}")
    oy = params.omega_y
    if not (isinstance(oy, (int, float)) and math.isfinite(oy) and oy >= 0):
        raise ValueError(f"omega_y must be finite and >= 0, got {oy!r}")
    return params


def rationalize_alpha(alpha: float, tol: float = 1e-9, max_q: int = 32):
    """Smallest-denominator (p, q) with |p/q - alpha/2| <= tol and gcd(p,q)=1.

    Raises ValueError when no denominator up to ``max_q`` fits: such an alpha
    has no Meijer-G closed form of that size.
    """
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    x = alpha / 2.0
    for q in range(1, max_q + 1):
        p = round(x * q)
        if p >= 1 and abs(p / q - x) <= tol:
            g = math.gcd(p, q)
            return p // g, q // g
    raise ValueError(
        f"alpha/2 = {x} has no rational approximation within {tol} "
        f"for denominators up to {max_q}"
    )


def beta_bar(params: ChannelParams) -> float:
    """LoS power fraction m_x*omega_y / (m_y*omega_x + m_x*omega_y), in [0, 1)."""
    num = params.m_x * params.omega_y
    return num / (params.m_y * params.omega_x + num)


def _one_minus_beta_bar(params: ChannelParams) -> float:
    """1 - beta_bar from its own quotient, so it keeps its digits as beta_bar -> 1."""
    num = params.m_y * params.omega_x
    return num / (num + params.m_x * params.omega_y)


def c_alpha(params: ChannelParams) -> float:
    """Normalization constant of the SNR distribution (forces E{gamma} = gamma_bar)."""
    return derived_constants(params).c_alpha


def mho_alpha(params: ChannelParams) -> float:
    """Mean square of the normalized alpha-root envelope (documented intermediate).

    Computed on request only: no route needs it, and its power overflows at
    small alpha (0.01) where every route still works.
    """
    ratio = params.omega_x / (params.m_x * c_alpha(params) * (params.omega_x + params.omega_y))
    return ratio ** (2.0 / params.alpha)


# Mass of the negative-binomial weights left out of DerivedConstants.nb_weights.
_NB_TAIL = 1e-14

# Most weights nb_weights builds (1 - bb of 2.7e-4 to 1.2e-3 for m_y of 0.1 to
# 50); the count grows as 1/(1 - bb), and past it each route takes seconds.
# Also the most NB rows a mixture density keeps.
_NB_MAX_WEIGHTS = 100_000


def _nb_weights(m_y: float, bb: float, one_minus_bb: float, tail: float) -> np.ndarray:
    """NB(m_y, bb) probabilities w_k = (1-bb)^m_y (m_y)_k bb^k / k!, leaving out at most ``tail``.

    The mass past entry K is the regularized incomplete beta P(k > K) =
    I_bb(K + 1, m_y) (DLMF 8.17), so the table holds ceil(a) entries, where
    scipy's ``btdtria`` solves I_bb(a, m_y) = tail; a single entry when
    P(k > 0) = 1 - (1-bb)^m_y is at most ``tail`` already. The entries are
    w_0 times the running products of the ratios w_{k+1}/w_k = (m_y + k) bb
    / (k + 1). Raises ConvergenceError, before building, when the length
    passes _NB_MAX_WEIGHTS or is not finite (a ``tail`` of 0). Read-only.
    """
    size = float(btdtria(tail, m_y, bb)) if -math.expm1(m_y * math.log1p(-bb)) > tail else 1.0
    if not size <= _NB_MAX_WEIGHTS:
        raise specfun.ConvergenceError(
            f"NB weight table would pass {_NB_MAX_WEIGHTS} entries "
            f"(1 - beta_bar = {one_minus_bb:.3g}, tail {tail:.3g})")
    k = np.arange(math.ceil(size) - 1, dtype=float)
    ratios = (m_y + k) * bb / (k + 1.0)
    weights = np.multiply.accumulate(np.concatenate(([one_minus_bb ** m_y], ratios)))
    weights.flags.writeable = False
    return weights


@dataclass(frozen=True)
class DerivedConstants:
    """Constants of a law shared by the statistics and metrics at every SNR.

    ``derived_constants`` keeps one per (m_x, m_y, omega_x, omega_y, alpha):
    no field reads gamma_bar, which enters only the argument of h. ``m_y``
    and ``beta_bar`` fix the mixing law of :attr:`nb_weights`, and ``m_x``
    with them the mixture density of :attr:`density_lattice`, which the pdf
    and the mixture expectations read; it takes its NB rows from log-gammas
    and never reads the weight table.
    ``one_minus_beta_bar`` is 1 - beta_bar from its own quotient, so it keeps
    its digits as beta_bar -> 1.

    Both cached properties live as long as this object, that is, until
    ``derived_constants`` evicts it or ``derived_constants.cache_clear()``
    runs; nothing else holds them.
    """

    c_alpha: float
    beta_bar: float
    one_minus_beta_bar: float
    m_y: float
    m_x: float

    @cached_property
    def nb_weights(self) -> np.ndarray:
        """The law's NB table, :func:`_nb_weights` leaving out a mass of at most _NB_TAIL.

        U = (gamma/gamma_bar)^(alpha/2) / C is the mixture sum_k w_k Gamma(m_x+k, 1),
        so these weights drive the cdf, the ccdf, the KS cdf, the capacity
        asymptote and the Meijer-G k-series. Built on first use: the pdf never
        needs the weights, and their count grows as 1/(1 - bb).
        """
        return _nb_weights(self.m_y, self.beta_bar, self.one_minus_beta_bar, _NB_TAIL)

    @cached_property
    def density_lattice(self) -> _DensityLattice:
        """The mixture t-density at the trapezoid nodes the metrics visit, each computed once.

        Every mixture expectation on this law (ABER for any modulation, and
        capacity, at any gamma_bar) reads its density values from here, and
        the pdf calls its kernel at its own nodes; see
        :class:`_DensityLattice` for the nodes and the memory bound.
        """
        return _DensityLattice(self.m_x, self.m_y, self.beta_bar, self.one_minus_beta_bar)


# Most nodes per block of a mixture-density evaluation (see _mixture_density).
_MIXTURE_BLOCK = 64

# A block's window keeps the rows within e^-_WINDOW_MARGIN of its end nodes'
# largest rows: _CONTOUR_CUT, plus e^8 for the rows past each edge.
_WINDOW_MARGIN = specfun._CONTOUR_CUT + 8.0

# Most NB rows a density node may sum; a law reaches it as the NB mass centres
# near 10^6, at 1 - beta_bar of about m_y / 10^6.
_MAX_ROWS = 1_000_000


def _window_sum(a: np.ndarray, shapes: np.ndarray, t: np.ndarray,
                log_scale: np.ndarray) -> np.ndarray:
    """sum_k e^(a_k + s_k t - e^t + log_scale) at each node t, over columns a and s = m_x + k."""
    return np.exp(a + shapes * t - (np.exp(t) - log_scale)).sum(axis=0)


def _mixture_density(m_x: float, m_y: float, bb: float, one_minus_bb: float):
    """The t-density of log u, t -> sum_k w_k e^((m_x+k) t - e^t) / Gamma(m_x + k).

    That is (1-bb)^m_y e^(m_x t - (1-bb) e^t) L / Gamma(m_x), L = e^-x
    1F1(m_y; m_x; x) at x = bb e^t. At the nodes where x >= max(200, 6 m_x),
    a suffix of the increasing nodes found with one bisect, log L is
    ``specfun._log_scaled_1f1_large_x``; a node where that raises
    ConvergenceError (it diverges or cancels) sums its rows alone, and
    every other node sums its rows as below.

    Row k is a_k = log w_k - lgamma(m_x + k), taken from log-gammas (xlogy
    makes beta_bar = 0 a single row); no weight table is read. Its five
    parts are added with the rounding of each addition carried, so a row
    rounds once at the size of its largest part, not at every addition:
    at (a, b, x) = (70, 300, 800) the plain sum was 3.6e-13 off in log L,
    where the rounding errors of the parts themselves leave 3e-14. Term k at t
    is e^(a_k + k t) times a factor common to every k. The term ratio
    (m_y + k) x / ((m_x + k)(k + 1)), x = beta_bar e^t, crosses 1 at the
    larger root k*(t) of k^2 + (m_x + 1 - x) k + (m_x - m_y x), clipped at
    0, whose inverse is t(k) = log((k + 1)(k + m_x) / ((k + m_y) beta_bar)).
    The ratio crosses 1 at most twice, so past row ceil(k*) the rows fall,
    and below it they rise, apart from a fall from row 0 below the smaller
    crossing.

    The returned function takes a non-decreasing ndarray of nodes, and an
    ndarray log_scale of one entry per node added to that node's exponents
    (zeros for the lattice), so that a factor of the caller's (the pdf's
    alpha / (2 gamma)) meets the density before its exponential and the
    product underflows only where it is below the double range itself.
    It sums the nodes' rows in blocks: consecutive nodes while k* moves
    less than two half-widths 10.4 sqrt(5 (k + 1)) + 4 (5 (k + 1) bounds
    the rows' local variance where they curve,
    1 / (1/(k + 1) + 1/(m_x + k) - 1/(m_y + k))),
    and at most _MIXTURE_BLOCK of them. Each block sums the rows within
    e^-_WINDOW_MARGIN of the largest row at its first node t0 (for the rows
    below k*) and at its last node t1 (above it): the window starts a
    half-width past k* on each side, doubles until its edge rows are below
    that at t0 and t1 and row 0 is too (or the window reaches it), and then
    each edge is bisected in to the last row within the margin. Every row
    below the window is then below e^-_WINDOW_MARGIN of the largest term at
    t0, and the rows' maximum M(t) = max_k (a_k + k t) rises at least as
    fast as any of them, so they stay below it at every node of the block;
    in the same way at t1 for the rows above. Past each edge the rows fall
    at least geometrically, so they hold less than e^-_CONTOUR_CUT (e^-46)
    of the density at each node.

    The rows k < _NB_MAX_WEIGHTS are kept, each with its shape m_x + k, in
    one read-only prefix that grows on demand and is published whole; rows
    past it are computed per block and not kept. A window that would reach row _MAX_ROWS (10^6) raises
    ConvergenceError. Past the t at which a Chernoff bound, s = 0.9(1 - bb),
    puts P(U > e^t) below e^-745, the density is 0: an underflow-level cut,
    not a tolerance.
    """
    log_head = m_y * math.log(one_minus_bb) - math.lgamma(m_y)
    log_norm = m_y * math.log(one_minus_bb) - math.lgamma(m_x)
    edge = max(200.0, 6.0 * m_x)
    log_bb = math.log(bb) if bb > 0.0 else -math.inf
    s = 0.9 * one_minus_bb
    t_max = math.log((745.0 + m_y * math.log(10.0) + (m_y - m_x) * math.log1p(-s)) / s)
    kept = np.empty((2, 0))

    def new_rows(lo: int, hi: int) -> np.ndarray:
        """The rows lo..hi-1 over their shapes m_x + k, as one (2, hi - lo) array."""
        k = np.arange(lo, hi, dtype=float)
        total, carry = gammaln(m_y + k), 0.0
        for part in (-gammaln(k + 1.0), -gammaln(m_x + k), log_head):
            rounded = total + part  # Knuth's two-sum: carry what each addition rounds off
            carry = carry + ((total - (rounded - (rounded - total))) + (part - (rounded - total)))
            total = rounded
        return np.stack((total + (carry + xlogy(k, bb)), m_x + k))  # -inf past row 0 at bb = 0

    def rows(lo: int, hi: int):
        """(the rows lo..hi-1, their shapes), two (hi - lo, 1) columns."""
        nonlocal kept
        if hi > _MAX_ROWS:
            raise specfun.ConvergenceError(f"mixture density needs NB rows past {_MAX_ROWS}")
        held = kept
        if held.shape[1] < hi <= _NB_MAX_WEIGHTS:
            size = min(max(hi, 2 * held.shape[1], 64), _NB_MAX_WEIGHTS)
            held = np.concatenate((held, new_rows(held.shape[1], size)), axis=1)
            held.flags.writeable = False
            kept = held
        if hi > held.shape[1]:
            held, lo, hi = new_rows(lo, hi), 0, hi - lo
        return held[0, lo:hi, None], held[1, lo:hi, None]

    row0 = rows(0, 1)[0].item(0)

    def peak(t: float):
        """(k*(t), the window's half-width there)."""
        x = bb * math.exp(t)
        b = m_x + 1.0 - x
        k = max(0.5 * (math.sqrt(max(b * b - 4.0 * (m_x - m_y * x), 0.0)) - b), 0.0)
        return k, 10.4 * math.sqrt(5.0 * (k + 1.0)) + 4.0

    def density(t: np.ndarray, log_scale: np.ndarray) -> np.ndarray:
        dens = np.zeros(t.shape)
        nodes = t.tolist()
        stop = bisect.bisect_right(nodes, t_max)
        first = bisect.bisect_left(nodes, edge, 0, stop, key=lambda v: bb * math.exp(v))
        sum_rows(t, log_scale, nodes, 0, first, dens)
        for i in range(first, stop):
            u = math.exp(nodes[i])
            try:
                log_f = specfun._log_scaled_1f1_large_x(m_y, m_x, bb * u)
            except specfun.ConvergenceError:
                sum_rows(t, log_scale, nodes, i, i + 1, dens)
            else:
                dens[i] = math.exp(log_norm + m_x * nodes[i] - one_minus_bb * u + log_f + log_scale[i])
        return dens

    def sum_rows(t: np.ndarray, log_scale: np.ndarray, nodes: list, i: int, stop: int,
                 dens: np.ndarray) -> None:
        while i < stop:
            (k0, half0), t0 = peak(nodes[i]), nodes[i]
            reach = k0 + 2.0 * half0
            t_reach = math.log((reach + 1.0) * (reach + m_x) / (reach + m_y)) - log_bb
            j = bisect.bisect_left(nodes, t_reach, i + 1, min(stop, i + _MIXTURE_BLOCK))
            (k1, half1), t1 = peak(nodes[j - 1]), nodes[j - 1]
            top0, top1 = math.ceil(k0), math.ceil(k1)  # the largest rows, as the ratio crosses 1
            lo, hi = max(math.floor(k0 - half0), 0), math.ceil(k1 + half1) + 1
            while True:
                a, shapes = rows(lo, hi)
                row = a.item  # a Python float, so the scalar tests below stay cheap
                cut0 = row(top0 - lo) + top0 * t0 - _WINDOW_MARGIN
                cut1 = row(top1 - lo) + top1 * t1 - _WINDOW_MARGIN
                if row(-1) + (hi - 1) * t1 < cut1 and (
                        lo == 0 or max(row0, row(0) + lo * t0) < cut0):
                    break
                lo, hi = max(2 * lo - hi, 0), 2 * hi - lo
            # Bisect each edge in to the rows within the margin: they rise up
            # to top0 once row 0 is below the cut, and fall past top1.
            start = lo if row0 >= cut0 else bisect.bisect_left(
                range(top0), True, lo, key=lambda k: row(k - lo) + k * t0 >= cut0)
            end = bisect.bisect_left(
                range(hi), True, top1, key=lambda k: row(k - lo) + k * t1 < cut1)
            dens[i:j] = _window_sum(a[start - lo:end - lo], shapes[start - lo:end - lo], t[i:j],
                                    log_scale[i:j])
            i = j
    return density


class _DensityLattice:
    """The mixture t-density on the dyadic trapezoid lattice, computed at most once per node.

    Node j of level 0 is t = start + j/2, and node j of level L >= 1 is the
    midpoint t = start + (2j + 1)/2^(L+1), with start = log(EU + 10 sqrt(EU)
    + 50) at the law's mean EU = m_x + m_y bb / (1 - bb): a law's nodes
    depend on the law alone, not on gamma_bar, so every expectation on it
    at every gamma_bar shares them.

    Per level the memo keeps one contiguous index range and its values. A
    request computes only the indices outside the range held (and any gap
    between the two) with :func:`_mixture_density`, then publishes the new
    (lo, values) pair whole, so a concurrent caller can only repeat work,
    never read a torn range. The blocks of a request start at its first new
    index, so a node's window depends on the request that computed it; but
    a window leaves out only rows below e^-(46 + 8) of the node's largest
    term, which has not been seen to change a bit of a sum.

    The kernel itself, :attr:`mixture_density`, also serves nodes off the
    lattice (the pdf's), with no memo. Memory: one float per node kept, and
    the density's prefix of at most _NB_MAX_WEIGHTS (100,000) rows and their
    shapes (1.6 MB), which every caller of the kernel shares. A lattice keeps the union of the nodes
    its gamma_bar values visit: on the benchmark's ``domain`` workload, 40
    lattices serve the 67 laws and hold at most 1,547 nodes (12 KB) each;
    after ``abxs eval --fig 2 --oracle``, 3 lattices hold 1,583 nodes (at
    most 732 each), and after ``--fig 4`` 4 lattices hold 958. Level 0
    holds the nodes of the expectations' decay searches, which raise before
    they pass t = -1e4 or 700, so at most about 21,400. A call whose levels
    still disagree at the level cap would leave up to 2^12 times its level-0
    span, so it calls :meth:`drop_refinements` before it raises: at rest,
    the levels L >= 1 of a lattice are those of calls, at any gamma_bar,
    that converged since its last failing call, each level the union of
    their ranges of 2^(L-1) times their level-0 spans.
    """

    def __init__(self, m_x: float, m_y: float, bb: float, one_minus_bb: float) -> None:
        mean = m_x + m_y * bb / one_minus_bb
        self.start = math.log(mean + 10.0 * math.sqrt(mean) + 50.0)
        self.mixture_density = _mixture_density(m_x, m_y, bb, one_minus_bb)
        self._levels = {}  # level -> (first index held, read-only values)

    def nodes(self, level: int, j):
        """t at the indices j (an int or an integer ndarray) of ``level``."""
        if level == 0:
            return self.start + 0.5 * j
        return self.start + (2 * j + 1) / 2.0 ** (level + 1)

    def density(self, level: int, a: int, b: int) -> np.ndarray:
        """The density at the nodes a..b-1 of ``level``, as a read-only array."""
        lo, values = self._levels.get(level, (a, np.empty(0)))
        hi = lo + values.size
        if a < lo or hi < b:
            new_lo = min(a, lo)
            values = np.concatenate((self._evaluate(level, new_lo, lo), values,
                                     self._evaluate(level, hi, max(b, hi))))
            values.flags.writeable = False
            lo = new_lo
            self._levels[level] = (lo, values)
        return values[a - lo:b - lo]

    def drop_refinements(self) -> None:
        """Forget every level but level 0."""
        self._levels = {0: self._levels[0]}

    def _evaluate(self, level: int, a: int, b: int) -> np.ndarray:
        return self.mixture_density(self.nodes(level, np.arange(a, b)), np.zeros(b - a))


# Agreement asked of scipy's hyp2f1 and Euler's integral, in log 2F1 per unit of s.
_LOS_CHECK_TOL = 1e-11


def _log_los_2f1(m_x: float, m_y: float, bb: float, one_minus_bb: float, s: float) -> float:
    """log 2F1(m_y, -s; m_x; -bb/(1-bb)), the LoS factor of E[U^s].

    Taken through Pfaff's map as (1-bb)^-s 2F1(m_x - m_y, -s; m_x; bb): at
    z = -bb/(1-bb) scipy's hyp2f1 loses up to 2e-7 when m_y + s is an integer
    (m_y = 1.2, alpha = 2.5, 1 - bb from 6e-7 to 8e-4); on this form it stays within 1e-15
    there. For m_x > m_y scipy can still be far off (1.5e-4 in C at m_x = 21.12,
    m_y = 1.385, alpha = 0.0905, bb = 0.84), so there hyp2f1's value is kept only
    where it agrees with Euler's integral to _LOS_CHECK_TOL * max(s, 1) in the log,
    and Euler's value, which has a check of its own, is taken instead.
    For m_x <= m_y a hyp2f1 value that is not positive and finite raises
    ConvergenceError.
    """
    hyp = specfun.gauss_2f1(m_x - m_y, -s, m_x, bb)
    log_hyp = math.log(hyp) if 0.0 < hyp < math.inf else math.nan
    if m_x > m_y:
        log_euler = _log_euler_2f1(m_x, m_y, one_minus_bb, s)
        if not abs(log_hyp - log_euler) <= _LOS_CHECK_TOL * max(s, 1.0):
            log_hyp = log_euler
    elif math.isnan(log_hyp):
        raise specfun.ConvergenceError(f"hyp2f1 returned {hyp} for a positive 2F1")
    return log_hyp - s * math.log(one_minus_bb)


# Tanh-sinh rule for Euler's integral: nodes at x = j h on |x| <= _TS_X_MAX, the
# step halving from _TS_H0 up to _TS_LEVELS times; the log-space levels must agree
# to _TS_TOL * max(s, 1). A window edge leaves out at most e^-_TS_TAIL of the integral.
_TS_H0 = 0.125
_TS_LEVELS = 7
_TS_X_MAX = 43.0
_TS_TOL = 1e-14
_TS_TAIL = 40.0


@lru_cache(maxsize=None)
def _tanh_sinh_nodes(level: int) -> np.ndarray:
    """Rows log t, log(1-t) and log w over the nodes x that ``level`` adds, in increasing x.

    t = 1/(1 + e^(-2v)) with v = (pi/2) sinh x, so dt/dx = t (1-t) w with
    w = pi cosh x. Level 0 holds every x = j _TS_H0; level k adds the odd
    multiples of _TS_H0 / 2^k. Both logs are taken from 2v directly, so neither
    end of (0, 1) rounds to 0 or 1. The weight w is kept apart from t (1-t):
    adding (m_x - m_y - 1) log t to log dt/dx would leave m_x - m_y times log t
    with an error of eps |log t|, which swamps it at the far nodes when
    m_x - m_y is small.
    """
    h = _TS_H0 / 2 ** level
    n = int(_TS_X_MAX / h)
    x = (np.arange(-n, n + 1) if level == 0 else np.arange(1 - n, n, 2)) * h
    two_v = math.pi * np.sinh(x)
    rows = np.stack((-np.logaddexp(0.0, -two_v), -np.logaddexp(0.0, two_v),
                     np.log(math.pi * np.cosh(x))))
    rows.flags.writeable = False
    return rows


def _log_euler_2f1(m_x: float, m_y: float, one_minus_bb: float, s: float) -> float:
    """log 2F1(m_x - m_y, -s; m_x; bb) for m_x > m_y by Euler's integral.

    2F1 = int_0^1 t^(d-1) (1-t)^(m_y-1) (1 - bb t)^s dt / B(d, m_y), d = m_x - m_y,
    a positive integrand with 1 - bb t taken as (1 - t) + (1 - bb) t. A tanh-sinh
    (double-exponential) rule sums it in log space on the law-free nodes of
    _tanh_sinh_nodes, which carry the endpoint powers t^d and (1-t)^m_y and
    resolve the near-singularity of width 1 - bb at t -> 1 as the step halves.
    The window |x| keeps the tails t < t_lo and 1 - t < r_hi under e^-_TS_TAIL of
    the lower bound B(d, m_y + s) on the integral, by the tail bounds
    2^max(0, 1-m_y) t_lo^d / d and 2^max(0, 1-d) r_hi^m_y / m_y; it grows as
    asinh(1/(pi d)) and asinh(1/(pi m_y)). The step halves until two levels agree
    to _TS_TOL * max(s, 1); ConvergenceError is raised if they never do, or if the
    window passes the node table (d or m_y below about 1e-17). Shares no code
    with hyp2f1.
    """
    d = m_x - m_y
    log_lower = math.lgamma(d) + math.lgamma(m_y + s) - math.lgamma(m_x + s)
    log2 = math.log(2.0)
    x_lo = math.asinh(max(_TS_TAIL - log_lower - math.log(d) + max(0.0, 1.0 - m_y) * log2, 0.0)
                      / (math.pi * d))
    x_hi = math.asinh(max(_TS_TAIL - log_lower - math.log(m_y) + max(0.0, 1.0 - d) * log2, 0.0)
                      / (math.pi * m_y))
    if max(x_lo, x_hi) > _TS_X_MAX:
        raise specfun.ConvergenceError(
            f"Euler's integral needs tanh-sinh nodes past |x| = {_TS_X_MAX:g} "
            f"(m_x - m_y = {d:g}, m_y = {m_y:g})")
    log_eps = math.log(one_minus_bb)
    h = _TS_H0
    total, shift, est = 0.0, 0.0, math.nan
    for level in range(_TS_LEVELS + 1):
        rows = _tanh_sinh_nodes(level)
        # column n + j holds x = j h on level 0 and x = (2 j + 1) h after it
        n = rows.shape[1] // 2
        if level == 0:
            lo, hi = n - math.floor(x_lo / h), n + math.floor(x_hi / h) + 1
        else:
            lo = n - math.floor((x_lo / h + 1.0) / 2.0)
            hi = n + math.floor((x_hi / h - 1.0) / 2.0) + 1
        log_t, log_1mt, log_w = rows[:, lo:hi]
        log_f = d * log_t + m_y * log_1mt + log_w + s * np.logaddexp(log_1mt, log_eps + log_t)
        if level == 0:
            shift = log_f.max()
        total += np.exp(log_f - shift).sum()
        prev, est = est, shift + math.log(total * h)
        if abs(est - prev) <= _TS_TOL * max(s, 1.0):
            return est + math.lgamma(m_x) - math.lgamma(d) - math.lgamma(m_y)
        h *= 0.5
    raise specfun.ConvergenceError(
        f"Euler's integral for 2F1({d:g}, {-s:g}; {m_x:g}; 1 - {one_minus_bb:g}): "
        f"tanh-sinh levels still differ by {abs(est - prev):.3g} at step {2.0 * h:g}")


def derived_constants(params: ChannelParams) -> DerivedConstants:
    """The law's :class:`DerivedConstants`, one per (m_x, m_y, omega_x, omega_y, alpha).

    No field reads gamma_bar, so every SNR of a law shares one object: its
    c_alpha, its NB table and its density lattice. The cache is one LRU of
    256 entries; ``derived_constants.cache_info()`` and ``.cache_clear()``
    are its own.
    """
    return _derived_constants(params.m_x, params.m_y, params.omega_x, params.omega_y,
                              params.alpha)


@lru_cache(maxsize=256)
def _derived_constants(m_x, m_y, omega_x, omega_y, alpha) -> DerivedConstants:
    law = ChannelParams(m_x, m_y, omega_x, omega_y, alpha, gamma_bar=1.0)  # no gamma_bar is read
    bb = beta_bar(law)
    one_minus_bb = _one_minus_beta_bar(law)
    if bb == 1.0:
        raise specfun.ConvergenceError(
            f"1 - beta_bar = {one_minus_bb:.3g} is below the resolution of a double")
    two_over_alpha = 2.0 / alpha
    log_c = (math.lgamma(m_x) - math.lgamma(m_x + two_over_alpha)
             - _log_los_2f1(m_x, m_y, bb, one_minus_bb, two_over_alpha)) / two_over_alpha
    return DerivedConstants(c_alpha=math.exp(log_c), beta_bar=bb,
                            one_minus_beta_bar=one_minus_bb, m_y=m_y, m_x=m_x)


derived_constants.cache_info = _derived_constants.cache_info
derived_constants.cache_clear = _derived_constants.cache_clear


def envelope_moment(params: ChannelParams, k: float) -> float:
    """k-th raw moment of the (unnormalized) envelope, E{R^k}."""
    if not k > 0:
        raise ValueError(f"moment order must be positive, got {k}")
    dc = derived_constants(params)
    log_hyp = _log_los_2f1(params.m_x, params.m_y, dc.beta_bar, dc.one_minus_beta_bar, k / 2.0)
    log_ratio = math.lgamma(params.m_x + k / 2.0) - math.lgamma(params.m_x)
    return math.exp(log_hyp + log_ratio) * (params.omega_x / params.m_x) ** (k / 2.0)


def _snr_density(params: ChannelParams, gamma: float) -> float:
    """The high-SNR density, (1-bb)^m_y u^m_x e^-u alpha / (2 gamma Gamma(m_x)), in logs.

    At gamma = 0 it is also the density: 0 for alpha*m_x > 2, inf for
    alpha*m_x < 2, and at alpha*m_x = 2 its finite limit, or inf past the
    largest double.
    """
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    dc = derived_constants(params)
    exponent = params.alpha * params.m_x / 2.0 - 1.0
    if gamma == 0.0 and exponent != 0.0:
        return 0.0 if exponent > 0.0 else math.inf
    log_f = (math.log(params.alpha / 2.0)
             + params.m_y * math.log(dc.one_minus_beta_bar)
             - params.m_x * math.log(dc.c_alpha)
             - math.lgamma(params.m_x)
             - math.log(params.gamma_bar))
    if gamma != 0.0:
        ratio = gamma / params.gamma_bar
        u = ratio ** (params.alpha / 2.0) / dc.c_alpha
        log_f = (log_f + exponent * math.log(ratio)
                 - dc.one_minus_beta_bar * u - dc.beta_bar * u)
    if log_f > 709.0:
        return math.inf
    return math.exp(log_f)


def _elementwise(gamma, statistic):
    """statistic over gamma as a 1-D float ndarray, returned in gamma's shape; a float for a scalar.

    Raises ValueError, before any other work, if an entry is negative.
    """
    g = np.asarray(gamma, dtype=float)
    if np.count_nonzero(g < 0.0):
        raise ValueError(f"gamma must be >= 0, got {g[g < 0.0].min()}")
    out = statistic(g.ravel()).reshape(g.shape)
    return out if g.ndim else float(out)


def snr_pdf(params: ChannelParams, gamma):
    """Instantaneous-SNR density f(gamma), at a float or at each entry of an ndarray.

    The mixture t-density of the law's :class:`_DensityLattice` kernel at
    t = log u, u = (gamma/gamma_bar)^(alpha/2) / C, times dt/dgamma =
    alpha / (2 gamma), which the kernel adds in logs before it exponentiates:
    at small gamma the t-density alone can underflow where the pdf does not
    (about 1e-228 at gamma = 1e-150 on ChannelParams(5, 1, 1, 1, 1, 10)).
    At gamma = 0 the density is 0 for alpha*m_x > 2,
    finite for alpha*m_x = 2, and unbounded for alpha*m_x < 2 (reported as
    inf so downstream integrals keep working).

    A float (or a 0-d array) gives a float; an ndarray (or a list) gives
    an ndarray of its shape. Either way the entries > 0 are one kernel call
    at them in increasing order, and a 0 or NaN entry is the high-SNR
    density's value there. An entry of an array may differ from the same
    gamma alone in the last bits (within 2e-15 relative where measured): a
    kernel block sums the union of its nodes' row windows. A negative entry
    raises ValueError.
    """
    return _elementwise(gamma, lambda g: _pdf_array(params, g))


def _pdf_array(params: ChannelParams, gamma: np.ndarray) -> np.ndarray:
    """snr_pdf at each entry of the 1-D array gamma (no entry negative)."""
    g = gamma.tolist()
    out = [0.0 if v > 0.0 else _snr_density(params, v) for v in g]
    order = sorted((i for i, v in enumerate(g) if v > 0.0), key=g.__getitem__)
    dc = derived_constants(params)
    half_alpha, log_c = 0.5 * params.alpha, math.log(dc.c_alpha)
    t = np.array([half_alpha * math.log(g[i] / params.gamma_bar) - log_c for i in order])
    log_scale = np.array([math.log(half_alpha) - math.log(g[i]) for i in order])
    for i, f in zip(order, dc.density_lattice.mixture_density(t, log_scale).tolist()):
        out[i] = f
    return np.array(out)


def _gamma_mixture(params: ChannelParams, gamma: float | np.ndarray, inc_gamma,
                   tail: float = _NB_TAIL):
    """sum_k w_k inc_gamma(m_x + k, u) at u = (gamma/gamma_bar)^(alpha/2) / C, capped at 1.

    The weights are :func:`_nb_weights` leaving out at most ``tail``, the
    law's ``nb_weights`` at _NB_TAIL. ``gamma`` is a float or a 1-D ndarray;
    one pass per weight keeps the memory proportional to it.
    """
    dc = derived_constants(params)
    weights = dc.nb_weights if tail == _NB_TAIL else _nb_weights(
        params.m_y, dc.beta_bar, dc.one_minus_beta_bar, tail)
    u = (gamma / params.gamma_bar) ** (params.alpha / 2.0) / dc.c_alpha
    total = np.zeros_like(u)
    for k, w in enumerate(weights):
        total += w * inc_gamma(params.m_x + k, u)
    return np.minimum(total, 1.0)


def snr_cdf(params: ChannelParams, gamma):
    """SNR distribution function: the NB mixture of regularized lower incomplete gammas.

    A float (or a 0-d array) gives a float; an ndarray (or a list) gives an
    ndarray of its shape, each entry the float call's value to the bit (a
    float is summed as a one-entry array). A negative entry raises
    ValueError.
    """
    return _elementwise(gamma, lambda g: _gamma_mixture(params, g, gammainc))


def snr_ccdf(params: ChannelParams, gamma):
    """Complementary cdf: the NB mixture of regularized upper incomplete gammas.

    Its upper tail lies in the weights past the table's cut, so a sum whose
    _NB_TAIL could pass specfun._REL_TOL of it is summed once more on a
    table that leaves out at most _REL_TOL of that sum. The first sum is
    below the value, so the second leaves out at most _REL_TOL of the value.
    While a sum is 0 the tail is squared (1e-28, 1e-56, ... down to the
    smallest double) and the sum taken again; one that stays 0 is returned.
    Raises ConvergenceError where a table would pass _NB_MAX_WEIGHTS entries.

    A float (or a 0-d array) gives a float; an ndarray (or a list) gives an
    ndarray of its shape, taken entry by entry, so each entry is the float
    call. A negative entry raises ValueError.
    """
    return _elementwise(gamma, lambda g: np.array([_ccdf(params, v) for v in g.tolist()]))


def _ccdf(params: ChannelParams, gamma: float) -> float:
    """snr_ccdf at one gamma >= 0 (or NaN)."""
    if gamma == 0.0:
        return 1.0
    tail, value = _NB_TAIL, float(_gamma_mixture(params, gamma, gammaincc))
    while value == 0.0 and tail > math.ulp(0.0):
        tail = max(tail * tail, math.ulp(0.0))
        value = float(_gamma_mixture(params, gamma, gammaincc, tail))
    if 0.0 < specfun._REL_TOL * value < _NB_TAIL:
        value = float(_gamma_mixture(params, gamma, gammaincc, specfun._REL_TOL * value))
    return value


def snr_cdf_phi2(params: ChannelParams, gamma: float) -> float:
    """Cross-validation route for the cdf through the Appell Phi2 function.

    F = (1-bb)^m_y u^m_x e^-u Phi2(1, m_y; m_x + 1; u, bb*u) / Gamma(m_x + 1).
    Overflows for u beyond the exp range; intended for moderate arguments.
    """
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    if gamma == 0.0:
        return 0.0
    dc = derived_constants(params)
    u = (gamma / params.gamma_bar) ** (params.alpha / 2.0) / dc.c_alpha
    if u > 650.0:
        raise OverflowError("snr_cdf_phi2 argument too large; use snr_cdf")
    phi2 = specfun.appell_phi2(1.0, params.m_y, params.m_x + 1.0, u, dc.beta_bar * u)
    log_f = (params.m_y * math.log(dc.one_minus_beta_bar) + params.m_x * math.log(u)
             - u - math.lgamma(params.m_x + 1.0))
    return math.exp(log_f) * phi2


def snr_pdf_asymptotic(params: ChannelParams, gamma: float) -> float:
    """High-mean-SNR density approximation (confluent factor dropped)."""
    return _snr_density(params, gamma)


def snr_cdf_asymptotic(params: ChannelParams, gamma: float) -> float:
    """High-mean-SNR cdf approximation: the bare power law."""
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    if gamma == 0.0:
        return 0.0
    dc = derived_constants(params)
    ratio = gamma / params.gamma_bar
    log_f = (params.m_y * math.log(dc.one_minus_beta_bar)
             - params.m_x * math.log(dc.c_alpha)
             - math.lgamma(params.m_x + 1.0)
             + (params.alpha * params.m_x / 2.0) * math.log(ratio))
    return math.exp(log_f)


def bxs_envelope_pdf(params: ChannelParams, r: float) -> float:
    """Envelope density of the baseline (alpha = 2) Beaulieu-Xie shadowed model.

    Reference form for the alpha = 2 reduction tests and the sampler check;
    the nonlinearity exponent is ignored. Its 1F1 is the oracle's reference
    ``specfun._log_scaled_1f1``, independent of the density kernel, so it
    raises ConvergenceError where x = bb m_x r^2 / omega_x passes 650 below
    6 m_x (scipy's hyp1f1 is not taken past 650, the expansion not below 6b).
    """
    if r < 0:
        raise ValueError(f"r must be >= 0, got {r}")
    if r == 0.0:
        if params.m_x > 0.5:
            return 0.0
        if params.m_x == 0.5:
            return (2.0 * _one_minus_beta_bar(params) ** params.m_y
                    * (params.m_x / params.omega_x) ** params.m_x
                    / math.gamma(params.m_x))
        return math.inf
    bb, one_minus_bb = beta_bar(params), _one_minus_beta_bar(params)
    t = params.m_x * r * r / params.omega_x
    log_f = (math.log(2.0) + (2.0 * params.m_x - 1.0) * math.log(r)
             - math.lgamma(params.m_x)
             + params.m_y * math.log(one_minus_bb)
             + params.m_x * math.log(params.m_x / params.omega_x)
             - one_minus_bb * t
             + specfun._log_scaled_1f1(params.m_y, params.m_x, bb * t))
    if log_f > 709.0:
        return math.inf
    return math.exp(log_f)


def bxs_power_pdf(params: ChannelParams, w: float) -> float:
    """Density of the envelope power W = R^2 for the baseline model."""
    if w < 0:
        raise ValueError(f"w must be >= 0, got {w}")
    if w == 0.0:
        # f_W ~ const * w^(m_x - 1) near the origin
        if params.m_x > 1.0:
            return 0.0
        if params.m_x < 1.0:
            return math.inf
        return (_one_minus_beta_bar(params) ** params.m_y
                * (params.m_x / params.omega_x) ** params.m_x / math.gamma(params.m_x))
    rw = math.sqrt(w)
    return bxs_envelope_pdf(params, rw) / (2.0 * rw)

