"""Link-performance metrics: average bit error rate and ergodic capacity.

Each metric comes in three flavours:

* a quadrature oracle integrating the SNR density directly (the reference
  every closed form is judged against),
* the exact value, ``aber_exact`` / ``capacity_exact``: the expectation over
  the negative-binomial gamma mixture (``aber_mixture`` /
  ``capacity_mixture``, path ``series-quadrature``), at every alpha, which
  ``abxs eval`` prints as its ``exact`` column. Its mixture density takes
  each node's NB terms from log-gammas, with no weight table and no cut in
  NB mass. The paper's closed form, a truncated series of Meijer G terms
  over the NB weight table, is kept as its partial sums
  (``aber_exact_truncation_profile`` / ``capacity_exact_truncation_profile``),
  and
* the high-SNR asymptote, which also yields diversity order and coding gain.

The Q-function is taken from erfc, never a polynomial fit, so the oracle is
more accurate than anything it judges.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import digamma, erfc
from scipy.special.cython_special import hyp1f1

from . import channel, specfun
from .channel import ChannelParams, derived_constants
from .specfun import ConvergenceError, MeijerGSpec

# Largest denominator q of alpha/2 = p/q for which the truncation profiles
# evaluate the paper's Meijer-G closed form: past it the parameter count makes
# each G term too costly, and rationalize_alpha raises ValueError.
_CLOSED_FORM_MAX_Q = 8

# QUADPACK settings of the quadrature oracle.
_QUAD_EPSREL = 1e-11
_QUAD_LIMIT = 200

@dataclass(frozen=True)
class ModulationScheme:
    """Coefficient triple {delta1, delta2_j, delta3} of the Q-function ABER sum."""

    name: str
    delta1: float
    delta2: tuple
    delta3: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "delta2", tuple(float(v) for v in self.delta2))
        if self.delta3 < 1 or len(self.delta2) != self.delta3:
            raise ValueError("delta3 must equal len(delta2) and be >= 1")
        if not self.delta1 > 0:
            raise ValueError(f"delta1 must be positive, got {self.delta1}")
        if any(d <= 0 for d in self.delta2):
            raise ValueError("all delta2 entries must be positive")


@dataclass(frozen=True)
class AberResult:
    """ABER value plus provenance: series length and evaluation route."""

    value: float
    terms_used: int
    path: str  # series-quadrature | oracle | asymptotic

    def __post_init__(self) -> None:
        if self.value < -1e-12:
            raise ValueError(f"ABER is negative: {self.value}")
        object.__setattr__(self, "value", max(self.value, 0.0))


@dataclass(frozen=True)
class CapacityResult:
    """Ergodic capacity (bits per channel use) plus provenance."""

    value: float
    terms_used: int
    path: str


def modulation_coeffs(kind: str, order: int = 2) -> ModulationScheme:
    """Coefficient set for a modulation family.

    kind is one of ``bpsk``, ``mpsk``, ``mqam``, ``mfsk`` (coherent). M-QAM
    requires a square constellation. M-PSK and M-FSK use the standard
    symbol-SNR Q-function approximations.
    """
    kind = kind.lower().replace("-", "").replace("_", "")
    if kind == "bpsk":
        if order != 2:
            raise ValueError("BPSK has order 2")
        return ModulationScheme("bpsk", 1.0, (1.0,), 1)
    if kind == "mqam":
        root = math.isqrt(order)
        bits = order.bit_length() - 1
        if root * root != order or (1 << bits) != order or order < 4:
            raise ValueError(f"M-QAM needs a square power-of-two order, got {order}")
        d1 = 4.0 * (1.0 - 1.0 / root) / bits
        d3 = root // 2
        d2 = tuple(3.0 * (2 * j - 1) ** 2 / (2.0 * (order - 1)) for j in range(1, d3 + 1))
        return ModulationScheme(f"qam{order}", d1, d2, d3)
    if kind == "mpsk":
        bits = order.bit_length() - 1
        if (1 << bits) != order or order < 4:
            raise ValueError(f"M-PSK needs a power-of-two order >= 4, got {order}")
        d3 = max(order // 4, 1)
        d1 = 2.0 / bits
        d2 = tuple(math.sin((2 * j - 1) * math.pi / order) ** 2 for j in range(1, d3 + 1))
        return ModulationScheme(f"psk{order}", d1, d2, d3)
    if kind == "mfsk":
        bits = order.bit_length() - 1
        if (1 << bits) != order or order < 2:
            raise ValueError(f"M-FSK needs a power-of-two order >= 2, got {order}")
        return ModulationScheme(f"fsk{order}", order / 2.0, (0.5,), 1)
    raise ValueError(f"unsupported modulation kind {kind!r}")


def _make_aber(value: float, terms_used: int, path: str,
               mod: ModulationScheme) -> AberResult:
    bound = 0.5 * mod.delta1 * mod.delta3
    if value > bound * (1.0 + 1e-9):
        raise ConvergenceError(f"ABER {value} exceeds the Q <= 1/2 bound {bound}")
    return AberResult(value=min(value, bound), terms_used=terms_used, path=path)


def _log_scaled_1f1(a: float, b: float, x: float) -> float:
    """log(e^-x 1F1(a; b; x)) for x >= 0 from scipy's hyp1f1, asymptotic past its range.

    hyp1f1 is taken from ``scipy.special.cython_special``: the same routine
    as the ``scipy.special.hyp1f1`` ufunc, without the ufunc's per-call
    overhead on a Python float (0.2 us against 0.9 us). Past x = 650, or
    where hyp1f1 overflows, the large-x expansion raises ConvergenceError at
    x < 6b, where it can converge to a wrong value.
    """
    value = hyp1f1(a, b, x) if x <= 650.0 else math.inf
    if math.isfinite(value):
        return math.log(value) - x
    return specfun._log_scaled_1f1_large_x(a, b, x)


def _snr_integral(params: ChannelParams, h, t_hi: float = math.inf) -> float:
    """E[h(log gamma); t < t_hi] by QUADPACK over t = log u, u = (gamma/gamma_bar)^(alpha/2) / C.

    The t-density (1-bb)^m_y e^(m_x t - e^t) 1F1(m_y; m_x; bb e^t) / Gamma(m_x)
    is smooth and decays at both ends, so three pieces split at log E[U] +- 5
    need no breaks, endpoint weight or tail scale. Its exponent is taken as
    -(1-bb) e^t plus log(e^-x 1F1) at x = bb e^t, so nothing cancels as bb -> 1.
    The 1F1 is scipy's ``hyp1f1``, not the pdf's series, but past x = 650,
    and where hyp1f1 overflows, it takes ``specfun._log_scaled_1f1_large_x``,
    which the pdf takes from x = 200 on (at x >= 6 m_x), so there the oracle
    and the pdf share that expansion and its error. Where that expansion
    would be needed at x < 6 m_x it raises ConvergenceError, so the oracle
    never returns its wrong value. It shares no code with
    the NB weights or Meijer G. ``h`` runs
    only where the density has not underflowed. Only this function imports
    scipy.integrate, which loads scipy.optimize, scipy.sparse and scipy.linalg,
    so only the oracles pay for that import.
    """
    from scipy import integrate

    dc = derived_constants(params)
    bb, m_x, m_y = dc.beta_bar, params.m_x, params.m_y
    one_minus_bb = dc.one_minus_beta_bar
    log_norm = m_y * math.log(one_minus_bb) - math.lgamma(m_x)
    two_over_alpha = 2.0 / params.alpha
    log_scale = math.log(params.gamma_bar) + two_over_alpha * math.log(dc.c_alpha)

    def integrand(t: float) -> float:
        if t > 700.0:
            return 0.0
        u = math.exp(t)
        log_dens = log_norm + m_x * t - one_minus_bb * u + _log_scaled_1f1(m_y, m_x, bb * u)
        if log_dens < -745.0:
            return 0.0
        return h(log_scale + two_over_alpha * t) * math.exp(log_dens)

    mid = math.log(m_x + m_y * bb / one_minus_bb)
    cuts = [c for c in (mid - 5.0, mid + 5.0) if c < t_hi]
    # full_output returns QUADPACK's message instead of warning: the error
    # estimate is gated below, and a warning filter is process-global.
    total = err = 0.0
    for lo, hi in zip([-math.inf] + cuts, cuts + [t_hi]):
        val, e = integrate.quad(integrand, lo, hi, epsabs=0.0, epsrel=_QUAD_EPSREL,
                                limit=_QUAD_LIMIT, full_output=1)[:2]
        total += val
        err += e
    gate = max(10.0 * _QUAD_EPSREL * abs(total), 1e-6 * abs(total), 1e-13)
    if err > gate:
        raise ConvergenceError(f"quadrature error estimate too large: {err:g} on {total:g}")
    return total


def _aber_h(mod: ModulationScheme):
    """delta1 sum_j Q(sqrt(2 delta2_j gamma)) as a function of log gamma (float or ndarray)."""
    def h(log_g):
        return mod.delta1 * sum(0.5 * erfc(np.sqrt(d2 * np.exp(log_g))) for d2 in mod.delta2)
    return h


def _capacity_h(log_g):
    """log2(1 + gamma) as a function of log gamma (float or ndarray)."""
    return np.logaddexp(0.0, log_g) / math.log(2.0)


def aber_quadrature(params: ChannelParams, mod: ModulationScheme) -> AberResult:
    """ABER by direct adaptive quadrature of the Q-function expectation."""
    return _make_aber(_snr_integral(params, _aber_h(mod)), 0, "oracle", mod)


def capacity_quadrature(params: ChannelParams) -> float:
    """Ergodic capacity (bits per channel use) by direct quadrature."""
    return _snr_integral(params, _capacity_h)


def cdf_quadrature(params: ChannelParams, gamma: float) -> float:
    """SNR cdf by direct quadrature of the density up to gamma."""
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    if gamma == 0.0:
        return 0.0
    t_hi = (0.5 * params.alpha * math.log(gamma / params.gamma_bar)
            - math.log(derived_constants(params).c_alpha))
    return _snr_integral(params, lambda log_g: 1.0, t_hi)


def _mixture_expectation(params: ChannelParams, h):
    """(E[h(gamma)], trapezoid nodes summed) over the negative-binomial gamma mixture.

    gamma = gamma_bar (C u)^(2/alpha) with u ~ sum_k w_k Gamma(m_x + k, 1), so
    E[h] is the integral over t = log u of h(gamma) times the mixture
    t-density, which sums at each node the NB rows around that node's
    largest and leaves out less than e^-46 of its value
    (``channel._mixture_density``); no weight table is read, and no NB mass
    is cut at a tolerance. The integrand is analytic and decays at
    both ends, so the trapezoid rule in t converges exponentially (Trefethen
    and Weideman, SIAM Review 56(3), 2014). ``h`` maps an ndarray of log SNRs
    to an ndarray; it is evaluated on every call, only where the density has
    not underflowed.

    The density depends on the law alone, so it is read, node by node, from
    the law's ``DerivedConstants.density_lattice``: this call's level-0
    search and refinement levels, and every other expectation on the law,
    evaluate each node at most once for as long as the law stays in
    ``derived_constants``' cache. A call whose levels do not agree by the
    level cap drops the lattice's refinement levels before it raises, which
    bounds what a failing law keeps (see ``channel._DensityLattice``).

    Raises ConvergenceError when the integrand has not decayed by t = -1e4 or
    700; when the density is 0 at the first node past the integrand's right
    end (it underflowed, or lies past the density's Chernoff cut, so the sum
    would miss part of E[h]); when a node needs NB rows past 10^6; and when
    the levels do not agree by the level cap. The node count returned covers
    level 0's live span and every refinement level, so it depends on the law
    and h alone.
    """
    dc = derived_constants(params)
    lattice = dc.density_lattice
    two_over_alpha = 2.0 / params.alpha
    log_scale = math.log(params.gamma_bar) + two_over_alpha * math.log(dc.c_alpha)

    def integrand(level: int, a: int, b: int) -> np.ndarray:
        dens = lattice.density(level, a, b).copy()
        live = dens > 0.0
        t = lattice.nodes(level, np.arange(a, b))
        dens[live] *= h(log_scale + two_over_alpha * t[live])
        return dens

    # Level 0, step 1/2: nodes from 32 below the lattice's start to just past
    # it, with the left end doubled and the right end grown by two nodes
    # until both are below 1e-18 of the peak (h can move the peak far into the
    # upper tail, as log2(1 + gamma) does at small alpha), so a far node is
    # requested only while the integrand has not decayed; then the
    # negligible nodes at both ends are dropped.
    lo, hi = -channel._MIXTURE_BLOCK, 2
    while True:
        values = integrand(0, lo, hi)
        negligible = values < 1e-18 * values.max()
        if negligible[0] and negligible[-1]:
            break
        lo *= 1 if negligible[0] else 2
        hi += 0 if negligible[-1] else 2
        if not (-1e4 < lattice.nodes(0, lo) and lattice.nodes(0, hi) < 700.0):
            raise ConvergenceError("mixture integrand does not decay")
    live = np.flatnonzero(~negligible)
    first, last = live[0] - 1, live[-1] + 1
    if lattice.density(0, lo + last, lo + last + 1)[0] == 0.0:
        raise ConvergenceError("mixture density underflows where the integrand has not decayed")
    bottom, count = lo + first, last - first
    step = 0.5
    level_sum = values[first:last + 1].sum()
    value = step * level_sum
    # Level L adds the count 2^(L-1) midpoints between the nodes so far.
    for level in range(1, 13):
        scale = 2 ** (level - 1)
        level_sum += integrand(level, bottom * scale, (bottom + count) * scale).sum()
        step *= 0.5
        prev, value = value, step * level_sum
        if abs(value - prev) <= 1e-12 * abs(value):
            return float(value), int(count) * 2 ** level + 1
    lattice.drop_refinements()
    raise ConvergenceError("mixture trapezoid levels did not agree to 1e-12")


def _e_term(params: ChannelParams, q: int, scale: float, g_term):
    """k -> E_k = scale G_k q^(m_x+k-1/2) / Gamma(m_x+k), G_k = ``g_term(k)``."""
    return lambda k: scale * g_term(k) * q ** (params.m_x + k - 0.5) / math.gamma(params.m_x + k)


def _aber_e_term(params: ChannelParams, dc, d2: float):
    """E_k = E[Q(sqrt(2 d2 gamma)) | K = k] of the ABER component d2, from its G term k.

    E_k is the G term at (p/d2)^p / (q C gamma_bar^(alpha/2))^q times
    sqrt(pi) q^(m_x+k-1/2) / ((2 pi)^((p+q)/2) Gamma(m_x+k)), with alpha/2 =
    p/q; raises ValueError when no q <= _CLOSED_FORM_MAX_Q fits.
    """
    p, q = channel.rationalize_alpha(params.alpha, max_q=_CLOSED_FORM_MAX_Q)
    z = (p / d2) ** p / (q * dc.c_alpha * params.gamma_bar ** (params.alpha / 2.0)) ** q
    upper = tuple((0.5 + i) / p for i in range(p)) + (1.0,)

    def g_term(k: int) -> float:
        lower = tuple((params.m_x + k + i) / q for i in range(q)) + (0.0,)
        return specfun.meijer_g(MeijerGSpec(m=q, n=p + 1, a_params=upper, b_params=lower), z)
    return _e_term(params, q, math.sqrt(math.pi) / (2.0 * math.pi) ** ((p + q) / 2.0), g_term)


def aber_exact(params: ChannelParams, mod: ModulationScheme) -> AberResult:
    """Exact ABER: the mixture expectation of :func:`aber_mixture`, at every alpha.

    The paper's closed form, a k-series of Meijer G terms, is the same
    expectation summed over the same NB terms, one G term per term;
    the G terms are in :func:`aber_exact_truncation_profile`. The
    mixture sums it to 1e-12 at every alpha and beta_bar, where a k-series
    stopped at 1e-7 was off by up to 1.7e-7, in under a third of the time
    on the benchmark's domain laws.
    """
    return aber_mixture(params, mod)


def aber_exact_truncation_profile(params: ChannelParams, mod: ModulationScheme, k_max: int = 16):
    """ABER partial sums of the paper's Meijer-G k-series after 1..k_max terms.

    Supports the truncation-length measurements; entry i holds the ABER with
    k <= i terms kept in every component: delta1 times the terms NB_k E_k,
    with E_k from the G term k (:func:`_aber_e_term`). Raises ValueError
    when alpha/2 has no p/q with q <= 8.
    """
    dc = derived_constants(params)
    e_terms = [_aber_e_term(params, dc, d2) for d2 in mod.delta2]
    partial = _partial_sums(dc.nb_weights, k_max, lambda k: sum(e(k) for e in e_terms))
    return [mod.delta1 * acc for acc in partial]


def _partial_sums(weights: np.ndarray, k_max: int, e_term) -> list:
    """Partial sums of NB_k E_k over k < k_max, E_k = ``e_term(k)``; 0 past the table."""
    per_k = [w * e_term(k) for k, w in enumerate(weights[:k_max].tolist())]
    return list(itertools.accumulate(per_k + [0.0] * (k_max - len(per_k))))


def aber_mixture(params: ChannelParams, mod: ModulationScheme) -> AberResult:
    """ABER as the mixture expectation of delta1 sum_j Q(sqrt(2 delta2_j gamma)).

    Refined until two trapezoid levels agree to 1e-12 (path
    ``series-quadrature``); ``terms_used`` is the number of trapezoid nodes
    summed, over level 0 and every refinement level.
    :func:`aber_exact` returns this value.
    """
    value, terms = _mixture_expectation(params, _aber_h(mod))
    return _make_aber(value, terms, "series-quadrature", mod)


def aber_asymptotic(params: ChannelParams, mod: ModulationScheme) -> AberResult:
    """High-SNR ABER: the single-term power law G_c * gamma_bar^(-G_d)."""
    gd = diversity_order(params)
    return AberResult(value=coding_gain(params, mod) * params.gamma_bar ** (-gd),
                      terms_used=1, path="asymptotic")  # upper bound may exceed 1/2 at low SNR


def diversity_order(params: ChannelParams) -> float:
    """Log-log ABER slope at high SNR: (alpha/2) * m_x, shadowing-independent."""
    return 0.5 * params.alpha * params.m_x


def coding_gain(params: ChannelParams, mod: ModulationScheme) -> float:
    """G_c with aber_asymptotic = G_c * gamma_bar^(-G_d); depends on the modulation."""
    dc = derived_constants(params)
    gd = diversity_order(params)
    log_c = (math.log(mod.delta1)
             + params.m_y * math.log(dc.one_minus_beta_bar)
             + math.lgamma(gd + 0.5)
             - math.log(2.0) - 0.5 * math.log(math.pi)
             - params.m_x * math.log(dc.c_alpha)
             - math.lgamma(params.m_x + 1.0))
    return math.exp(log_c) * sum(d ** (-gd) for d in mod.delta2)


def capacity_exact(params: ChannelParams) -> CapacityResult:
    """Exact ergodic capacity: :func:`capacity_mixture`, at every alpha.

    As for :func:`aber_exact`, the paper's Meijer-G k-series is the same
    expectation; its G terms are in :func:`capacity_exact_truncation_profile`.
    """
    return capacity_mixture(params)


def capacity_exact_truncation_profile(params: ChannelParams, k_max: int = 16):
    """Capacity partial sums of the paper's Meijer-G k-series after 1..k_max terms.

    Entry i holds the sum of the terms NB_k E_k for k <= i, with E_k =
    E[log2(1 + gamma) | K = k] from the G term k, on the Mellin-Barnes
    contour that meijer_g takes, called directly to share one memo. The
    terms differ only in their Gamma(m_x + k - q s) factor, and their pole
    ladders start at 0 and -1/p for every k, so the memo lets every term keep
    the first term's line and reuse the other factors' values. Raises
    ValueError when alpha/2 has no p/q with q <= 8.
    """
    dc = derived_constants(params)
    p, q = channel.rationalize_alpha(params.alpha, max_q=_CLOSED_FORM_MAX_Q)
    z = (1.0 / (q * dc.c_alpha * params.gamma_bar ** (params.alpha / 2.0))) ** q
    ladder = tuple(i / p for i in range(p))
    memo = {}

    def g_term(k: int) -> float:
        lower = ladder + tuple((params.m_x + k + i) / q for i in range(q)) + (0.0,)
        spec = MeijerGSpec(m=q + p + 1, n=p, a_params=ladder + (1.0,), b_params=lower)
        return specfun._meijer_contour(spec, z, memo)

    scale = 1.0 / ((2.0 * math.pi) ** ((q - 3.0) / 2.0 + p) * math.log(2.0))
    return _partial_sums(dc.nb_weights, k_max, _e_term(params, q, scale, g_term))


def capacity_mixture(params: ChannelParams) -> CapacityResult:
    """Capacity as the mixture expectation of log2(1 + gamma); see :func:`aber_mixture`."""
    value, terms = _mixture_expectation(params, _capacity_h)
    return CapacityResult(value=value, terms_used=terms, path="series-quadrature")


def capacity_asymptotic(params: ChannelParams) -> float:
    """High-SNR ergodic capacity.

    (2 / (alpha ln 2)) [ln(C gamma_bar^(alpha/2)) + psi(m_x)
                        + (1-bb)^m_y d/da 2F1(m_x, m_y; m_x; bb)],
    where psi(m_x) + (1-bb)^m_y d/da 2F1 = sum_k w_k psi(m_x + k) = E[log U]
    over the NB weights.
    """
    dc = derived_constants(params)
    mean_log_u = float(dc.nb_weights @ digamma(params.m_x + np.arange(dc.nb_weights.size)))
    bracket = (math.log(dc.c_alpha) + 0.5 * params.alpha * math.log(params.gamma_bar)
               + mean_log_u)
    return 2.0 / (params.alpha * math.log(2.0)) * bracket
