"""Reference values for the benchmark, computed with mpmath alone.

Nothing here imports abxs. The model is written as the negative-binomial
gamma mixture it is: with U = (gamma / gamma_bar)^(alpha/2) / C,

    f_U(u) = (1 - bb)^m_y u^(m_x - 1) e^-u 1F1(m_y; m_x; bb u) / Gamma(m_x),

where bb = m_x omega_y / (m_y omega_x + m_x omega_y), and C follows from
E[gamma] = gamma_bar through E[U^s] = (1 - bb)^m_y Gamma(m_x + s) / Gamma(m_x)
* 2F1(m_y, m_x + s; m_x; bb). Every metric is an expectation
E[h(gamma)] = int h(gamma_bar (C u)^(2/alpha)) f_U(u) du, taken by mpmath's
tanh-sinh quadrature in t = log u at raised precision. That shares no code
and no series with any abxs route (Meijer G, the cdf series, QUADPACK).
"""

from __future__ import annotations

import mpmath as mp

DPS = 40
GATE = mp.mpf("1e-9")


def _consts(law):
    m_x, m_y, om_x, om_y, alpha, _ = (mp.mpf(v) for v in law)
    bb = m_x * om_y / (m_y * om_x + m_x * om_y)
    s = 2 / alpha
    moment = ((1 - bb) ** m_y * mp.gamma(m_x + s) / mp.gamma(m_x)
              * mp.hyp2f1(m_y, m_x + s, m_x, bb))
    c = moment ** (-alpha / 2)
    return m_x, m_y, alpha, bb, c


def _log_density_u(m_x, m_y, bb, u):
    return (m_y * mp.log(1 - bb) + (m_x - 1) * mp.log(u) - u
            + mp.log(mp.hyp1f1(m_y, m_x, bb * u)) - mp.loggamma(m_x))


def _expectation(law, h, u_scale):
    """(E[h(gamma)], error estimate); u_scale is the u where h changes character."""
    gamma_bar = mp.mpf(law[5])
    m_x, m_y, alpha, bb, c = _consts(law)

    def integrand(t):
        u = mp.exp(t)
        g = gamma_bar * (c * u) ** (2 / alpha)
        return h(g) * mp.exp(_log_density_u(m_x, m_y, bb, u) + t)

    u_mean = m_x + m_y * bb / (1 - bb)
    t_h = float(mp.log(u_scale(gamma_bar, c, alpha)))
    t_mean = float(mp.log(u_mean))
    # h varies on the scale alpha/2 in t (it is a function of e^(2t/alpha)),
    # the density on a scale of 1; knots at both scales keep each piece smooth.
    knots = {t_h + float(alpha) / 2 * j for j in range(-6, 5)}
    knots |= {t_mean + j for j in (-4, -2, -1, 0, 1, 2)}
    # Past u_top the density is below e^-100 of its bulk; h grows at most
    # like a power of u there, so the cut is far below the tolerance.
    t_top = float(mp.log(u_mean + 120 / (1 - bb)))
    knots = sorted(k for k in knots if k < t_top)
    return mp.quad(integrand, [-mp.inf] + knots + [t_top], error=True, maxdegree=10)


def _checked(val, err):
    # The values are compared at 1e-5; demand four more digits than that.
    if not err <= GATE * abs(val):
        raise ArithmeticError(f"reference quadrature did not converge: {err} on {val}")
    return float(val)


def _q_half(x):
    # erfc(sqrt(x)) / 2; past x = 1e5 it is below e^-1e5 and mpmath's
    # series check overflows, so it is taken as 0.
    return mp.erfc(mp.sqrt(x)) / 2 if x < 1e5 else mp.mpf(0)


def aber(law, delta1, delta2):
    """Average bit error rate sum_j delta1 E[Q(sqrt(2 delta2_j gamma))]."""
    with mp.workdps(DPS):
        total = err = mp.mpf(0)
        for d in delta2:
            d = mp.mpf(d)
            v, e = _expectation(law, lambda g, d=d: _q_half(d * g),
                                lambda gb, c, a, d=d: (1 / (d * gb)) ** (a / 2) / c)
            total += v
            err += e
        return _checked(mp.mpf(delta1) * total, mp.mpf(delta1) * err)


def capacity(law):
    """Ergodic capacity E[log2(1 + gamma)] in bits per channel use."""
    with mp.workdps(DPS):
        return _checked(*_expectation(law, lambda g: mp.log1p(g) / mp.log(2),
                                      lambda gb, c, a: (1 / gb) ** (a / 2) / c))


def snr_pdf(law, gamma):
    """Instantaneous-SNR density f(gamma) = f_U(u) du/dgamma."""
    with mp.workdps(DPS):
        gamma = mp.mpf(gamma)
        m_x, m_y, alpha, bb, c = _consts(law)
        u = (gamma / mp.mpf(law[5])) ** (alpha / 2) / c
        return float(mp.exp(_log_density_u(m_x, m_y, bb, u))
                     * alpha / 2 * u / gamma)
