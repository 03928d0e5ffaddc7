"""Line-of-sight dominated laws, beta_bar -> 1, against mpmath.

The normaliser's 2F1 argument -bb/(1-bb) runs to -inf here. The pdf, the
quadrature oracles, the normaliser and the mixture expectations hold at every
beta_bar tested: the mixture density sums the NB rows around each node's peak
only where x = bb e^t is below max(200, 6 m_x), and past it takes the large-x
1F1 expansion. The routes that loop over the negative-binomial weight table
stop at its cap.
"""

import math
import time

import mpmath
import numpy as np
import pytest

from abxs import channel as ch
from abxs import metrics as mt
from abxs.channel import ChannelParams
from abxs.specfun import ConvergenceError
from oracles import MpSnrLaw

QAM16 = mt.modulation_coeffs("mqam", 16)

# 1 - bb = 2e-3, where the hand-summed normaliser series ran out of terms.
REPRODUCER = ChannelParams(1.0, 1.0, 1.0, 499.0, 2.2, 10.0)


def los_law(one_minus_bb, m_x=1.5, m_y=1.2, alpha=2.5, gamma_bar=100.0):
    """A law with 1 - bb = one_minus_bb at omega_x = 1.

    The defaults make m_y + 2/alpha = 2 an integer, where scipy's hyp2f1 at
    z = -bb/(1-bb) loses up to 2e-7.
    """
    omega_y = m_y * (1.0 - one_minus_bb) / (m_x * one_minus_bb)
    return ChannelParams(m_x, m_y, 1.0, omega_y, alpha, gamma_bar)


def _aber_h(g):
    return QAM16.delta1 * sum(mpmath.erfc(mpmath.sqrt(d2 * g)) / 2 for d2 in QAM16.delta2)


def _capacity_h(g):
    return mpmath.log1p(g) / mpmath.log(2)


@pytest.mark.parametrize("m_x, m_y, alpha", [(1.5, 1.2, 2.5), (1.0, 1.0, 2.0),
                                             (0.5, 2.5, 1.0), (2.5, 0.5, 3.7)])
@pytest.mark.parametrize("one_minus_bb", [1e-2, 1e-4, 1e-6, 1e-8])
def test_normaliser_against_mpmath(m_x, m_y, alpha, one_minus_bb):
    pars = los_law(one_minus_bb, m_x, m_y, alpha)
    want = MpSnrLaw(pars).c_alpha()
    assert ch.c_alpha(pars) == pytest.approx(want, rel=1e-13, abs=0.0)
    # the second raw moment is the total power at every beta_bar
    assert ch.envelope_moment(pars, 2.0) == pytest.approx(
        pars.omega_x + pars.omega_y, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("pars", [REPRODUCER, los_law(1e-4), los_law(1e-6)],
                         ids=["reproducer", "1e-4", "1e-6"])
def test_pdf_and_oracles_against_mpmath(pars):
    ref = MpSnrLaw(pars)
    gb = pars.gamma_bar
    for g in (0.1 * gb, gb, 3.0 * gb):
        assert ch.snr_pdf(pars, g) == pytest.approx(ref.pdf(g), rel=1e-12, abs=0.0)
    assert mt.cdf_quadrature(pars, gb) == pytest.approx(
        ref.expect(lambda g: 1, gamma_hi=gb), rel=1e-12, abs=0.0)
    assert mt.aber_quadrature(pars, QAM16).value == pytest.approx(
        ref.expect(_aber_h), rel=1e-12, abs=0.0)
    assert mt.capacity_quadrature(pars) == pytest.approx(ref.expect(_capacity_h),
                                                         rel=1e-12, abs=0.0)


@pytest.mark.parametrize("one_minus_bb", [1e-4, 1e-6])
def test_oracle_mean_is_gamma_bar(one_minus_bb):
    # E[gamma] = gamma_bar is what the normaliser C is for
    pars = los_law(one_minus_bb)
    assert mt._snr_integral(pars, np.exp) == pytest.approx(pars.gamma_bar,
                                                           rel=1e-12, abs=0.0)


@pytest.mark.parametrize("one_minus_bb", [1e-3, 5e-4, 3e-4])
def test_mixture_past_the_table_against_quadrature(one_minus_bb):
    # The NB mass centres near k = 1.2 / (1 - bb), 4,000 rows at 3e-4, where
    # the weight table would pass its cap; the mixture density needs no table.
    pars = los_law(one_minus_bb)
    assert mt.capacity_mixture(pars).value == pytest.approx(mt.capacity_quadrature(pars),
                                                            rel=1e-11, abs=0.0)
    assert mt.aber_mixture(pars, QAM16).value == pytest.approx(
        mt.aber_quadrature(pars, QAM16).value, rel=1e-11, abs=0.0)


@pytest.mark.parametrize("one_minus_bb", [1e-4, 1e-6, 1e-8])
def test_mixture_deep_in_los_against_mpmath(one_minus_bb):
    # The NB mass centres near k = 1.2 / (1 - bb), up to 1.2e8 rows: every node
    # there takes the large-x expansion. The comparison is with mpmath, as
    # QUADPACK's 1F1 shares that expansion past x = 650.
    pars = los_law(one_minus_bb)
    ch.derived_constants.cache_clear()
    start = time.perf_counter()
    aber = mt.aber_mixture(pars, QAM16).value
    capacity = mt.capacity_mixture(pars).value
    elapsed = time.perf_counter() - start
    ref = MpSnrLaw(pars)
    assert aber == pytest.approx(ref.expect(_aber_h), rel=1e-12, abs=0.0)
    assert capacity == pytest.approx(ref.expect(_capacity_h), rel=1e-12, abs=0.0)
    assert elapsed < 0.05


def test_weight_routes_stop_at_the_cap():
    # At 1 - bb = 1e-7 the table would pass 100,000 weights; the mixture
    # expectations read no table, and their nodes past x = 200 take the
    # large-x expansion instead of NB rows past 10^6.
    pars = los_law(1e-7)
    with pytest.raises(ConvergenceError, match="NB weight table"):
        ch.derived_constants(pars).nb_weights
    for route in (lambda: ch.snr_cdf(pars, pars.gamma_bar),
                  lambda: mt.capacity_asymptotic(pars)):
        with pytest.raises(ConvergenceError):
            route()
    want = MpSnrLaw(pars).expect(_aber_h)
    for route in (mt.aber_mixture, mt.aber_exact):
        assert route(pars, QAM16).value == pytest.approx(want, rel=1e-12, abs=0.0)
    # the pdf and the oracles need no weights
    assert ch.snr_pdf(pars, pars.gamma_bar) > 0.0
    assert 0.0 < mt.aber_quadrature(pars, QAM16).value < 0.5


def test_beta_bar_rounding_to_one_raises():
    # 1 - bb = 1e-17 leaves bb == 1.0; the normaliser's 2F1 argument with it
    pars = ChannelParams(1.0, 1.0, 1.0, 1e17, 2.0, 10.0)
    with pytest.raises(ConvergenceError, match="resolution"):
        ch.snr_pdf(pars, 10.0)


@pytest.mark.parametrize("pars", [los_law(1e-3), los_law(0.3, 0.5, 2.5, 0.8, 1e3)],
                         ids=["1e-3", "domain-corner"])
def test_capacity_asymptotic_against_mpmath(pars):
    # psi(m_x) + (1-bb)^m_y d/da 2F1(m_x, m_y; m_x; bb), the bracket's mean-log term
    ref = MpSnrLaw(pars)
    with mpmath.workdps(30):
        deriv = mpmath.diff(lambda a: mpmath.hyp2f1(a, ref.my, ref.mx, ref.bb), ref.mx)
        bracket = (mpmath.log(ref.c) + ref.a / 2 * mpmath.log(ref.gb) + mpmath.digamma(ref.mx)
                   + ref.omb ** ref.my * deriv)
        want = float(2 / (ref.a * mpmath.log(2)) * bracket)
    assert mt.capacity_asymptotic(pars) == pytest.approx(want, rel=1e-12, abs=0.0)
