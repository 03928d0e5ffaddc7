import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate
from scipy.special import digamma

from abxs import metrics as mt
from abxs import specfun as sf
from abxs.channel import (ChannelParams, DerivedConstants, derived_constants, snr_ccdf,
                          snr_cdf)
from oracles import dec_1f1, dec_2f1, dec_phi2_double
from paramsets import fig2_params, fig3_params, fig4_params


class TestIncompleteGamma:
    """The regularized incomplete gammas, from scipy, through the SNR cdf.

    Without LoS power at alpha = 2 the SNR law is Gamma(m_x, gamma_bar / m_x),
    so F(gamma) = P(m_x, m_x gamma / gamma_bar); gamma_bar = m_x makes u = gamma.
    """

    @staticmethod
    def law(a: float) -> ChannelParams:
        return ChannelParams(m_x=a, m_y=1.0, omega_x=1.0, omega_y=0.0, alpha=2.0,
                             gamma_bar=a)

    def test_exponential_cdf(self):
        pars = self.law(1.0)
        for x in (0.1, 1.0, 5.0, 30.0):
            assert snr_cdf(pars, x) == pytest.approx(1.0 - math.exp(-x), rel=1e-12)
            assert snr_ccdf(pars, x) == pytest.approx(math.exp(-x), rel=1e-12)

    def test_at_zero(self):
        assert snr_cdf(self.law(2.3), 0.0) == 0.0
        assert snr_ccdf(self.law(2.3), 0.0) == 1.0

    def test_quadrature_oracle(self):
        # frozen from adaptive quadrature of t^1.5 e^-t on [0, 3.7] / Gamma(2.5)
        frozen = 0.8074495669206048
        live, err = integrate.quad(lambda t: t ** 1.5 * math.exp(-t), 0.0, 3.7,
                                   epsabs=1e-15, epsrel=1e-13)
        live /= math.gamma(2.5)
        assert live == pytest.approx(frozen, rel=1e-12)
        assert snr_cdf(self.law(2.5), 3.7) == pytest.approx(frozen, rel=1e-12)
        assert snr_ccdf(self.law(2.5), 3.7) == pytest.approx(1.0 - frozen, rel=1e-11)

    def test_domain(self):
        with pytest.raises(ValueError):
            self.law(0.0)
        with pytest.raises(ValueError):
            snr_ccdf(self.law(1.0), -0.5)

    @given(st.floats(min_value=0.02, max_value=150.0),
           st.floats(min_value=0.0, max_value=400.0))
    def test_complement(self, a, x):
        p = snr_cdf(self.law(a), x)
        q = snr_ccdf(self.law(a), x)
        assert 0.0 <= p <= 1.0 and 0.0 <= q <= 1.0
        assert p + q == pytest.approx(1.0, abs=1e-12)


class TestKummer1F1:
    def test_trivial(self):
        assert sf.kummer_1f1(1.3, 2.7, 0.0) == 1.0
        for x in (0.5, 5.0, 50.0):
            assert sf.kummer_1f1(1.9, 1.9, x) == pytest.approx(math.exp(x), rel=1e-12)

    def test_series_oracle(self):
        # frozen from the 60-digit decimal series
        frozen = 6.743566499829673
        assert dec_1f1(1.5, 1.6, 2.0) == pytest.approx(frozen, rel=1e-14)
        assert sf.kummer_1f1(1.5, 1.6, 2.0) == pytest.approx(frozen, rel=1e-12)

    @given(st.floats(min_value=0.1, max_value=4.0),
           st.floats(min_value=0.2, max_value=4.0),
           st.floats(min_value=0.0, max_value=60.0))
    def test_against_decimal(self, a, b, x):
        assert sf.kummer_1f1(a, b, x) == pytest.approx(dec_1f1(a, b, x),
                                                       rel=1e-10, abs=1e-280)

    @given(st.floats(min_value=10.0, max_value=30.0))
    def test_kummer_transform_overlap(self, x):
        # direct series vs the Kummer-transformed e^x 1F1(b-a; b; -x), whose
        # terms alternate and cancel by ~e^x, evaluated in mpmath
        direct = sf.kummer_1f1(1.5, 1.6, x)
        with mpmath.workdps(30):
            transformed = float(mpmath.exp(x) * mpmath.hyp1f1(mpmath.mpf(1.6) - 1.5, 1.6, -x))
        assert transformed == pytest.approx(direct, rel=1e-9)

    def test_overflow_error(self):
        with pytest.raises(OverflowError):
            sf.kummer_1f1(1.2, 1.5, 750.0)

    def test_large_x_expansion(self):
        # Where the series overflows at large a, the expansion's terms grow
        # for about 20 steps before they shrink; summed to its 1e-16 break
        # its log matches mpmath. At (0.5, 5, 40) the terms shrink, then
        # grow again before reaching the break.
        for a, b, x in ((41.2887, 0.152354, 600.0), (50.0, 0.1, 530.0)):
            with mpmath.workdps(40):
                want = float(mpmath.log(mpmath.hyp1f1(a, b, x)) - x)
            got = sf._log_scaled_1f1_large_x(a, b, x)
            assert got == pytest.approx(want, rel=1e-15, abs=0.0)
        with pytest.raises(sf.ConvergenceError, match="diverges"):
            sf._log_scaled_1f1_large_x(0.5, 5.0, 40.0)

    def test_large_x_expansion_refuses_x_below_6b(self):
        # At (70, 300, 800) the expansion converges, but 0.86 off in the log.
        for a, b, x in ((70.0, 300.0, 800.0), (0.5, 30.0, 40.0)):
            with pytest.raises(sf.ConvergenceError, match="6b"):
                sf._log_scaled_1f1_large_x(a, b, x)
        sf._log_scaled_1f1_large_x(70.0, 100.0, 600.0)

    @pytest.mark.parametrize("a, b, x", [(70.0, 300.0, 660.0), (300.0, 200.0, 1000.0),
                                         (1.0, 300.0, 900.0), (400.0, 180.0, 1000.0)])
    def test_scaled_series(self, a, b, x):
        # Past where the plain series overflows or kummer_1f1 stops (x = 709).
        with mpmath.workdps(40):
            want = float(mpmath.log(mpmath.hyp1f1(a, b, x)) - x)
        got = sf._log_scaled_1f1_series(a, b, x)
        assert abs(got - want) <= 1e-15 * max(1.0, abs(want))

    def test_scaled_series_is_kummer_wherever_kummer_is_finite(self):
        # The last two scale their terms (past 2^512) but the sum fits a float.
        for a, b, x in ((2.5, 1.5, 120.0), (41.2887, 0.152354, 300.0), (0.3, 8.0, 300.0),
                        (2.0, 60.0, 500.0), (50.0, 0.1, 520.0)):
            assert sf._log_scaled_1f1_series(a, b, x) == math.log(sf.kummer_1f1(a, b, x)) - x

    def test_domain(self):
        with pytest.raises(ValueError):
            sf.kummer_1f1(1.0, -2.0, 1.0)

    def test_domain_edges(self):
        # The model's arguments, a >= 0, b > 0 and x >= 0, boundaries included.
        assert sf.kummer_1f1(0.0, 1.5, 3.0) == 1.0
        assert sf.kummer_1f1(1.3, 2.7, 0.0) == 1.0
        tiny = math.ulp(0.0)
        for a, b, x in ((-tiny, 1.5, 3.0), (1.3, 0.0, 3.0), (1.3, 2.7, -tiny),
                        (1.3, 2.7, math.nan)):
            with pytest.raises(ValueError):
                sf.kummer_1f1(a, b, x)


class TestGauss2F1:
    def test_trivial(self):
        assert sf.gauss_2f1(1.1, 2.2, 3.3, 0.0) == 1.0
        assert sf.gauss_2f1(1.7, 2.5, 1.7, 0.3) == pytest.approx(0.7 ** -2.5, rel=1e-12)
        # 2F1(1, 1; 2; z) = -log(1 - z) / z
        assert sf.gauss_2f1(1.0, 1.0, 2.0, 0.5) == pytest.approx(2.0 * math.log(2.0), rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            sf.gauss_2f1(1.0, 1.0, 2.0, 1.0)
        with pytest.raises(ValueError):
            sf.gauss_2f1(1.0, 1.0, -1.0, 0.5)

    def test_domain_edges(self):
        # The normaliser's argument z = beta_bar lies in [0, 1).
        assert sf.gauss_2f1(1.1, 2.2, 3.3, 0.0) == 1.0
        assert math.isfinite(sf.gauss_2f1(0.5, -0.8, 1.5, 1.0 - 2.0 ** -53))
        for c, z in ((1.5, -math.ulp(0.0)), (1.5, 1.0), (1.5, math.nan), (0.0, 0.5)):
            with pytest.raises(ValueError):
                sf.gauss_2f1(1.0, 1.0, c, z)

    @given(st.floats(min_value=0.1, max_value=3.0),
           st.floats(min_value=-3.0, max_value=3.0),
           st.floats(min_value=0.3, max_value=4.0),
           st.floats(min_value=0.0, max_value=0.95))
    def test_against_decimal(self, a, b, c, z):
        assert sf.gauss_2f1(a, b, c, z) == pytest.approx(dec_2f1(a, b, c, z),
                                                         rel=1e-9, abs=1e-280)

    # The normaliser's 2F1(m_x - m_y, -2/alpha; m_x; bb) as bb -> 1. In the
    # first four, c - a - b = m_y + 2/alpha is an integer (2, 2, 4, 2), the
    # case the connection formula at 1 must take as a limit.
    @pytest.mark.parametrize("m_x, m_y, alpha", [(1.0, 1.0, 2.0), (1.5, 1.2, 2.5),
                                                 (3.0, 2.0, 1.0), (0.5, 1.5, 4.0),
                                                 (1.5, 1.2, 2.2), (2.5, 0.3, 0.5)])
    @pytest.mark.parametrize("one_minus_bb", [1e-2, 1e-4, 1e-6, 1e-8])
    def test_normaliser_near_one_against_mpmath(self, m_x, m_y, alpha, one_minus_bb):
        a, b, c, z = m_x - m_y, -2.0 / alpha, m_x, 1.0 - one_minus_bb
        with mpmath.workdps(30):
            want = float(mpmath.hyp2f1(a, b, c, z))
        assert sf.gauss_2f1(a, b, c, z) == pytest.approx(want, rel=1e-13, abs=0.0)


def _d_da_2f1(a: float, b: float, c: float, z: float, h: float = 1e-5) -> float:
    """d/da 2F1(a, b; c; z) by a central difference of gauss_2f1."""
    return (sf.gauss_2f1(a + h, b, c, z) - sf.gauss_2f1(a - h, b, c, z)) / (2.0 * h)


class TestGauss2F1Derivative:
    """The a-derivative of 2F1 in the high-SNR capacity.

    At a = c, 2F1(a, b; a; z) = (1 - z)^-b, and its a-derivative sums the
    digamma increments over the NB(b, z) weights:
    psi(a) + (1 - z)^b d/da 2F1(a, b; a; z) = sum_k w_k psi(a + k).
    """

    @given(st.floats(min_value=0.2, max_value=3.0),
           st.floats(min_value=0.2, max_value=3.0),
           st.floats(min_value=0.0, max_value=0.7))
    def test_finite_difference(self, a, b, z):
        dc = DerivedConstants(c_alpha=1.0, beta_bar=z, one_minus_beta_bar=1.0 - z,
                              p=None, q=None, m_y=b, m_x=a)
        mean_log = float(dc.nb_weights @ digamma(a + np.arange(dc.nb_weights.size)))
        want = float(digamma(a)) + (1.0 - z) ** b * _d_da_2f1(a, b, a, z)
        assert mean_log == pytest.approx(want, rel=1e-6, abs=1e-9)

    def test_equal_first_and_third_parameter(self):
        # capacity_asymptotic against its closed form, whose derivative is
        # taken at a = c = m_x
        pars = ChannelParams(m_x=1.6, m_y=1.5, omega_x=1.0, omega_y=0.8, alpha=2.5,
                             gamma_bar=1e4)
        dc = derived_constants(pars)
        bb = dc.beta_bar
        bracket = (math.log(dc.c_alpha) + 0.5 * pars.alpha * math.log(pars.gamma_bar)
                   + float(digamma(pars.m_x))
                   + (1.0 - bb) ** pars.m_y * _d_da_2f1(pars.m_x, pars.m_y, pars.m_x, bb))
        want = 2.0 / (pars.alpha * math.log(2.0)) * bracket
        assert 0.3 < bb < 0.7
        assert mt.capacity_asymptotic(pars) == pytest.approx(want, rel=1e-10)


class TestAppellPhi2:
    def test_trivial(self):
        assert sf.appell_phi2(1.3, 0.7, 2.1, 0.0, 0.0) == 1.0

    def test_confluence_identity(self):
        # equal arguments collapse to a single 1F1
        got = sf.appell_phi2(1.0, 1.5, 2.6, 0.8, 0.8)
        assert got == pytest.approx(sf.kummer_1f1(2.5, 2.6, 0.8), rel=1e-12)

    def test_double_series_oracle(self):
        frozen = 2.319920204723305
        assert dec_phi2_double(1.0, 1.5, 1.6, 0.8, 0.4) == pytest.approx(frozen, rel=1e-14)
        assert sf.appell_phi2(1.0, 1.5, 1.6, 0.8, 0.4) == pytest.approx(frozen, rel=1e-11)

    @pytest.mark.parametrize("x", [1.0, 8.0, 20.0])
    @pytest.mark.parametrize("y", [0.5, 20.0])
    def test_expansion_matches_double_series(self, x, y):
        # the 1F1 expansion against the normative double series
        got = sf.appell_phi2(1.0, 1.5, 1.6, x, y)
        want = dec_phi2_double(1.0, 1.5, 1.6, x, y)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-300)

    def test_domain(self):
        with pytest.raises(ValueError):
            sf.appell_phi2(1.0, 1.0, -0.5, 0.1, 0.1)
        with pytest.raises(ValueError):
            sf.appell_phi2(1.0, 1.0, 1.0, math.inf, 0.0)

    def test_domain_edges(self):
        # The cdf route's arguments, x = u and y = beta_bar u, are finite and >= 0;
        # Phi2(b1, b2; c; 0, y) = 1F1(b2; c; y).
        assert sf.appell_phi2(1.0, 1.5, 1.6, 0.8, 0.0) == sf.kummer_1f1(1.0, 1.6, 0.8)
        assert sf.appell_phi2(1.0, 1.5, 1.6, 0.0, 0.4) == pytest.approx(
            sf.kummer_1f1(1.5, 1.6, 0.4), rel=1e-14)
        tiny = math.ulp(0.0)
        for x, y in ((-tiny, 0.4), (0.8, -tiny), (0.8, math.inf), (math.nan, 0.4)):
            with pytest.raises(ValueError):
                sf.appell_phi2(1.0, 1.5, 1.6, x, y)


class TestMeijerG:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            sf.MeijerGSpec(m=2, n=0, a_params=(), b_params=(0.0,))
        with pytest.raises(ValueError):
            sf.MeijerGSpec(m=1, n=1, a_params=(), b_params=(0.0,))
        with pytest.raises(ValueError):
            sf.MeijerGSpec(m=1, n=0, a_params=(), b_params=(math.nan,))

    @pytest.mark.parametrize("z", [0.1, 1.0, 10.0])
    def test_exp_reduction(self, z):
        spec = sf.MeijerGSpec(m=1, n=0, a_params=(), b_params=(0.0,))
        assert sf.meijer_g(spec, z) == pytest.approx(math.exp(-z), rel=1e-10)

    @pytest.mark.parametrize("z", [0.1, 1.0, 10.0])
    def test_rational_reduction(self, z):
        spec = sf.MeijerGSpec(m=1, n=1, a_params=(0.0,), b_params=(0.0,))
        assert sf.meijer_g(spec, z) == pytest.approx(1.0 / (1.0 + z), rel=1e-10)

    @pytest.mark.parametrize("z", [0.1, 1.0, 10.0])
    def test_upper_gamma_reduction(self, z):
        from scipy.special import gammaincc
        a = 2.5
        spec = sf.MeijerGSpec(m=2, n=0, a_params=(1.0,), b_params=(0.0, a))
        want = float(gammaincc(a, z)) * math.gamma(a)
        assert sf.meijer_g(spec, z) == pytest.approx(want, rel=1e-10)

    def test_pole_collision_warns_and_is_correct(self):
        # integer second parameter collides with 0; Gamma(2, z) = (1+z) e^-z
        spec = sf.MeijerGSpec(m=2, n=0, a_params=(1.0,), b_params=(0.0, 2.0))
        with pytest.warns(sf.PrecisionWarning):
            got = sf.meijer_g(spec, 1.3)
        assert got == pytest.approx(2.3 * math.exp(-1.3), rel=1e-10)

    def test_gauss_runs(self):
        # interleaved runs, a duplicate, and a run built from rounded floats
        runs = sf._gauss_runs([0.0, 1 / 3, 2 / 3, 0.25, 0.75, 0.0])
        assert sorted(runs) == [(0.0, 1), (0.0, 3), (0.25, 2)]
        runs = sf._gauss_runs([1.0 - (0.5 + i) / 15 for i in range(15)] + [0.0])
        assert [size for _, size in runs] == [15, 1]
        assert sf._gauss_runs([0.3, 0.9]) == [(0.3, 1), (0.9, 1)]

    def test_domain(self):
        spec = sf.MeijerGSpec(m=1, n=0, a_params=(), b_params=(0.0,))
        with pytest.raises(ValueError):
            sf.meijer_g(spec, -1.0)
        with pytest.raises(ValueError):
            sf.meijer_g(spec, 0.0)


QAM16 = mt.modulation_coeffs("mqam", 16)


def _aber_term_spec(params, d2, k):
    """The G term k of the exact ABER's Q-component d2 (as metrics builds it)."""
    dc = derived_constants(params)
    p, q = dc.p, dc.q
    z = (p / d2) ** p / (q * dc.c_alpha * params.gamma_bar ** (params.alpha / 2.0)) ** q
    upper = tuple((0.5 + i) / p for i in range(p)) + (1.0,)
    lower = tuple((params.m_x + k + i) / q for i in range(q)) + (0.0,)
    return sf.MeijerGSpec(m=q, n=p + 1, a_params=upper, b_params=lower), z


def _capacity_term_spec(params, k):
    """The G term k of the exact capacity (as metrics builds it)."""
    dc = derived_constants(params)
    p, q = dc.p, dc.q
    z = (1.0 / (q * dc.c_alpha * params.gamma_bar ** (params.alpha / 2.0))) ** q
    upper = tuple(i / p for i in range(p)) + (1.0,)
    lower = (tuple(i / p for i in range(p))
             + tuple((params.m_x + k + i) / q for i in range(q)) + (0.0,))
    return sf.MeijerGSpec(m=q + p + 1, n=p, a_params=upper, b_params=lower), z


# mpmath's first series with a larger term budget, which the fig-2 alpha-3
# terms with more upper than lower parameters need.
_MP_FIRST_SERIES = dict(series=1, maxterms=10 ** 6)


def _loggamma_points(monkeypatch) -> list:
    """The sizes of the arrays passed to specfun's loggamma from now on."""
    points = []
    real = sf.loggamma
    monkeypatch.setattr(sf, "loggamma", lambda x: points.append(x.size) or real(x))
    return points


def _mpmath_meijer_g(spec, z, **kwargs):
    a, b = spec.a_params, spec.b_params
    with mpmath.workdps(30):
        return float(mpmath.meijerg([a[:spec.n], a[spec.n:]], [b[:spec.m], b[spec.m:]], z,
                                    **kwargs))


class TestMeijerGDifferential:
    """meijer_g against mpmath at 30 digits, on every evaluation route."""

    CASES = {
        "plain-slater": lambda: _aber_term_spec(fig3_params(0.5, 0.5, 1.25), QAM16.delta2[0], 0),
        # a residue series cancels beyond the plain-double budget
        "contour-after-cancellation": lambda: _aber_term_spec(fig3_params(0.5, 0.5, 3.0),
                                                              QAM16.delta2[0], 0),
        "contour-after-cancellation-fig2-alpha3": lambda: _aber_term_spec(
            fig2_params(3.0, 10.0), QAM16.delta2[1], 2),
        "contour-after-cancellation-fig3-corner": lambda: _aber_term_spec(
            fig3_params(2.5, 0.5, 2.0), QAM16.delta2[0], 8),
        # the cross-term gate rejects this residue sum
        "contour-after-rejection": lambda: _aber_term_spec(fig3_params(0.5, 0.5, 3.75),
                                                           QAM16.delta2[0], 0),
        "contour-pole-collision": lambda: _capacity_term_spec(fig4_params(0.5, 0.5, 1.0, 20.0),
                                                              0),
        "contour-pole-collision-alpha3": lambda: _capacity_term_spec(
            fig4_params(0.5, 0.5, 3.0, 20.0), 2),
    }

    @staticmethod
    def _route(monkeypatch, spec, z):
        """(value, route) with the route read off spies on the kernel's stages."""
        seen = []
        for name in ("_meijer_slater", "_meijer_contour"):
            def spy(*args, _real=getattr(sf, name), _name=name):
                try:
                    return _real(*args)
                finally:
                    seen.append(_name)
            monkeypatch.setattr(sf, name, spy)

        def series_spy(*args, _real=sf._hyp_series, **kwargs):
            value, max_term = _real(*args, **kwargs)
            if max_term > sf._PLAIN_CANCEL * max(abs(value), 1e-300):
                seen.append("cancelled")
            return value, max_term

        monkeypatch.setattr(sf, "_hyp_series", series_spy)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", sf.PrecisionWarning)
            value = sf.meijer_g(spec, z)
        if "_meijer_contour" not in seen:
            return value, "plain-slater"
        if "_meijer_slater" not in seen:
            return value, "contour-pole-collision"
        return value, ("contour-after-cancellation" if "cancelled" in seen
                       else "contour-after-rejection")

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_mpmath(self, monkeypatch, case):
        spec, z = self.CASES[case]()
        value, route = self._route(monkeypatch, spec, z)
        assert case.startswith(route)
        assert value == pytest.approx(_mpmath_meijer_g(spec, z), rel=1e-12)

    # G terms of the exact ABER that the contour evaluates, where a line at
    # the midpoint between the pole ladders was off by 2.8e-5, 1.9e5, 6.5e4,
    # 1.1e9 and 1.5e3 relative: fig-2 QAM-16 at alpha 3 and 35 dB, and the
    # benchmark's domain laws 55 and 54 (alpha 4 at 60 and 50 dB). These
    # specs have more upper than lower parameters, and mpmath needs its
    # first series with a larger term budget for them.
    @pytest.mark.parametrize("params, k", [
        (fig2_params(3.0, 35.0), 5),
        (fig2_params(3.0, 35.0), 11),
        (ChannelParams(2.5, 0.5, 10 ** -0.3, 10 ** 0.3, 4.0, 1e6), 2),
        (ChannelParams(2.5, 0.5, 10 ** -0.3, 10 ** 0.3, 4.0, 1e6), 3),
        (ChannelParams(1.2, 1.2, 10 ** -0.3, 10 ** 0.3, 4.0, 1e5), 4),
    ])
    def test_contour_on_the_saddle_line(self, monkeypatch, params, k):
        spec, z = _aber_term_spec(params, QAM16.delta2[1], k)
        value, route = self._route(monkeypatch, spec, z)
        assert route.startswith("contour")
        want = _mpmath_meijer_g(spec, z, **_MP_FIRST_SERIES)
        assert value == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_contour_at_a_denominator_gamma_pole(self):
        # A memo's line at sigma = -1/2 puts 1/Gamma(1 - b_3 + s) on a pole
        # at t = 0, where the integrand vanishes; the saddle line never
        # sits on a pole.
        spec = sf.MeijerGSpec(m=2, n=0, a_params=(), b_params=(0.0, 0.25, 1.5))
        want = _mpmath_meijer_g(spec, 2.0)
        assert sf._meijer_contour(spec, 2.0, {"sigma": -0.5}) == pytest.approx(want, rel=1e-10)
        assert sf._meijer_contour(spec, 2.0) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("case", sorted(set(CASES) - {"plain-slater"}))
    def test_cut_leaves_no_digit(self, monkeypatch, case):
        # The level-0 walk cuts the sum after the last node above e^-46 of
        # the peak; cutting at e^-92 instead about doubles the nodes and
        # must not move the value beyond 1e-15 relative.
        spec, z = self.CASES[case]()
        value, _ = self._route(monkeypatch, spec, z)
        monkeypatch.setattr(sf, "_CONTOUR_CUT", 2.0 * sf._CONTOUR_CUT)
        wide, _ = self._route(monkeypatch, spec, z)
        assert wide == pytest.approx(value, rel=1e-15, abs=0.0)

    # G terms where the trapezoid levels stop refining on the extrapolated
    # next difference, a level before two levels agree to 1e-12: fig-2
    # QAM-16 at alpha 3 and 35 dB (Q component, k) and the first terms of
    # fig-4 capacity series.
    @pytest.mark.parametrize("spec_z, mp_kwargs", [
        (lambda: _aber_term_spec(fig2_params(3.0, 35.0), QAM16.delta2[0], 0), _MP_FIRST_SERIES),
        (lambda: _aber_term_spec(fig2_params(3.0, 35.0), QAM16.delta2[0], 4), _MP_FIRST_SERIES),
        (lambda: _aber_term_spec(fig2_params(3.0, 35.0), QAM16.delta2[1], 1), _MP_FIRST_SERIES),
        (lambda: _aber_term_spec(fig2_params(3.0, 35.0), QAM16.delta2[1], 3), _MP_FIRST_SERIES),
        (lambda: _capacity_term_spec(fig4_params(0.5, 0.5, 3.0, 20.0), 0), {}),
        (lambda: _capacity_term_spec(fig4_params(2.5, 2.5, 3.0, 20.0), 0), {}),
    ])
    def test_level_extrapolation_stops_early(self, monkeypatch, spec_z, mp_kwargs):
        spec, z = spec_z()
        points = _loggamma_points(monkeypatch)
        value, route = self._route(monkeypatch, spec, z)
        assert route.startswith("contour")
        assert value == pytest.approx(_mpmath_meijer_g(spec, z, **mp_kwargs), rel=1e-12, abs=0.0)
        early = sum(points)
        points.clear()
        monkeypatch.setattr(sf, "_NEXT_LEVEL_TOL", 0.0)
        self._route(monkeypatch, spec, z)
        assert early < sum(points)

    @pytest.mark.parametrize("d2", QAM16.delta2)
    def test_levels_stop_within_1e13_of_the_finest(self, monkeypatch, d2):
        # Terms 0-19 of the fig-2 QAM-16 series at alpha 3 and 35 dB: the value
        # where refinement stops is within 1e-13 of all nine levels' value.
        # A stop at a level difference of 1e-6 misses by up to 6e-13 here.
        specs = [_aber_term_spec(fig2_params(3.0, 35.0), d2, k) for k in range(20)]
        values = [self._route(monkeypatch, spec, z)[0] for spec, z in specs]
        monkeypatch.setattr(sf, "_LEVEL_TOL", 0.0)
        monkeypatch.setattr(sf, "_NEXT_LEVEL_TOL", 0.0)
        finest = [self._route(monkeypatch, spec, z)[0] for spec, z in specs]
        assert values == pytest.approx(finest, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("alpha", [1.0, 2.5, 3.0])
    def test_shared_memo_changes_no_bit(self, monkeypatch, alpha):
        # capacity_exact_truncation_profile shares one memo over its k-series,
        # where only the (m_x + k) factor changes and the pole ladders stay
        # put, so every term keeps the first term's line. Each term must equal the contour
        # evaluated alone on that line to the last bit, from under half the
        # loggamma points, and match mpmath.
        points = []
        real = sf.loggamma
        monkeypatch.setattr(sf, "loggamma", lambda x: points.append(x.size) or real(x))
        specs = [_capacity_term_spec(fig4_params(0.5, 2.5, alpha, 20.0), k) for k in range(8)]
        memo = {}
        shared = [sf._meijer_contour(spec, z, memo) for spec, z in specs]
        shared_points = sum(points)
        points.clear()
        alone = [sf._meijer_contour(spec, z, {"sigma": memo["sigma"]}) for spec, z in specs]
        assert shared == alone
        assert shared_points < 0.5 * sum(points)
        for (spec, z), got in zip(specs, shared):
            assert got == pytest.approx(_mpmath_meijer_g(spec, z), rel=1e-12, abs=0.0)


class TestContourBudget:
    """The complex loggamma points the exact metrics spend on their contours."""

    # Points at commit 51916b6, counted with this spy, before the contour
    # found its cut on the level-0 nodes and stopped on the extrapolated
    # level difference: 79,576 and 32,632, for the 6 and 24 terms that the
    # exact ABER and capacity k-series then summed here, now the paper's
    # k-series in the truncation profiles.
    @pytest.mark.parametrize("call, parent_points, share", [
        (lambda: mt.aber_exact_truncation_profile(fig2_params(3.0, 35.0), QAM16, k_max=6),
         79_576, 0.7),
        (lambda: mt.capacity_exact_truncation_profile(fig4_params(0.5, 0.5, 3.0, 20.0), k_max=24),
         32_632, 0.4),
    ])
    def test_loggamma_points(self, monkeypatch, call, parent_points, share):
        points = _loggamma_points(monkeypatch)
        assert call()[-1] > 0.0
        assert 0 < sum(points) <= share * parent_points
