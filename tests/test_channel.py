import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate, special as sp_special

from abxs import channel as ch
from abxs import metrics
from abxs import specfun
from abxs.channel import ChannelParams
from oracles import MpSnrLaw
from paramsets import (FIG1, FIG1_ALPHAS, FIG4_SETS, MONTECARLO_LAWS, SMALL_ALPHA_LAWS, db,
                       fig4_params, grid72, nakagami, rayleigh)


def fig1_params(alpha):
    return ChannelParams(alpha=alpha, **FIG1)


class TestValidate:
    def test_reference_scenario_ok(self):
        for a in FIG1_ALPHAS:
            ch.validate(fig1_params(a))

    @pytest.mark.parametrize("field,value", [
        ("m_x", 0.0), ("m_x", -2.0), ("m_y", 0.0), ("omega_x", 0.0),
        ("alpha", -1.0), ("alpha", 0.0), ("gamma_bar", 0.0), ("omega_y", -0.1),
        ("m_x", math.nan), ("gamma_bar", math.inf),
    ])
    def test_bad_field_rejected(self, field, value):
        fields = dict(m_x=1.0, m_y=1.0, omega_x=1.0, omega_y=0.5,
                      alpha=2.0, gamma_bar=1.0)
        fields[field] = value
        with pytest.raises(ValueError, match=field.split("_")[0]):
            ChannelParams(**fields)


class TestRationalizeAlpha:
    @pytest.mark.parametrize("alpha,pq", [(2.0, (1, 1)), (3.0, (3, 2)),
                                          (2.5, (5, 4)), (1.0, (1, 2)),
                                          (4.0, (2, 1)), (2.2, (11, 10))])
    def test_known(self, alpha, pq):
        assert ch.rationalize_alpha(alpha) == pq

    def test_irrational_raises(self):
        with pytest.raises(ValueError):
            ch.rationalize_alpha(2.0 * math.pi)

    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=32))
    def test_contract(self, pp, qq):
        alpha = 2.0 * pp / qq
        p, q = ch.rationalize_alpha(alpha)
        assert math.gcd(p, q) == 1
        assert abs(p / q - alpha / 2.0) <= 1e-9
        assert q <= qq  # minimal denominator


class TestDerivedConstants:
    def test_beta_bar_no_los(self):
        assert ch.beta_bar(rayleigh()) == 0.0

    def test_beta_bar_symmetric(self):
        pars = ChannelParams(m_x=1.3, m_y=1.3, omega_x=2.0, omega_y=2.0,
                             alpha=2.0, gamma_bar=1.0)
        assert ch.beta_bar(pars) == pytest.approx(0.5, rel=1e-14)

    def test_beta_bar_reference(self):
        pars = ChannelParams(m_x=1.6, m_y=1.5, omega_x=2.0, omega_y=2.0,
                             alpha=2.0, gamma_bar=1.0)
        assert ch.beta_bar(pars) == pytest.approx(1.6 / 3.1, rel=1e-14)

    def test_closed_form_route_stops_at_q_8(self):
        # alpha/2 = 11/10 rationalises, but past q = 8 the truncation profiles
        # of the paper's closed form raise; derived_constants serves every alpha.
        law = ChannelParams(1.2, 1.2, 1.0, 1.0, 2.2, 10.0)
        assert ch.derived_constants(law).c_alpha > 0.0
        with pytest.raises(ValueError):
            metrics.capacity_exact_truncation_profile(law, k_max=2)
        law = ChannelParams(1.2, 1.2, 1.0, 1.0, 2.5, 10.0)
        assert metrics.capacity_exact_truncation_profile(law, k_max=2)[-1] > 0.0

    def test_c_alpha_nakagami(self):
        # alpha=2, no LoS: the constant collapses to 1/m_x
        assert ch.c_alpha(nakagami(m=1.7)) == pytest.approx(1.0 / 1.7, rel=1e-13)

    def test_c_alpha_alpha2_closed_form(self):
        # at alpha=2 the hypergeometric factor terminates
        pars = ChannelParams(m_x=1.6, m_y=1.5, omega_x=2.0, omega_y=3.0,
                             alpha=2.0, gamma_bar=1.0)
        want = pars.omega_x / (pars.m_x * (pars.omega_x + pars.omega_y))
        assert ch.c_alpha(pars) == pytest.approx(want, rel=1e-13)

    def test_c_alpha_enforces_unit_mean(self):
        # normalization oracle: integral of gamma * pdf must equal gamma_bar
        pars = fig1_params(3.0)
        val, _ = integrate.quad(lambda g: g * ch.snr_pdf(pars, g), 0.0, math.inf,
                                epsabs=1e-12, epsrel=1e-11, limit=300)
        assert val == pytest.approx(pars.gamma_bar, rel=1e-8)

    def test_mho_alpha_moment_identity(self):
        # mean square of the normalized alpha-root envelope equals the
        # (4/alpha)-th raw moment over the total power to the 2/alpha
        for alpha in (1.0, 2.0, 2.5):
            pars = fig1_params(alpha)
            want = (ch.envelope_moment(pars, 4.0 / alpha)
                    / (pars.omega_x + pars.omega_y) ** (2.0 / alpha))
            assert ch.mho_alpha(pars) == pytest.approx(want, rel=1e-12)

    def test_cache_returns_same_object(self):
        pars = fig1_params(2.0)
        assert ch.derived_constants(pars) is ch.derived_constants(pars)


class TestNbWeights:
    """The NB table: its entries, the mass it leaves out and its cap."""

    @pytest.mark.parametrize("m_y", [0.1, 1.0, 50.0])
    @pytest.mark.parametrize("bb", [0.0, 5e-324, 0.5, 0.995])
    def test_entries_are_the_ratio_recurrence(self, m_y, bb):
        w = ch._nb_weights(m_y, bb, 1.0 - bb, 1e-14)
        want = [(1.0 - bb) ** m_y]
        for k in range(w.size - 1):
            want.append(want[-1] * ((m_y + k) * bb / (k + 1.0)))
        assert w.tolist() == want
        assert not w.flags.writeable

    @pytest.mark.parametrize("tail", [1e-14, 1e-40])
    @pytest.mark.parametrize("m_y", [0.1, 1.0, 50.0])
    @pytest.mark.parametrize("bb", [0.0, 5e-324, 0.5, 0.995])
    def test_left_out_mass_is_within_the_tail(self, m_y, bb, tail):
        # P(k >= n) = I_bb(n, m_y) for a table of n entries
        n = ch._nb_weights(m_y, bb, 1.0 - bb, tail).size
        with mpmath.workdps(40):
            left = mpmath.betainc(n, m_y, 0, bb, regularized=True)
        assert left <= tail

    def test_table_lengths_on_the_figure_laws(self):
        # the lengths the geometric-bound loop built, so these tables are its own
        lengths = [ch.derived_constants(fig4_params(m_x, m_y, a, 10.0)).nb_weights.size
                   for m_x, m_y, a in FIG4_SETS]
        assert lengths == [44, 44, 54, 54]
        assert ch.derived_constants(fig1_params(2.0)).nb_weights.size == 52
        assert [ch.derived_constants(ChannelParams(*law)).nb_weights.size
                for law in MONTECARLO_LAWS] == [48, 46, 20, 1]

    def test_raises_at_the_cap(self):
        # 1 - beta_bar = 1e-5 needs about 3.2 million weights.
        dc = ch.derived_constants(ChannelParams(1, 1, 1, 1e5, 2, 10))
        with pytest.raises(specfun.ConvergenceError, match="100000 entries"):
            dc.nb_weights

    def test_raises_past_the_cap_without_building(self):
        # about 3e13 entries at 1 - beta_bar = 1e-12: building them would run out of memory
        with pytest.raises(specfun.ConvergenceError, match="100000 entries"):
            ch._nb_weights(1.0, 1.0 - 1e-12, 1e-12, 1e-14)
        tracemalloc.start()
        try:
            with pytest.raises(specfun.ConvergenceError):
                ch._nb_weights(1.0, 1.0 - 1e-5, 1e-5, 1e-14)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000  # the 100,000 weights alone take 800 KB

    def test_no_tail_raises(self):
        # btdtria(0, ...) is inf: no length fits
        with pytest.raises(specfun.ConvergenceError, match="entries"):
            ch._nb_weights(1.0, 0.5, 0.5, 0.0)


# Small alpha with m_x well above m_y, where scipy's hyp2f1 can be far off on
# the normaliser's 2F1: (m_x, m_y, omega_x, omega_y, alpha).
NORMALISER_CORNER = [
    (21.12, 1.385, 1.0, 0.34, 0.0905),  # C off by 1.5e-4 on hyp2f1 alone
    (43.18, 8.12, 1.0, 1.39, 0.105),
    (45.53, 0.38, 1.0, 0.1, 0.195),
    (34.47, 2.55, 1.0, 49.84, 0.218),
    (16.89, 3.96, 1.0, 0.15, 0.074),
    (38.77, 8.73, 1.0, 381.76, 0.042),
    (49.71, 7.29, 1.0, 0.41, 0.27),
    (39.41, 0.26, 1.0, 0.39, 0.023),
]


class TestNormaliserCheck:
    @pytest.mark.parametrize("law", NORMALISER_CORNER)
    def test_right_or_raises(self, law):
        # a C that comes back is right; a raise can only be Euler's own check
        pars = ChannelParams(*law, 10.0)
        try:
            got = ch.c_alpha(pars)
        except specfun.ConvergenceError as err:
            assert "Euler's integral" in str(err)
        else:
            assert got == pytest.approx(MpSnrLaw(pars).c_alpha(), rel=1e-11, abs=0.0)

    @pytest.mark.parametrize("law", NORMALISER_CORNER)
    def test_corner_laws_return_mpmath_c(self, law):
        # where hyp2f1 misses Euler's integral (four of these laws), Euler's value is taken
        pars = ChannelParams(*law, 10.0)
        s = 2.0 / pars.alpha
        bb, one_minus_bb = ch.beta_bar(pars), ch._one_minus_beta_bar(pars)
        log_euler = ch._log_euler_2f1(pars.m_x, pars.m_y, one_minus_bb, s)
        log_hyp = math.log(specfun.gauss_2f1(pars.m_x - pars.m_y, -s, pars.m_x, bb))
        taken = (ch._log_los_2f1(pars.m_x, pars.m_y, bb, one_minus_bb, s)
                 + s * math.log(one_minus_bb))
        if abs(log_hyp - log_euler) <= ch._LOS_CHECK_TOL * max(s, 1.0):
            assert taken == log_hyp
        else:
            assert taken == log_euler
        assert ch.c_alpha(pars) == pytest.approx(MpSnrLaw(pars).c_alpha(), rel=1e-12, abs=0.0)

    def test_reproducer_pdf_against_mpmath(self):
        # hyp2f1 alone put C off by 1.5e-4 here
        pars = ChannelParams(*NORMALISER_CORNER[0], 10.0)
        oracle = MpSnrLaw(pars)
        for gamma in (1.0, 10.0, 30.0):
            assert ch.snr_pdf(pars, gamma) == pytest.approx(oracle.pdf(gamma), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("law", NORMALISER_CORNER[4:])
    def test_corner_laws_where_hyp2f1_holds_return(self, law):
        pars = ChannelParams(*law, 10.0)
        assert ch.c_alpha(pars) == pytest.approx(MpSnrLaw(pars).c_alpha(), rel=1e-12, abs=0.0)

    # m_x - m_y down to 1e-6 (the t^(m_x-m_y-1) end), m_y down to 0.1 (the
    # (1-t)^(m_y-1) end) and s = 2/alpha up to 200
    @pytest.mark.parametrize("m_x, m_y, alpha", [(2.5, 0.5, 3.7), (30.0, 2.0, 0.5),
                                                 (0.7, 0.2, 8.0), (5.0, 4.9, 1.0),
                                                 (36.51, 10.64, 0.01022),
                                                 (0.21, 0.2, 1.0), (1.001, 1.0, 2.0),
                                                 (1.0 + 1e-6, 1.0, 0.5), (50.0, 49.99, 0.01),
                                                 (0.11, 0.1, 3.0), (0.11, 0.1, 0.01),
                                                 (5.0, 0.1, 0.01)])
    @pytest.mark.parametrize("one_minus_bb", [0.5, 1e-3, 1e-8])
    def test_euler_integral_against_mpmath(self, m_x, m_y, alpha, one_minus_bb):
        s = 2.0 / alpha
        with mpmath.workdps(30):
            want = mpmath.log(mpmath.hyp2f1(m_x - m_y, -s, m_x, 1 - mpmath.mpf(one_minus_bb)))
        assert ch._log_euler_2f1(m_x, m_y, one_minus_bb, s) == pytest.approx(
            float(want), rel=0.0, abs=1e-12 * max(s, 1.0))

    @pytest.mark.parametrize("m_x, m_y, one_minus_bb, s", [
        # 1 - bb far below a double's resolution of bb: the near-singularity at
        # t -> 1 is narrower than the finest step resolves
        (1.0, 1e-3, 1e-300, 1e-3),
        # m_x - m_y of 1.7e-18: the window would pass the node table
        (0.01, math.nextafter(0.01, 0.0), 0.5, 2.0),
    ])
    def test_euler_integral_raises_where_the_rule_cannot_hold(self, m_x, m_y, one_minus_bb, s):
        with pytest.raises(specfun.ConvergenceError, match="Euler's integral"):
            ch._log_euler_2f1(m_x, m_y, one_minus_bb, s)


class TestEnvelopeMoment:
    def test_second_moment_is_total_power(self):
        pars = fig1_params(2.0)
        assert ch.envelope_moment(pars, 2.0) == pytest.approx(
            pars.omega_x + pars.omega_y, rel=1e-12)

    def test_nakagami_second_moment(self):
        assert ch.envelope_moment(nakagami(), 2.0) == pytest.approx(1.0, rel=1e-12)

    def test_fourth_moment_vs_monte_carlo(self):
        from abxs import montecarlo as mc
        pars = fig1_params(2.0)
        w = mc.sample_bxs_power(pars, mc.stream_generator(91, 0), size=10 ** 6)
        w2 = w * w
        est = w2.mean()
        se = w2.std(ddof=1) / math.sqrt(w2.size)
        assert abs(est - ch.envelope_moment(pars, 4.0)) < 3.0 * se


class TestSnrPdf:
    def test_origin_zero_when_light_fading(self):
        assert ch.snr_pdf(fig1_params(2.0), 0.0) == 0.0  # alpha m_x = 3.2 > 2

    def test_origin_finite_on_boundary(self):
        pars = ChannelParams(m_x=1.0, m_y=1.5, omega_x=1.0, omega_y=1.0,
                             alpha=2.0, gamma_bar=2.0)
        got = ch.snr_pdf(pars, 0.0)
        assert math.isfinite(got) and got > 0.0

    def test_origin_pole_reported_as_inf(self):
        pars = ChannelParams(m_x=0.5, m_y=1.5, omega_x=1.0, omega_y=1.0,
                             alpha=2.0, gamma_bar=2.0)
        assert ch.snr_pdf(pars, 0.0) == math.inf

    def test_rayleigh_reduction(self):
        pars = rayleigh(gamma_bar=4.0)
        for g in (0.1, 1.0, 4.0, 20.0):
            want = math.exp(-g / 4.0) / 4.0
            assert ch.snr_pdf(pars, g) == pytest.approx(want, rel=1e-12)

    def test_normalization_spot(self):
        pars = fig1_params(1.0)
        val, _ = integrate.quad(lambda g: ch.snr_pdf(pars, g), 0.0, math.inf,
                                epsabs=1e-12, epsrel=1e-11, limit=300)
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_far_tail_underflows_to_zero(self):
        pars = fig1_params(4.0)
        assert ch.snr_pdf(pars, 1e9) == 0.0

    def test_origin_on_the_boundary_in_logs(self):
        # alpha m_x = 2: Gamma(200) and C^200 pass the double range, the value does not
        pars = ChannelParams(200, 1, 1, 0, 0.01, 1)
        ref = MpSnrLaw(pars)
        with mpmath.workdps(30):
            want = float(ref.a / 2 * ref.omb ** ref.my / (ref.c ** ref.mx * mpmath.gamma(ref.mx)
                                                         * ref.gb))
        assert want == pytest.approx(5.1476e118, rel=1e-4)
        for pdf in (ch.snr_pdf, ch.snr_pdf_asymptotic):
            assert pdf(pars, 0.0) == pytest.approx(want, rel=1e-12, abs=0.0)
            # 7.6e1107 by 30-digit mpmath: past the largest double
            assert pdf(ChannelParams(400, 2, 1, 3, 0.005, 10), 0.0) == math.inf

    @pytest.mark.parametrize("law, gamma", [((5, 1, 1, 1, 1, 10), 1e-150),
                                            ((2, 1, 1, 1, 2, 10), 1e-200)])
    def test_small_gamma_in_logs(self, law, gamma):
        # The t-density alone underflows here (every row near e^-869 at the
        # first law) while the pdf, times alpha / (2 gamma), is a normal double.
        pars = ChannelParams(*law)
        want = MpSnrLaw(pars).pdf(gamma)
        assert 1e-300 < want < 1e-200
        assert ch.snr_pdf(pars, gamma) == pytest.approx(want, rel=1e-12, abs=0.0)


class TestSeriesOverflowLaw:
    """A law whose 1F1(m_y; m_x; bb u) power series overflows below x = 650.

    At m_y = 41.3 the series overflows from x ~ 550, and x in [550, 650] holds
    37% of the law's mass; the large-x expansion summed to 12 terms was off
    by 9.8e-8 in the log at x = 600, and the quadrature oracle shares it.
    """

    PARAMS = ChannelParams(0.152354, 41.2887, 1, 4452.53, 3.56718, 1002.9)

    def test_pdf_against_mpmath(self):
        # The closed-form density in mpmath at 40 digits, from the library's
        # own C and beta_bar, at u = 20, 40, ..., 1980.
        pars = self.PARAMS
        dc = ch.derived_constants(pars)
        with mpmath.workdps(40):
            alpha, m_x, m_y = (mpmath.mpf(v) for v in (pars.alpha, pars.m_x, pars.m_y))
            c, bb, omb = (mpmath.mpf(v) for v in (dc.c_alpha, dc.beta_bar,
                                                  dc.one_minus_beta_bar))
            scale = alpha / 2 * omb ** m_y / (c ** m_x * mpmath.gamma(m_x) * pars.gamma_bar)
            for u in range(20, 2000, 20):
                g = pars.gamma_bar * (dc.c_alpha * u) ** (2.0 / pars.alpha)
                ratio = mpmath.mpf(g) / pars.gamma_bar
                v = ratio ** (alpha / 2) / c
                want = (scale * ratio ** (alpha * m_x / 2 - 1) * mpmath.exp(-v)
                        * mpmath.hyp1f1(m_y, m_x, bb * v))
                assert ch.snr_pdf(pars, g) == pytest.approx(float(want), rel=1e-12, abs=0.0)

    def test_capacity_oracle_matches_mixture(self):
        from abxs import metrics
        want = metrics.capacity_mixture(self.PARAMS).value
        assert metrics.capacity_quadrature(self.PARAMS) == pytest.approx(want, rel=1e-11,
                                                                         abs=0.0)


class TestLogScaled1F1:
    """The density kernel's log(e^-x 1F1(a; b; x)): the large-x expansion where
    x >= max(200, 6b) and it does not refuse, the NB rows (the power series'
    terms, in logs) everywhere else.

    The kernel's L is read off its t-density for the law m_x = b, m_y = a at
    1 - bb = 0.01, where the rest of the density's exponent costs no digits.
    The rest is taken in mpmath from the kernel's own floats t, bb and
    1 - bb (which do not sum to 1 exactly), and L is compared at x = bb e^t.
    """

    OMB = 0.01

    @classmethod
    def kernel(cls, a, b, t):
        return ch._mixture_density(b, a, 1.0 - cls.OMB, cls.OMB)(np.asarray(t, dtype=float))

    @classmethod
    def kernel_log(cls, a, b, x):
        """(the kernel's L at x' = bb e^t, x' as an mpmath number), at the node t = log(x / bb)."""
        bb = 1.0 - cls.OMB
        t = math.log(x / bb)
        dens = cls.kernel(a, b, [t]).item(0)
        with mpmath.workdps(50):
            u = mpmath.exp(mpmath.mpf(t))
            rest = (a * mpmath.log(cls.OMB) - mpmath.loggamma(b) + mpmath.mpf(b) * t
                    - (1 - mpmath.mpf(bb)) * u)
            return float(mpmath.log(dens) - rest), bb * u

    @staticmethod
    def mp_log(a, b, x, dps=40):
        with mpmath.workdps(dps):
            x = mpmath.mpf(x)
            return float(mpmath.log(mpmath.hyp1f1(a, b, x)) - x)

    @pytest.mark.parametrize("x", [200.0, 300.0, 400.0, 500.0, 600.0])
    def test_against_mpmath(self, x):
        # Where x >= max(200, 6b) the kernel adds the expansion's L to the
        # exponent (test_switch_rule), so that L is checked itself: read off
        # the density it would carry the rounding of the exponent's other
        # parts (m_x t about 300 at b = 50). Elsewhere the rows' L is read
        # off the density.
        for a in (0.1, 0.7, 3.0, 10.0, 25.0, 50.0):
            for b in (0.15, 1.5, 8.0, 20.0, 50.0):
                got, at = self.kernel_log(a, b, x)
                if at >= max(200.0, 6.0 * b):
                    got = specfun._log_scaled_1f1_large_x(a, b, float(at))
                want = self.mp_log(a, b, at)
                assert abs(got - want) <= 1e-14 * max(1.0, abs(want)), (a, b)

    def test_switch_rule(self, monkeypatch):
        # The expansion is tried at exactly the nodes whose x = bb e^t reaches
        # max(200, 6b), a suffix of the increasing nodes; the pinned law's
        # a = m_y, b = m_x take it at every such node.
        seen = []
        real = specfun._log_scaled_1f1_large_x
        monkeypatch.setattr(specfun, "_log_scaled_1f1_large_x",
                            lambda a, b, x: seen.append(x) or real(a, b, x))
        bb = 1.0 - self.OMB
        a, b = TestSeriesOverflowLaw.PARAMS.m_y, TestSeriesOverflowLaw.PARAMS.m_x
        for bb_a, bb_b, edge in ((a, b, 200.0), (a, 50.0, 300.0)):
            t_edge = math.log(edge / bb)
            nodes = [math.log(199.0 / bb)] + [t_edge + k * 2e-16 * t_edge for k in range(-3, 4)]
            nodes += [math.log(400.0 / bb), math.log(640.0 / bb)]
            seen.clear()
            dens = self.kernel(bb_a, bb_b, nodes)
            want = [bb * math.exp(t) for t in nodes if bb * math.exp(t) >= edge]
            assert seen == want and 0 < len(want) < len(nodes) - 1
            assert np.all(dens > 0.0)

    @pytest.mark.parametrize("x", [660.0, 800.0])
    def test_past_650_below_6b(self, x):
        # The large-x expansion converged to a wrong value here (-329.955
        # for -337.286 at x = 660); the kernel sums the rows, and the
        # oracle's reference 1F1 raises instead.
        got, at = self.kernel_log(70.0, 300.0, x)
        want = self.mp_log(70.0, 300.0, at)
        assert abs(got - want) <= 1e-13
        try:
            ref = specfun._log_scaled_1f1(70.0, 300.0, float(at))
        except specfun.ConvergenceError:
            return
        assert abs(ref - want) <= 1e-13

    def test_cancelled_expansion_falls_back_to_the_series(self):
        # At x = 6b the expansion's terms cancel to a negative sum here,
        # whose log raised ValueError; the kernel sums the rows instead.
        with pytest.raises(specfun.ConvergenceError, match="cancelled"):
            specfun._log_scaled_1f1_large_x(200.0, 1000.0, 6000.0)
        got, at = self.kernel_log(200.0, 1000.0, 6000.0)
        assert abs(got - self.mp_log(200.0, 1000.0, at)) <= 1e-12

    @pytest.mark.parametrize("a, b, x", [(70.0, 2000.0, 12000.0), (70.0, 2000.0, 16000.0),
                                         (50.0, 300.0, 1800.0)])
    def test_cancelling_expansion_is_right_or_raises(self, a, b, x):
        # Its terms cancel to 5.2e9, 1.8e7 and 8.5e5 times below their size here,
        # and it was 7.2e-8 off in the log at the first point; the kernel
        # refuses it and sums the rows.
        with pytest.raises(specfun.ConvergenceError, match="cancelled"):
            specfun._log_scaled_1f1_large_x(a, b, x)
        got, at = self.kernel_log(a, b, x)
        want = self.mp_log(a, b, at)
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))

    @pytest.mark.parametrize("a, b, x", [(70.0, 20000.0, 1e5), (70.0, 2000.0, 12000.0),
                                         (70.0, 2000.0, 16000.0), (0.5, 2000.0, 1e4)])
    def test_long_series_against_mpmath(self, a, b, x):
        # The power series needs about x - b terms here, up to 80,000, and the
        # expansion is refused below 6b or cancels; the rows around the
        # largest term sum them. The expansion alone gave -51628.40611 at
        # the first point, where 50-digit mpmath gives -51628.40608.
        got, at = self.kernel_log(a, b, x)
        want = self.mp_log(a, b, at, dps=50)
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))


class TestBxsEnvelopePdf:
    def test_raises_past_650_below_6b(self):
        # x = bb m_x r^2 / omega_x = 1459 at r^2 = 3 (omega_x + omega_y): past
        # scipy's range and below 6 m_x, where the reference 1F1 refuses.
        pars = ChannelParams(300, 70, 1, 1, 2, 10)
        with pytest.raises(specfun.ConvergenceError):
            ch.bxs_envelope_pdf(pars, math.sqrt(3.0 * (pars.omega_x + pars.omega_y)))


class TestSnrCcdf:
    """The ccdf's upper tail lies in NB weights past the shared table's cut."""

    @pytest.mark.parametrize("law", [ChannelParams(*law) for law in MONTECARLO_LAWS]
                             + [fig4_params(m_x, m_y, a, 10.0) for m_x, m_y, a in FIG4_SETS])
    def test_against_mpmath(self, law):
        # down to 2.2e-88 (fig-4 law (2.5, 2.5, 3) at 20): the shared table gave 4.1e-126
        oracle = MpSnrLaw(law)
        for ratio in (1.0, 3.0, 10.0, 20.0):
            gamma = ratio * law.gamma_bar
            want = oracle.ccdf(gamma)
            assert ch.snr_ccdf(law, gamma) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_small_alpha_law_against_mpmath(self):
        # 4,000 weights at beta_bar = 0.9947; the shared table was off by up to 6.3e-6
        law = ChannelParams(*SMALL_ALPHA_LAWS[3])
        oracle = MpSnrLaw(law)
        for ratio in (1.0, 3.0, 10.0, 20.0):
            gamma = ratio * law.gamma_bar
            want = oracle.ccdf(gamma)
            assert ch.snr_ccdf(law, gamma) == pytest.approx(want, rel=1e-11, abs=0.0)

    @pytest.mark.parametrize("law", [
        ChannelParams(1.2, 1.2, db(-3.0), db(3.0), 3.7, 10.0),
        ChannelParams(2.5, 0.5, db(-3.0), db(3.0), 3.7, 100.0),
        ChannelParams(2.5, 2.5, db(-3.0), db(3.0), 2.0 * math.sqrt(3.0), 10.0),
        TestSeriesOverflowLaw.PARAMS], ids=["8.98e-111", "2.12e-53", "5.19e-176", "pinned"])
    def test_underflowing_first_sum_against_mpmath(self, law):
        # Every term over the shared table underflows at these ratios; the
        # first three are the benchmark's domain laws 42, 43 and 58 at 20.
        ratio = 3.0 if law is TestSeriesOverflowLaw.PARAMS else 20.0
        want = MpSnrLaw(law).ccdf(ratio * law.gamma_bar)
        assert 0.0 < want < 1e-50
        assert ch.snr_ccdf(law, ratio * law.gamma_bar) == pytest.approx(want, rel=1e-11, abs=0.0)

    def test_raises_where_its_table_passes_the_cap(self):
        # m_x = m_y = 1 at alpha = 2 is the exponential law, ccdf e^-gamma at gamma_bar = 1.
        # 1 - beta_bar = 4e-4: the shared table has 80,575 weights, but e^-10 needs
        # them past 100,000, and at gamma = 100 the sum over the shared table
        # underflows to 0
        law = ChannelParams(1, 1, 1, 2499, 2, 1)
        assert ch.snr_ccdf(law, 5.0) == pytest.approx(math.exp(-5.0), rel=1e-12, abs=0.0)
        for gamma in (10.0, 100.0):
            with pytest.raises(specfun.ConvergenceError, match="100000 entries"):
                ch.snr_ccdf(law, gamma)


class TestSnrCdf:
    def test_zero(self):
        assert ch.snr_cdf(fig1_params(2.0), 0.0) == 0.0
        assert ch.snr_ccdf(fig1_params(2.0), 0.0) == 1.0

    def test_rayleigh_reduction(self):
        pars = rayleigh(gamma_bar=4.0)
        for g in (0.1, 1.0, 4.0, 20.0):
            assert ch.snr_cdf(pars, g) == pytest.approx(1.0 - math.exp(-g / 4.0),
                                                        rel=1e-12)

    def test_quadrature_oracle_at_mean(self):
        pars = fig1_params(2.0)
        want, _ = integrate.quad(lambda g: ch.snr_pdf(pars, g), 0.0, pars.gamma_bar,
                                 epsabs=1e-13, epsrel=1e-12, limit=300)
        assert ch.snr_cdf(pars, pars.gamma_bar) == pytest.approx(want, abs=1e-8)

    @pytest.mark.parametrize("alpha", FIG1_ALPHAS)
    def test_phi2_route_agrees(self, alpha):
        pars = fig1_params(alpha)
        for g in (0.05, 0.4, 1.0, 2.0, 6.0):
            a = ch.snr_cdf(pars, g)
            b = ch.snr_cdf_phi2(pars, g)
            assert b == pytest.approx(a, abs=1e-8)

    @given(st.floats(min_value=0.0, max_value=50.0))
    def test_ccdf_complement(self, g):
        pars = fig1_params(2.5)
        assert ch.snr_cdf(pars, g) + ch.snr_ccdf(pars, g) == pytest.approx(1.0,
                                                                           abs=1e-10)

    @given(st.floats(min_value=0.01, max_value=20.0),
           st.floats(min_value=0.01, max_value=20.0))
    def test_monotone_in_gamma(self, g1, g2):
        pars = fig1_params(1.0)
        lo, hi = sorted((g1, g2))
        assert ch.snr_cdf(pars, lo) <= ch.snr_cdf(pars, hi) + 1e-14

    @given(st.floats(min_value=0.2, max_value=30.0),
           st.floats(min_value=0.2, max_value=30.0))
    def test_cdf_decreases_with_mean_snr(self, gb1, gb2):
        lo, hi = sorted((gb1, gb2))
        p_lo = ChannelParams(alpha=2.5, **{**FIG1, "gamma_bar": lo})
        p_hi = ChannelParams(alpha=2.5, **{**FIG1, "gamma_bar": hi})
        assert ch.snr_cdf(p_hi, 1.0) <= ch.snr_cdf(p_lo, 1.0) + 1e-12

    def test_derivative_matches_pdf(self):
        pars = fig1_params(2.0)
        h = 1e-6
        for g in (0.3, 1.0, 3.0):
            fd = (ch.snr_cdf(pars, g + h) - ch.snr_cdf(pars, g - h)) / (2.0 * h)
            assert fd == pytest.approx(ch.snr_pdf(pars, g), rel=1e-6)


class TestAsymptotics:
    def test_pdf_ratio_tends_to_one(self):
        pars = ChannelParams(alpha=2.0, **{**FIG1, "gamma_bar": db(60.0)})
        got = ch.snr_pdf_asymptotic(pars, 1.0) / ch.snr_pdf(pars, 1.0)
        assert got == pytest.approx(1.0, abs=1e-3)

    def test_cdf_loglog_slope(self):
        pars = fig1_params(2.5)
        g1, g2 = 1e-4, 1e-3
        slope = (math.log(ch.snr_cdf_asymptotic(pars, g2))
                 - math.log(ch.snr_cdf_asymptotic(pars, g1))) / math.log(g2 / g1)
        assert slope == pytest.approx(pars.alpha * pars.m_x / 2.0, rel=1e-12)

    def test_asymptotic_pdf_drops_confluent_factor(self):
        pars = rayleigh(gamma_bar=50.0)
        # with no LoS the confluent factor is already 1: asymptotic == exact
        for g in (0.5, 2.0, 10.0):
            assert ch.snr_pdf_asymptotic(pars, g) == pytest.approx(
                ch.snr_pdf(pars, g), rel=1e-12)


class TestAlpha2Reduction:
    def test_pdf_matches_transformed_envelope_density(self):
        pars = fig1_params(2.0)
        dc = ch.derived_constants(pars)
        kappa = dc.c_alpha * pars.m_x / pars.omega_x
        for ratio in np.logspace(-3, 3, 25):
            g = ratio * pars.gamma_bar
            w = g / (pars.gamma_bar * kappa)
            want = ch.bxs_power_pdf(pars, w) / (pars.gamma_bar * kappa)
            got = ch.snr_pdf(pars, g)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-300)


class TestEnvelopePdf:
    def test_nakagami_reduction(self):
        pars = nakagami(m=2.2)
        for r in (0.2, 0.7, 1.5):
            want = (2.0 * 2.2 ** 2.2 * r ** (2 * 2.2 - 1)
                    * math.exp(-2.2 * r * r) / math.gamma(2.2))
            assert ch.bxs_envelope_pdf(pars, r) == pytest.approx(want, rel=1e-12)

    def test_normalized(self):
        pars = fig1_params(2.0)
        val, _ = integrate.quad(lambda r: ch.bxs_envelope_pdf(pars, r), 0.0, math.inf,
                                epsabs=1e-12, epsrel=1e-11, limit=300)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_los_dominated_against_mpmath(self):
        # 1 - bb = 1e-8 is taken from its own quotient, not from 1 - bb
        pars = ChannelParams(1.5, 1.2, 1.0, 1.2 * (1.0 - 1e-8) / (1.5 * 1e-8), 2.0, 1.0)
        with mpmath.workdps(30):
            mx, my, ox, oy = (mpmath.mpf(v) for v in (pars.m_x, pars.m_y, pars.omega_x,
                                                      pars.omega_y))
            bb, omb = mx * oy / (my * ox + mx * oy), my * ox / (my * ox + mx * oy)
            for r in (1e3, 1e4, 3e4):
                t = mx * mpmath.mpf(r) ** 2 / ox
                want = (2 * (mx / ox) ** mx * mpmath.mpf(r) ** (2 * mx - 1) * omb ** my
                        * mpmath.exp(-t) * mpmath.hyp1f1(my, mx, bb * t) / mpmath.gamma(mx))
                assert ch.bxs_envelope_pdf(pars, r) == pytest.approx(float(want), rel=1e-12,
                                                                     abs=0.0)

    def test_rician_limit(self):
        # huge shadowing severity freezes the LoS power: Rice with nu^2=omega_y
        pars = ChannelParams(m_x=1.0, m_y=1e4, omega_x=0.8, omega_y=1.3,
                             alpha=2.0, gamma_bar=1.0)
        for r in (0.3, 1.0, 1.8):
            arg = 2.0 * r * math.sqrt(pars.omega_y) / pars.omega_x
            want = (2.0 * r / pars.omega_x
                    * math.exp(-(r * r + pars.omega_y) / pars.omega_x + arg)
                    * float(sp_special.i0e(arg)))
            assert ch.bxs_envelope_pdf(pars, r) == pytest.approx(want, rel=1e-3)


class TestGrid:
    def test_grid_has_72_points(self):
        assert len(list(grid72())) == 72
