import json
import math
import os
import pathlib
import subprocess
import sys
import textwrap
import threading
import weakref
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import gammaln, xlogy
from abxs import channel as ch
from abxs import metrics as mt
from abxs import specfun as sf
from abxs.channel import ChannelParams, derived_constants
from oracles import (nakagami_bpsk_aber, rayleigh_bpsk_aber, rayleigh_capacity)
from paramsets import (FIG2_ALPHAS, FIG2_SNR_DB, FIG4_SETS, FIG4_SNR_DB, SMALL_ALPHA_LAWS, db,
                       fig2_params, fig3_params, fig4_params, nakagami, rayleigh)

QAM16 = mt.modulation_coeffs("mqam", 16)
BPSK = mt.modulation_coeffs("bpsk")

# mpmath references at 40 digits for QAM-16 ABER and capacity on 67 laws.
DOMAIN_REFERENCE = (pathlib.Path(__file__).resolve().parent.parent
                    / "perfbench" / "reference" / "domain.json")


class TestModulationCoeffs:
    def test_qam16(self):
        assert QAM16.delta1 == pytest.approx(0.75)
        assert QAM16.delta2 == pytest.approx((0.1, 0.9))
        assert QAM16.delta3 == 2

    def test_bpsk(self):
        assert BPSK.delta1 == 1.0 and BPSK.delta2 == (1.0,) and BPSK.delta3 == 1

    def test_qam4(self):
        qam4 = mt.modulation_coeffs("mqam", 4)
        assert qam4.delta1 == pytest.approx(1.0)
        assert qam4.delta2 == pytest.approx((0.5,))
        assert qam4.delta3 == 1

    def test_qam64(self):
        qam64 = mt.modulation_coeffs("mqam", 64)
        assert qam64.delta1 == pytest.approx(4.0 * (1 - 1 / 8) / 6)
        assert qam64.delta3 == 4
        assert qam64.delta2[0] == pytest.approx(3.0 / (2 * 63))

    def test_psk_and_fsk(self):
        psk8 = mt.modulation_coeffs("mpsk", 8)
        assert psk8.delta3 == 2
        assert psk8.delta2[0] == pytest.approx(math.sin(math.pi / 8) ** 2)
        fsk4 = mt.modulation_coeffs("mfsk", 4)
        assert fsk4.delta1 == 2.0 and fsk4.delta2 == (0.5,)

    @pytest.mark.parametrize("kind,order", [("mqam", 8), ("mqam", 9), ("mpsk", 3),
                                            ("mfsk", 3), ("nope", 2), ("bpsk", 4)])
    def test_rejects(self, kind, order):
        with pytest.raises(ValueError):
            mt.modulation_coeffs(kind, order)

    def test_scheme_invariants(self):
        with pytest.raises(ValueError):
            mt.ModulationScheme("x", 0.0, (1.0,), 1)
        with pytest.raises(ValueError):
            mt.ModulationScheme("x", 1.0, (1.0, -2.0), 2)
        with pytest.raises(ValueError):
            mt.ModulationScheme("x", 1.0, (1.0,), 2)


class TestAberQuadrature:
    def test_rayleigh_closed_form(self):
        for snr_db in (0.0, 10.0, 20.0):
            pars = rayleigh(gamma_bar=db(snr_db))
            got = mt.aber_quadrature(pars, BPSK)
            assert got.path == "oracle"
            assert got.value == pytest.approx(rayleigh_bpsk_aber(pars.gamma_bar),
                                              rel=1e-10)

    def test_low_snr_limit(self):
        pars = fig2_params(2.0, -60.0)
        got = mt.aber_quadrature(pars, QAM16).value
        assert got == pytest.approx(0.5 * QAM16.delta1 * QAM16.delta3, rel=2e-3)

    def test_golden_fixture(self):
        # frozen oracle value, reference scenario at 20 dB
        assert mt.aber_quadrature(fig2_params(2.0, 20.0), QAM16).value == pytest.approx(
            0.013298337983603904, rel=1e-10)


# Every route but the QUADPACK oracles, on an m_x > m_y law (so the normaliser
# runs its Euler check), then one oracle. Run in a fresh interpreter: the test
# process has imported scipy.integrate already.
IMPORT_HYGIENE_SCRIPT = textwrap.dedent("""
    import sys
    import abxs
    from abxs import montecarlo

    def loaded():
        return "scipy.integrate" in sys.modules

    assert not loaded(), "import abxs"
    p = abxs.ChannelParams(2.0, 1.0, 1.0, 0.5, 2.5, 100.0)
    qam16 = abxs.modulation_coeffs("mqam", 16)
    cfg = abxs.SimulationConfig(trials=2000, seed=3)
    for name, call in [
            ("snr_pdf", lambda: abxs.snr_pdf(p, 50.0)),
            ("snr_cdf", lambda: abxs.snr_cdf(p, 50.0)),
            ("aber_exact", lambda: abxs.aber_exact(p, qam16)),
            ("capacity_exact", lambda: abxs.capacity_exact(p)),
            ("aber_mixture", lambda: abxs.aber_mixture(p, qam16)),
            ("capacity_mixture", lambda: abxs.capacity_mixture(p)),
            ("aber_asymptotic", lambda: abxs.aber_asymptotic(p, qam16)),
            ("capacity_asymptotic", lambda: abxs.capacity_asymptotic(p)),
            ("mc_aber", lambda: abxs.mc_aber(p, qam16, cfg)),
            ("ks_statistic", lambda: abxs.ks_statistic(abxs.snr_samples(p, cfg),
                                                       montecarlo.snr_cdf_fn(p)))]:
        call()
        assert not loaded(), name
    assert abxs.aber_quadrature(p, qam16).value > 0.0
    assert loaded(), "aber_quadrature"
""")


def test_only_the_quadrature_oracles_import_scipy_integrate():
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", IMPORT_HYGIENE_SCRIPT],
                          env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


class TestOracleAgainstMpmath:
    def test_domain_grid(self):
        laws = json.loads(DOMAIN_REFERENCE.read_text())["laws"]
        assert len(laws) == 67
        misses = []
        for i, law in enumerate(laws):
            pars = ChannelParams(*law["law"])
            got = {"aber": mt.aber_quadrature(pars, QAM16).value,
                   "capacity": mt.capacity_quadrature(pars)}
            misses += [(i, name, value) for name, value in got.items()
                       if abs(value / law[name] - 1.0) > 1e-10]
        assert not misses

    def test_tiny_alpha_capacity(self):
        pars = ChannelParams(1.2, 1.2, 1.0, 0.0, 0.01, 10.0)
        assert mt.capacity_quadrature(pars) == pytest.approx(5.7393061e-32, rel=1e-6, abs=0.0)

    def test_hyp1f1_overflow(self):
        # beta_bar = 0.95 puts bb*u past 625, where scipy's hyp1f1(20; 0.5; x)
        # overflows, inside the bulk of the density. mpmath references.
        pars = ChannelParams(0.5, 20.0, 1.0, 760.0, 2.0, 10.0)
        assert mt.capacity_quadrature(pars) == pytest.approx(3.4264310273892744, rel=1e-10)
        assert mt.aber_quadrature(pars, QAM16).value == pytest.approx(0.06224938472924356,
                                                                      rel=1e-10)

    def test_cython_hyp1f1_is_the_ufunc(self):
        # The oracle calls hyp1f1 through cython_special for its lower
        # per-call cost; it must be scipy's hyp1f1 ufunc to the bit, inf where
        # the ufunc overflows included.
        from scipy.special import cython_special, hyp1f1
        grid = [(a, b, x) for a in (0.1, 0.5, 1.2, 4.0, 20.0, 41.3, 70.0)
                for b in (0.15, 0.5, 1.0, 2.5, 30.0, 300.0)
                for x in (0.0, 1e-3, 0.7, 12.0, 200.0, 550.0, 625.0, 650.0)]
        got = [cython_special.hyp1f1(a, b, x) for a, b, x in grid]
        want = [float(hyp1f1(a, b, x)) for a, b, x in grid]
        assert got == want
        assert any(math.isinf(v) for v in want)

    def test_cdf_rayleigh(self):
        pars = rayleigh(gamma_bar=db(10.0))
        assert mt.cdf_quadrature(pars, 0.0) == 0.0
        for g in (0.01, 1.0, 10.0, 100.0):
            assert mt.cdf_quadrature(pars, g) == pytest.approx(
                -math.expm1(-g / pars.gamma_bar), rel=1e-10)

    def test_cdf_below_the_density_underflow_raises(self):
        # Near 1e-321 the density at the cut is within 1e-11 of the cdf, so
        # what underflowed may count; at 1e-310 it cannot.
        pars = rayleigh(gamma_bar=db(10.0))
        assert mt.cdf_quadrature(pars, 1e-310) == pytest.approx(1e-311, rel=1e-10)
        with pytest.raises(sf.ConvergenceError, match="underflows"):
            mt.cdf_quadrature(pars, 1e-320)


class TestAberExact:
    def test_rayleigh(self):
        pars = rayleigh(gamma_bar=10.0)
        got = mt.aber_exact(pars, BPSK)
        assert got.path == "series-quadrature"
        assert got.value == pytest.approx(rayleigh_bpsk_aber(10.0), rel=1e-8)

    def test_nakagami(self):
        pars = nakagami(m=2.4, gamma_bar=db(15.0))
        got = mt.aber_exact(pars, BPSK)
        assert got.value == pytest.approx(nakagami_bpsk_aber(2.4, pars.gamma_bar),
                                          rel=1e-8)

    @pytest.mark.parametrize("alpha", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("snr_db", [0.0, 20.0, 40.0])
    def test_matches_oracle(self, alpha, snr_db):
        pars = fig2_params(alpha, snr_db)
        want = mt.aber_quadrature(pars, QAM16).value
        got = mt.aber_exact(pars, QAM16)
        assert got.path == "series-quadrature"
        assert got.value == pytest.approx(want, rel=1e-5)

    def test_hybrid_path_when_denominator_large(self):
        pars = fig2_params(2.2, 10.0)  # alpha/2 = 11/10, q = 10 > 8
        got = mt.aber_exact(pars, QAM16)
        assert got.path == "series-quadrature"
        assert got.value == pytest.approx(mt.aber_quadrature(pars, QAM16).value,
                                          rel=1e-6)

    def test_quadrature_only_alpha(self):
        pars = ChannelParams(m_x=1.2, m_y=1.2, omega_x=1.0, omega_y=1.0,
                             alpha=2.0 * math.pi, gamma_bar=10.0)
        got = mt.aber_exact(pars, QAM16)
        assert got.path == "series-quadrature"
        assert got.value == pytest.approx(mt.aber_quadrature(pars, QAM16).value,
                                          rel=1e-6)

    @given(st.floats(min_value=0.1, max_value=10.0))
    def test_scale_invariance(self, c):
        # the SNR law depends on the power ratio only
        base = fig2_params(2.0, 15.0)
        scaled = ChannelParams(m_x=base.m_x, m_y=base.m_y,
                               omega_x=c * base.omega_x, omega_y=c * base.omega_y,
                               alpha=base.alpha, gamma_bar=base.gamma_bar)
        assert mt.aber_exact(scaled, QAM16).value == pytest.approx(
            mt.aber_exact(base, QAM16).value, rel=1e-10)

    def test_monotone_decreasing_in_mean_snr(self):
        vals = [mt.aber_exact(fig2_params(2.0, s), QAM16).value
                for s in (0.0, 10.0, 20.0, 30.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_overflowing_residue_falls_back_to_contour(self):
        # a residue of one G term of the paper's k-series overflows to +-inf,
        # so a residue sum leaked "ValueError: -inf + inf in fsum" here; the
        # contour evaluates every G term. mpmath reference value.
        pars = fig3_params(0.5, 0.5, 1.0, snr_db=-10.0)
        prof = mt.aber_exact_truncation_profile(pars, QAM16, k_max=64)
        assert prof[-1] == pytest.approx(0.6602567351595884, rel=1e-6)
        assert mt.aber_exact(pars, QAM16).value == pytest.approx(0.6602567351595884, rel=1e-12)

    # Fig-3 rows (20 dB, powers -3 / +3 dB), mpmath references at 40 digits.
    @pytest.mark.parametrize("m_x, m_y, alpha, want", [
        (0.5, 0.5, 1.25, 0.1652216485975596),
        (0.5, 0.5, 2.5, 0.043308621967241084),
        (0.5, 0.5, 3.75, 0.01576356741809328),
        (2.5, 2.5, 1.25, 0.012848168508852557),
        (2.5, 2.5, 2.5, 0.0010531910886727573),
        (2.5, 2.5, 3.75, 0.00020800664313641354),
    ])
    def test_fig3_rows(self, m_x, m_y, alpha, want):
        got = mt.aber_exact(fig3_params(m_x, m_y, alpha), QAM16)
        assert got.path == "series-quadrature"
        assert got.value == pytest.approx(want, rel=1e-6)

    def test_los_dominated_mixture_fallback(self):
        # alpha/2 = 37/20 takes the mixture fallback at beta_bar ~ 0.8, where
        # a 64-term cdf series used to raise ConvergenceError. mpmath reference.
        got = mt.aber_exact(fig3_params(1.2, 1.2, 3.7), QAM16)
        assert got.path == "series-quadrature"
        assert got.value == pytest.approx(0.001720374419720987, rel=1e-6)

    def test_domain_law_55(self):
        # alpha = 4 at 60 dB: the contour's line used to sit at the midpoint
        # between the pole ladders, where it missed the value by 1.1e-7.
        # mpmath reference at 40 digits.
        got = mt.aber_exact(ChannelParams(2.5, 0.5, 10 ** -0.3, 10 ** 0.3, 4.0, 1e6), QAM16)
        assert got.path == "series-quadrature"
        assert got.value == pytest.approx(2.015024060343589e-23, rel=1e-12, abs=0.0)

    def test_truncation_profile_converges(self):
        pars = fig2_params(2.0, 20.0)
        prof = mt.aber_exact_truncation_profile(pars, QAM16, k_max=12)
        full = mt.aber_exact(pars, QAM16).value
        assert prof[-1] == pytest.approx(full, rel=1e-6)
        assert abs(prof[6] - full) / full < 1e-5  # 5-digit accuracy within 7 terms

    def test_domain_grid(self):
        # The 67 benchmark laws: QAM-16 ABER within 1e-12 of 40-digit mpmath.
        laws = json.loads(DOMAIN_REFERENCE.read_text())["laws"]
        got = [mt.aber_exact(ChannelParams(*law["law"]), QAM16) for law in laws]
        assert all(r.path == "series-quadrature" for r in got)
        assert [r.value for r in got] == pytest.approx([law["aber"] for law in laws],
                                                       rel=1e-12, abs=0.0)

    def test_truncation_profile_needs_the_closed_form(self):
        with pytest.raises(ValueError):
            mt.aber_exact_truncation_profile(fig2_params(2.2, 10.0), QAM16)


class TestAberBound:
    def test_value_past_the_q_bound_raises_convergence_error(self, monkeypatch):
        # Q <= 1/2 bounds the ABER by delta1 delta3 / 2; an expectation of
        # 0.6 delta1 delta3 is a numerical failure, not a bad argument.
        pars = rayleigh(gamma_bar=db(10.0))
        past = 0.6 * QAM16.delta1 * QAM16.delta3
        monkeypatch.setattr(mt, "_mixture_expectation", lambda params, h: (past, 1))
        monkeypatch.setattr(mt, "_snr_integral", lambda params, h: past)
        for call in (mt.aber_exact, mt.aber_quadrature):
            with pytest.raises(sf.ConvergenceError, match="Q <= 1/2 bound"):
                call(pars, QAM16)


class TestAberAsymptotic:
    def test_identity_with_coding_gain(self):
        pars = fig3_params(2.5, 0.5, alpha=3.0)
        gd = mt.diversity_order(pars)
        gc = mt.coding_gain(pars, QAM16)
        assert mt.aber_asymptotic(pars, QAM16).value == pytest.approx(
            gc * pars.gamma_bar ** (-gd), rel=1e-14)

    def test_ratio_tends_to_one(self):
        pars = fig2_params(2.0, 60.0)
        ratio = mt.aber_asymptotic(pars, QAM16).value / mt.aber_exact(pars, QAM16).value
        assert 1.0 <= ratio < 1.02

    def test_upper_bounds_exact_at_high_snr(self):
        for snr_db in (30.0, 40.0, 50.0):
            pars = fig2_params(2.0, snr_db)
            assert (mt.aber_asymptotic(pars, QAM16).value
                    >= mt.aber_exact(pars, QAM16).value)

    def test_loglog_slope_is_diversity_order(self):
        pars_fn = lambda s: fig2_params(3.0, s)
        lo, hi = mt.aber_exact(pars_fn(40.0), QAM16).value, mt.aber_exact(
            pars_fn(60.0), QAM16).value
        slope = -(math.log10(hi) - math.log10(lo)) / 2.0  # per decade of gamma_bar
        assert slope == pytest.approx(mt.diversity_order(pars_fn(40.0)), rel=0.02)


class TestCodingGain:
    def test_diversity_order_formula(self):
        assert mt.diversity_order(ChannelParams(1.6, 1.0, 1.0, 0.0, 2.0, 1.0)) == 1.6
        assert mt.diversity_order(ChannelParams(0.5, 1.0, 1.0, 0.0, 4.0, 1.0)) == 1.0

    def test_depends_on_constellation(self):
        pars = fig3_params(2.5, 2.5, alpha=2.0)
        qam4 = mt.modulation_coeffs("mqam", 4)
        qam64 = mt.modulation_coeffs("mqam", 64)
        assert mt.coding_gain(pars, qam4) != pytest.approx(mt.coding_gain(pars, qam64),
                                                           rel=1e-3)

    def test_no_los_closed_form(self):
        pars = nakagami(m=1.3, gamma_bar=7.0)
        gd = 1.3
        c2 = 1.0 / 1.3
        want = (QAM16.delta1 * math.gamma(gd + 0.5)
                * sum(d ** -gd for d in QAM16.delta2)
                / (2.0 * math.sqrt(math.pi) * c2 ** 1.3 * math.gamma(2.3)))
        assert mt.coding_gain(pars, QAM16) == pytest.approx(want, rel=1e-12)


class TestCapacityQuadrature:
    def test_rayleigh_closed_form(self):
        for snr_db in (0.0, 10.0, 20.0):
            pars = rayleigh(gamma_bar=db(snr_db))
            assert mt.capacity_quadrature(pars) == pytest.approx(
                rayleigh_capacity(pars.gamma_bar), rel=1e-9)

    def test_low_snr_vanishes(self):
        assert mt.capacity_quadrature(fig2_params(2.0, -50.0)) < 2e-5

    @pytest.mark.parametrize("alpha", [1.0, 3.0])
    def test_jensen_bound(self, alpha):
        pars = fig2_params(alpha, 15.0)
        assert mt.capacity_quadrature(pars) < math.log2(1.0 + pars.gamma_bar)

    @pytest.mark.parametrize("law", [(2, 0.5, 1, 3, 0.003, 1e-300), (1, 1, 1, 1, 0.001, 1e-300)])
    def test_underflowed_density_raises(self, law):
        # The integrand peaks at the density's underflow: QUADPACK saw only
        # points where the density underflowed and returned 0.0, where the
        # capacity of the first law is about 1.2e-300. The mixture raises too.
        pars = ChannelParams(*law)
        with pytest.raises(sf.ConvergenceError, match="underflows"):
            mt.capacity_quadrature(pars)
        with pytest.raises(sf.ConvergenceError):
            mt.capacity_mixture(pars)

    def test_low_snr_small_alpha_returns(self):
        # The density also underflows inside the integrand's range here, but
        # only where h times it is far below the value.
        pars = ChannelParams(1, 1, 1, 1, 0.01, 1e-200)
        assert mt.capacity_quadrature(pars) == pytest.approx(mt.capacity_mixture(pars).value,
                                                              rel=1e-10, abs=0.0)


class TestCapacityExact:
    def test_rayleigh(self):
        pars = rayleigh(gamma_bar=10.0)
        got = mt.capacity_exact(pars)
        assert got.path == "series-quadrature"
        assert got.value == pytest.approx(rayleigh_capacity(10.0), rel=1e-8)

    @pytest.mark.parametrize("alpha", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("snr_db", [0.0, 20.0, 40.0])
    def test_matches_oracle(self, alpha, snr_db):
        pars = fig2_params(alpha, snr_db)
        got = mt.capacity_exact(pars)
        assert got.path == "series-quadrature"
        assert got.value == pytest.approx(mt.capacity_quadrature(pars), rel=1e-5)

    def test_domain_grid(self):
        # The 67 benchmark laws: capacity within 1e-12 of 40-digit mpmath.
        laws = json.loads(DOMAIN_REFERENCE.read_text())["laws"]
        got = [mt.capacity_exact(ChannelParams(*law["law"])) for law in laws]
        assert all(r.path == "series-quadrature" for r in got)
        assert [r.value for r in got] == pytest.approx([law["capacity"] for law in laws],
                                                       rel=1e-12, abs=0.0)

    def test_truncation_profile_converges(self):
        # The paper's capacity k-series on the fig-4 grid, its G terms on the
        # Mellin-Barnes contour: 24 terms reach the 1e-7 of a k-series, and
        # the full table its sum.
        pars = fig4_params(0.5, 0.5, 3.0, 20.0)
        prof = mt.capacity_exact_truncation_profile(pars, k_max=44)
        full = mt.capacity_exact(pars).value
        assert prof[23] == pytest.approx(full, rel=1e-7)
        assert prof[-1] == pytest.approx(full, rel=1e-10)
        assert prof[:16] == mt.capacity_exact_truncation_profile(pars)

    def test_truncation_profile_needs_the_closed_form(self):
        with pytest.raises(ValueError):
            mt.capacity_exact_truncation_profile(fig2_params(2.2, 10.0))

    def test_monotone_in_mean_snr(self):
        vals = [mt.capacity_exact(fig2_params(2.0, s)).value
                for s in (0.0, 10.0, 20.0, 30.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_hybrid_flagged(self):
        pars = fig2_params(2.2, 10.0)
        got = mt.capacity_exact(pars)
        assert got.path == "series-quadrature"
        assert got.value == pytest.approx(mt.capacity_quadrature(pars), rel=1e-6)

    def test_los_dominated_k_series_falls_back(self):
        # At beta_bar ~ 0.95 the paper's k-series would need more than 64
        # terms; the mixture needs no cap. mpmath reference.
        got = mt.capacity_exact(fig3_params(2.5, 0.5, 0.8, snr_db=60.0))
        assert got.path == "series-quadrature"
        assert got.value == pytest.approx(15.643722826061696, rel=1e-6)

    def test_gated_law_runs_no_contour(self, monkeypatch):
        # A LoS-dominated law (beta_bar ~ 0.95) whose k-series needs more than
        # 64 terms: the exact metrics evaluate no Meijer G term, here or on
        # any law.
        pars = fig3_params(2.5, 0.5, 0.8, snr_db=60.0)

        def forbidden(*args, **kwargs):
            pytest.fail("an exact metric evaluated a Meijer G term")

        monkeypatch.setattr(sf, "_meijer_contour", forbidden)
        monkeypatch.setattr(sf, "meijer_g", forbidden)
        assert mt.capacity_exact(pars).path == "series-quadrature"
        assert mt.aber_exact(pars, QAM16).path == "series-quadrature"

    def test_low_snr_law_returns(self):
        # At -50 dB the NB weights centre past k = 10^4 (37,600 of them). The
        # tail bound's rounding slack took gammaln(m_x + k + 2/alpha) -
        # gammaln(m_x + k) at magnitudes near 8e4 and raised on a value right
        # to 4.4e-12: bound/value was 1.19e-10.
        pars = ChannelParams(1, 20, 1, 9980, 2, 1e-5)
        got = mt.capacity_exact(pars)
        assert got.path == "series-quadrature"
        assert got.value == pytest.approx(mt.capacity_quadrature(pars), rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("alpha, gamma_bar", [(0.01, 1e-30), (0.01, 1e-60), (0.01, 1e-100),
                                                   (0.005, 1e-100)])
    def test_small_alpha_low_snr_is_right_or_raises(self, alpha, gamma_bar):
        # The capacity lies in NB terms far past the mean. A weight table cut
        # at 1e-14 of mass left it out, and the tail bound meant to catch
        # that rounded log2(1 + 1e-16) to 0: at gamma_bar = 1e-30 the value
        # was 2.72e-56 for 5.06e-46.
        pars = ChannelParams(1, 1, 1, 1, alpha, gamma_bar)
        try:
            got = mt.capacity_exact(pars).value
        except sf.ConvergenceError:
            return
        assert got == pytest.approx(mt.capacity_quadrature(pars), rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("law", [(1, 1, 1, 1, 0.01, 1e-3), (1, 1, 1, 1, 0.05, 1e-10),
                                     (2, 0.5, 1, 3, 0.02, 1e-20)])
    def test_small_alpha_low_snr_returns(self, law):
        pars = ChannelParams(*law)
        assert mt.capacity_exact(pars).value == pytest.approx(mt.capacity_quadrature(pars),
                                                              rel=1e-10, abs=0.0)

    def test_underflowed_density_raises(self):
        # At alpha = 0.003 the capacity's integrand has not decayed where the
        # density underflows a double, so the nodes where it does not would
        # miss part of the value: they sum to 1.21e-300, and E[gamma] / ln 2 =
        # 1.44e-300 bounds it above.
        with pytest.raises(sf.ConvergenceError, match="underflows"):
            mt.capacity_exact(ChannelParams(2, 0.5, 1, 3, 0.003, 1e-300))

    def test_tiny_alpha_does_not_overflow(self):
        # The mho_alpha power overflows at alpha = 0.01, so derived_constants
        # must not compute it. A 1e-5-step trapezoid in log u and the
        # quadrature oracle give this value.
        got = mt.capacity_exact(ChannelParams(1.2, 1.2, 1.0, 0.0, 0.01, 10.0))
        assert got.path == "series-quadrature"
        assert got.value == pytest.approx(5.7393061e-32, rel=1e-6, abs=0.0)


# The capacity of each SMALL_ALPHA_LAWS law from its SNR density by 40-digit
# mpmath (tanh-sinh in t = log u over 40 pieces around the integrand's peak).
SMALL_ALPHA_CAPACITY = list(zip(SMALL_ALPHA_LAWS, (
    9.8041996501745456852e-23, 1.4990560376870930108e-14,
    2.7535958546700682353e-11, 1.3370189797528404934e-8)))


class TestSmallAlphaCapacity:
    """At small alpha with LoS the capacity lies in NB terms far past the mean,
    which the mixture density sums like any other."""

    @pytest.mark.parametrize("law, want", SMALL_ALPHA_CAPACITY)
    def test_mixture_and_exact_match_mpmath(self, law, want):
        pars = ChannelParams(*law)
        assert mt.capacity_mixture(pars).value == pytest.approx(want, rel=1e-10, abs=0.0)
        assert mt.capacity_exact(pars).value == pytest.approx(want, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("law, want", SMALL_ALPHA_CAPACITY)
    def test_quadrature_matches_mpmath(self, law, want):
        assert mt.capacity_quadrature(ChannelParams(*law)) == pytest.approx(want, rel=1e-10)


def nb_rows(shape, hi):
    """Rows a_k = log w_k - lgamma(m_x + k), k < hi, of shape (m_x, m_y, bb, 1 - bb), as
    channel._mixture_density takes them: the log-gamma parts and the head added
    with each addition's rounding carried (two-sum), then k log bb."""
    m_x, m_y, bb, one_minus_bb = shape
    k = np.arange(hi, dtype=float)
    total, carry = gammaln(m_y + k), 0.0
    for part in (-gammaln(k + 1.0), -gammaln(m_x + k),
                 m_y * math.log(one_minus_bb) - math.lgamma(m_y)):
        rounded = total + part
        back = rounded - total
        carry = carry + ((total - (rounded - back)) + (part - back))
        total = rounded
    return total + (carry + xlogy(k, bb))


class TestMixtureWindow:
    """The mixture density sums each block of nodes over one window of NB rows;
    at the nodes the trapezoid rule visits it must match the sum over every
    row that can matter, and every row it leaves out must be below
    e^-(46 + 8) of its node's largest row."""

    LAWS = (ChannelParams(1, 1, 1, 199, 2.2, 10),  # beta_bar = 0.995
            *(ChannelParams(*law) for law in SMALL_ALPHA_LAWS),
            ChannelParams(1, 20, 1, 9980, 2, 1e-5))  # the NB mass centres past k = 10^4
    # Small m_y, where the row ratio can cross 1 twice: the rows fall from
    # row 0, rise again and fall past the larger crossing.
    SMALL_M_Y = tuple(ChannelParams(m_x, m_y, 1, bb * m_y / (m_x * (1 - bb)), 2, 10)
                      for m_y in (0.01, 0.1) for m_x in (5, 50) for bb in (0.5, 0.95))
    # Shapes (m_x, m_y, bb, 1 - bb) whose row 0 is not negligible against the
    # rows around the larger crossing, although the window first drawn there
    # lies far above row 0; that takes m_y near 1e-200. No law has them (the
    # normaliser raises below m_y of about 1e-17), so their densities are
    # called directly.
    FAR_ROW_0 = ((5.0, 1e-200, 0.95, 0.05), (2.0, 1e-300, 0.9, 0.1))

    @pytest.fixture(scope="class")
    def blocks(self):
        """Per law or shape and block of visited nodes: (its index, its shape,
        nodes, window start, window end, windowed values)."""
        laws = [ChannelParams(*law["law"]) for law in json.loads(DOMAIN_REFERENCE.read_text())["laws"]]
        laws += self.LAWS + self.SMALL_M_Y
        real = ch._window_sum
        out = []
        source = [None, None]  # index, shape

        def recording(a, shapes, t, log_scale):
            dens = real(a, shapes, t, log_scale)
            lo = round(shapes[0] - source[1][0])  # the first row, shape m_x + lo
            out.append((*source, t.copy(), lo, lo + a.size, dens.copy()))
            return dens

        mp = pytest.MonkeyPatch()
        mp.setattr(ch, "_window_sum", recording)
        try:
            for i, pars in enumerate(laws):
                # A law whose lattice an earlier law or test built (the same
                # law at another gamma_bar shares it) would record no node.
                derived_constants.cache_clear()
                dc = derived_constants(pars)
                source[:] = i, (pars.m_x, pars.m_y, dc.beta_bar, dc.one_minus_beta_bar)
                mt.aber_mixture(pars, BPSK)
                mt.capacity_mixture(pars)
            for i, shape in enumerate(self.FAR_ROW_0, len(laws)):
                source[:] = i, shape
                ch._mixture_density(*shape)(np.linspace(-5.0, 12.0, 273))
        finally:
            mp.undo()
            derived_constants.cache_clear()  # no later test reads a recording lattice
        return out

    @staticmethod
    def all_rows(shape, t):
        """log terms of every row k <= k* + 60 sqrt(5 (k* + 1)) + 100 at the nodes t, k* at t[-1].

        The window's local variance is at most 5 (k + 1), so this passes k* by
        60 of its standard deviations and 100 rows more.
        """
        m_x, m_y, bb, _ = shape
        x = bb * math.exp(t[-1])
        b, c = m_x + 1.0 - x, m_x - m_y * x
        k_star = max(0.5 * (math.sqrt(max(b * b - 4.0 * c, 0.0)) - b), 0.0)
        hi = int(k_star + 60.0 * math.sqrt(5.0 * (k_star + 1.0))) + 101
        shapes = (m_x + np.arange(hi))[:, None]
        return nb_rows(shape, hi)[:, None] + shapes * t - np.exp(t)

    def test_windowed_density_matches_full_sum(self, blocks):
        assert len({b[0] for b in blocks}) == (67 + len(self.LAWS) + len(self.SMALL_M_Y)
                                               + len(self.FAR_ROW_0))
        for _, shape, t, lo, hi, windowed in blocks:
            full = np.exp(self.all_rows(shape, t)).sum(axis=0)
            assert np.all(np.abs(windowed - full) <= 1e-15 * full), shape

    def test_dropped_rows_below_margin(self, blocks):
        # Each log term is rounded to about 1e-16 of its size (up to ~1e5 past
        # k = 10^4), hence the 1e-9 slack on the margin.
        margin = sf._CONTOUR_CUT + 8.0
        for _, shape, t, lo, hi, _ in blocks:
            log_terms = self.all_rows(shape, t)
            assert 0 <= lo < hi <= log_terms.shape[0]
            dropped = np.concatenate((log_terms[:lo], log_terms[hi:]))
            gap = (dropped.max(axis=0) - log_terms.max(axis=0)).max()
            assert gap < -margin + 1e-9, shape


class TestDensityLattice:
    """Each law's mixture density is evaluated at most once per trapezoid
    node, shared by every expectation on the law at every gamma_bar, and
    freed with the law's DerivedConstants."""

    CALLS = (("aber_qam16", lambda pars: mt.aber_mixture(pars, QAM16).value),
             ("aber_bpsk", lambda pars: mt.aber_mixture(pars, BPSK).value),
             ("capacity", lambda pars: mt.capacity_mixture(pars).value))

    @staticmethod
    def spy(monkeypatch):
        """Record the t of every node the density evaluates, in a list."""
        real = ch._mixture_density
        nodes = []

        def counting(*law):
            density = real(*law)

            def wrapped(t):
                nodes.extend(t.tolist())
                return density(t)
            return wrapped

        monkeypatch.setattr(ch, "_mixture_density", counting)
        return nodes

    def test_no_node_twice(self, monkeypatch):
        pars = ChannelParams(*json.loads(DOMAIN_REFERENCE.read_text())["laws"][0]["law"])
        nodes = self.spy(monkeypatch)
        derived_constants.cache_clear()
        mt.capacity_mixture(pars)
        alone = len(nodes)
        derived_constants.cache_clear()
        nodes.clear()
        for _, call in self.CALLS:
            after_aber = len(nodes)
            call(pars)
        # Level and index fix t, and distinct lattice nodes are far more
        # than an ulp apart, so a repeated t is a node evaluated twice.
        assert len(set(nodes)) == len(nodes)
        assert len(nodes) - after_aber < alone

    def test_values_independent_of_call_order(self):
        laws = [ChannelParams(*law["law"]) for law in json.loads(DOMAIN_REFERENCE.read_text())["laws"]]

        def run(order):
            derived_constants.cache_clear()
            return {(i, name): call(pars) for i, pars in enumerate(laws) for name, call in order}

        forward = run(self.CALLS)
        assert run(self.CALLS[::-1]) == forward
        for name, call in self.CALLS:
            assert run(((name, call),)) == {key: v for key, v in forward.items() if key[1] == name}

    def test_gamma_bar_shares_the_constants(self):
        pars = ChannelParams(1.5, 2.0, 1.0, 0.5, 2.5, 100.0)
        dc = derived_constants(pars)
        assert derived_constants(replace(pars, gamma_bar=1e-3)) is dc
        for field, value in (("alpha", 2.0), ("omega_x", 2.0), ("omega_y", 1.0)):
            assert derived_constants(replace(pars, **{field: value})) is not dc

    def test_values_independent_of_snr_order(self):
        # A sweep's SNRs share one lattice, so a node may be computed by any
        # of them; every value must equal the law's value when made alone.
        sweeps = ([[fig2_params(alpha, snr_db) for snr_db in FIG2_SNR_DB] for alpha in FIG2_ALPHAS]
                  + [[fig4_params(*law, snr_db) for snr_db in FIG4_SNR_DB] for law in FIG4_SETS])

        def alone(pars, call):
            derived_constants.cache_clear()
            return call(pars)

        want = {(pars, name): alone(pars, call)
                for sweep in sweeps for pars in sweep for name, call in self.CALLS}
        for direction in (1, -1):
            derived_constants.cache_clear()
            got = {(pars, name): call(pars)
                   for sweep in sweeps for pars in sweep[::direction] for name, call in self.CALLS}
            assert got == want

    def test_threads_share_a_lattice(self):
        # Four threads on two cores, switching every microsecond, each at its
        # own gamma_bar, share each law's lattice: a torn (lo, values) pair
        # would move a value.
        laws = [ChannelParams(*law["law"])
                for law in json.loads(DOMAIN_REFERENCE.read_text())["laws"][:12]]
        derived_constants.cache_clear()
        calls = [call for _, call in self.CALLS + self.CALLS[:1]]
        sweeps = [[replace(pars, gamma_bar=pars.gamma_bar * 10.0 ** (i - 1)) for pars in laws]
                  for i in range(len(calls))]
        want = [[call(pars) for pars in sweep] for call, sweep in zip(calls, sweeps)]
        got = [None] * len(calls)

        def run(i):
            got[i] = [calls[i](pars) for pars in sweeps[i]]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            derived_constants.cache_clear()
            threads = [threading.Thread(target=run, args=(i,)) for i in range(len(calls))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert got == want

    def test_cache_clear_frees_the_lattice(self):
        pars = ChannelParams(1.5, 2.0, 1.0, 0.5, 2.5, 100.0)
        mt.aber_mixture(pars, QAM16)
        lattice = weakref.ref(derived_constants(pars).density_lattice)
        assert lattice() is not None
        derived_constants.cache_clear()
        assert lattice() is None

    def test_raise_at_the_level_cap_keeps_level_zero_only(self):
        # A step in h leaves the trapezoid an O(step) error, so its levels
        # never agree to 1e-12: the call raises after 12 levels, and the
        # lattice keeps no refinement level of it.
        pars = ChannelParams(1.5, 2.0, 1.0, 0.5, 2.5, 100.0)
        derived_constants.cache_clear()
        capacity = mt.capacity_mixture(pars).value
        lattice = derived_constants(pars).density_lattice
        assert len(lattice._levels) > 1
        step_at = math.log(pars.gamma_bar)
        with pytest.raises(sf.ConvergenceError, match="did not agree"):
            mt._mixture_expectation(pars, lambda log_g: (log_g > step_at).astype(float))
        assert set(lattice._levels) == {0}
        assert lattice._levels[0][1].size <= 2 * 10_700  # level 0 lies in t in (-1e4, 700)
        assert mt.capacity_mixture(pars).value == capacity


DOMAIN_POWERS = (db(-3.0), db(3.0))


def log_mean_snr(pars, count):
    """log mu_k = log E[gamma | K = k] = log(gamma_bar C^(2/alpha) Gamma(m_x+k+s) / Gamma(m_x+k)),
    s = 2/alpha, for k < count."""
    x = pars.m_x + np.arange(count)
    s = 2.0 / pars.alpha
    return (math.log(pars.gamma_bar) + s * math.log(derived_constants(pars).c_alpha)
            + gammaln(x + s) - gammaln(x))


class TestKSeriesGate:
    """Jensen's floor Q(sqrt(2 d2 mu_k)), over the conditional mean mu_k, lies
    under each term E_k of the paper's ABER k-series."""

    # Laws whose weight tables pass 64 entries (the first) and end sooner;
    # the ids are those the tests had beside their capacity cases.
    @pytest.mark.parametrize("pars", [
        pytest.param(ChannelParams(1.2, 1.2, *DOMAIN_POWERS, 2.0, db(-10.0)), id="aber-pars1"),
        pytest.param(fig2_params(2.0, 20.0), id="aber-pars3"),
        pytest.param(ChannelParams(2.5, 2.5, *DOMAIN_POWERS, 0.8, db(30.0)), id="aber-pars4"),
    ])
    def test_bound_is_sound(self, pars):
        # Every term of the paper's series, from its G terms, is at least
        # Jensen's floor over the conditional mean mu_k.
        dc = derived_constants(pars)
        k_max = min(dc.nb_weights.size, 64)
        log_mu = log_mean_snr(pars, k_max)
        for d2 in QAM16.delta2:
            e_term = mt._aber_e_term(pars, dc, d2)
            for k in range(k_max):
                floor = 0.5 * math.erfc(math.sqrt(d2 * math.exp(log_mu[k])))
                assert floor <= e_term(k) * (1.0 + 1e-9)

    @pytest.mark.parametrize("alpha", [2.0, 2.5])
    def test_aber_floor_is_jensen_over_the_conditional_expectation(self, alpha):
        # The profile's E_k from the paper's G term k is E[Q(sqrt(2 d2 gamma)) | K = k],
        # here by QUADPACK over the Gamma(m_x + k) law of u. Q(sqrt(2 d2 gamma))
        # is convex in gamma, so by Jensen E_k >= Q(sqrt(2 d2 mu_k)), with the
        # conditional mean mu_k.
        from scipy import integrate

        pars = ChannelParams(0.5, 0.5, *DOMAIN_POWERS, alpha, 10.0)
        dc = derived_constants(pars)
        d2 = QAM16.delta2[0]
        s = 2.0 / alpha
        snr_scale = pars.gamma_bar * dc.c_alpha ** s
        log_mu = log_mean_snr(pars, 11)
        for k in (0, 3, 10):
            shape = pars.m_x + k

            def integrand(t):
                return (0.5 * math.erfc(math.sqrt(d2 * snr_scale * math.exp(s * t)))
                        * math.exp(shape * t - math.exp(t) - math.lgamma(shape)))

            e_k = integrate.quad(integrand, -60.0, 6.0, epsabs=0.0, epsrel=1e-12, limit=200)[0]
            assert mt._aber_e_term(pars, dc, d2)(k) == pytest.approx(e_k, rel=1e-11)
            assert e_k >= 0.5 * math.erfc(math.sqrt(d2 * math.exp(log_mu[k])))


class TestCapacityAsymptotic:
    def test_nakagami_closed_form(self):
        # no LoS at alpha=2: log2(gbar) + (psi(m) - ln m)/ln 2
        from scipy.special import digamma as sp_digamma
        m, gbar = 1.8, db(40.0)
        pars = nakagami(m=m, gamma_bar=gbar)
        want = math.log2(gbar) + (float(sp_digamma(m)) - math.log(m)) / math.log(2.0)
        assert mt.capacity_asymptotic(pars) == pytest.approx(want, rel=1e-12)

    def test_gap_shrinks_with_snr(self):
        gaps = []
        for snr_db in (20.0, 30.0, 40.0, 50.0, 60.0):
            pars = fig2_params(2.0, snr_db)
            gaps.append(mt.capacity_exact(pars).value - mt.capacity_asymptotic(pars))
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_below_awgn_ceiling(self):
        pars = fig2_params(3.0, 50.0)
        assert mt.capacity_asymptotic(pars) < math.log2(1.0 + pars.gamma_bar)
