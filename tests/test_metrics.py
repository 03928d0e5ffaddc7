import itertools
import json
import math
import os
import pathlib
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, strategies as st
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

    def test_cdf_rayleigh(self):
        pars = rayleigh(gamma_bar=db(10.0))
        assert mt.cdf_quadrature(pars, 0.0) == 0.0
        for g in (0.01, 1.0, 10.0, 100.0):
            assert mt.cdf_quadrature(pars, g) == pytest.approx(
                -math.expm1(-g / pars.gamma_bar), rel=1e-10)


class TestAberExact:
    def test_rayleigh(self):
        pars = rayleigh(gamma_bar=10.0)
        got = mt.aber_exact(pars, BPSK)
        assert got.path == "meijer-g"
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
        assert got.path == "meijer-g"
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
        # a residue of one G term overflows to +-inf; the Slater sum used to
        # leak "ValueError: -inf + inf in fsum" here. mpmath reference value.
        got = mt.aber_exact(fig3_params(0.5, 0.5, 1.0, snr_db=-10.0), QAM16)
        assert got.path == "meijer-g"
        assert got.value == pytest.approx(0.6602567351595884, rel=1e-6)

    # Fig-3 rows (20 dB, powers -3 / +3 dB), mpmath references at 40 digits.
    # At alpha 2.5 and 3.75 most G terms fail the Slater series' cancellation
    # gates and evaluate on the contour.
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
        assert got.path == "meijer-g"
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
        assert got.path == "meijer-g"
        assert got.value == pytest.approx(2.015024060343589e-23, rel=1e-12, abs=0.0)

    def test_truncation_profile_converges(self):
        pars = fig2_params(2.0, 20.0)
        prof = mt.aber_exact_truncation_profile(pars, QAM16, k_max=12)
        full = mt.aber_exact(pars, QAM16).value
        assert prof[-1] == pytest.approx(full, rel=1e-6)
        assert abs(prof[6] - full) / full < 1e-5  # 5-digit accuracy within 7 terms


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


class TestCapacityExact:
    def test_rayleigh(self):
        pars = rayleigh(gamma_bar=10.0)
        got = mt.capacity_exact(pars)
        assert got.path == "meijer-g"
        assert got.value == pytest.approx(rayleigh_capacity(10.0), rel=1e-8)

    @pytest.mark.parametrize("alpha", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("snr_db", [0.0, 20.0, 40.0])
    def test_matches_oracle(self, alpha, snr_db):
        pars = fig2_params(alpha, snr_db)
        got = mt.capacity_exact(pars)
        assert got.path == "meijer-g"
        assert got.value == pytest.approx(mt.capacity_quadrature(pars), rel=1e-5)

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
        # At beta_bar ~ 0.95 the Meijer k-series outgrows its 64 terms and the
        # mixture takes over. mpmath reference.
        got = mt.capacity_exact(fig3_params(2.5, 0.5, 0.8, snr_db=60.0))
        assert got.path == "series-quadrature"
        assert got.value == pytest.approx(15.643722826061696, rel=1e-6)

    def test_gated_law_runs_no_contour(self, monkeypatch):
        # At beta_bar ~ 0.95 no run of three k < 64 has NB_k / F_k <= 1e-7, so
        # the k-series cannot stop and is not started.
        pars = fig3_params(2.5, 0.5, 0.8, snr_db=60.0)
        nb = _nb_head(derived_constants(pars).nb_weights)
        low = mt._ratio_floor(nb, -1, 0.0, mt._capacity_floor(-1, 0.0))
        assert not mt._series_can_stop(low, 0)

        def forbidden(*args, **kwargs):
            pytest.fail("the gated capacity ran a Mellin-Barnes contour")

        monkeypatch.setattr(sf, "_meijer_contour", forbidden)
        assert mt.capacity_exact(pars).path == "series-quadrature"

    def test_gate_changes_no_bit(self, monkeypatch):
        # On every domain law the gated capacity returns what the k-series
        # run without the gate returns: the same sum, or, where the gate cuts
        # it, the same fallback after the 64-term cap.
        laws = [ChannelParams(*law["law"])
                for law in json.loads(DOMAIN_REFERENCE.read_text())["laws"]]
        got = [mt.capacity_exact(pars) for pars in laws]
        monkeypatch.setattr(mt, "_series_can_stop", lambda low, streak: True)
        assert [mt.capacity_exact(pars) for pars in laws] == got

    def test_gate_never_fires_on_fig4_grid(self):
        # Every fig-4 k-series converges, so the gate lets each one run.
        for m_x, m_y, alpha in FIG4_SETS:
            for snr_db in FIG4_SNR_DB:
                assert mt.capacity_exact(fig4_params(m_x, m_y, alpha, snr_db)).path == "meijer-g"

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
    """The mixture raises where its weight table leaves out the capacity."""

    @pytest.mark.parametrize("law, want", SMALL_ALPHA_CAPACITY)
    def test_mixture_and_exact_raise(self, law, want):
        pars = ChannelParams(*law)
        with pytest.raises(sf.ConvergenceError):
            mt.capacity_mixture(pars)
        with pytest.raises(sf.ConvergenceError):
            mt.capacity_exact(pars)

    @pytest.mark.parametrize("law, want", SMALL_ALPHA_CAPACITY)
    def test_quadrature_matches_mpmath(self, law, want):
        assert mt.capacity_quadrature(ChannelParams(*law)) == pytest.approx(want, rel=1e-10)


def _nb_head(weights):
    """The NB weights a k-series reads: the table's first 64, 0 past its end."""
    head = weights[:mt._K_MAX_TERMS]
    return np.concatenate((head, np.zeros(mt._K_MAX_TERMS - head.size)))


def _series_terms(monkeypatch, run):
    """[(nb, terms, E terms, e_floor)] of every k-series ``run`` starts.

    Every term up to the 64th or the table's end is evaluated; past that end
    the terms are zero.
    """
    captured = []
    real = mt._k_series

    def spy(weights, e_term, e_floor):
        captured.append((weights, e_term, e_floor))
        return real(weights, e_term, e_floor)

    monkeypatch.setattr(mt, "_k_series", spy)
    run()
    monkeypatch.undo()
    series = []
    for weights, e_term, e_floor in captured:
        nb = _nb_head(weights)
        es = [e_term(k) for k in range(min(weights.size, mt._K_MAX_TERMS))]
        series.append((nb, [w * e for w, e in zip(nb, es)], es, e_floor))
    return series


DOMAIN_POWERS = (db(-3.0), db(3.0))


class TestKSeriesGate:
    """The bound that stops a Meijer k-series which cannot meet its stopping rule."""

    # Series that run to the 64-term cap (the first two) and that converge.
    @pytest.mark.parametrize("metric, pars", [
        ("capacity", ChannelParams(0.5, 0.5, *DOMAIN_POWERS, 1.0, db(-10.0))),
        ("aber", ChannelParams(1.2, 1.2, *DOMAIN_POWERS, 2.0, db(-10.0))),
        ("capacity", fig4_params(2.5, 2.5, 3.0, 20.0)),
        ("aber", fig2_params(2.0, 20.0)),
        ("aber", ChannelParams(2.5, 2.5, *DOMAIN_POWERS, 0.8, db(30.0))),
    ])
    def test_bound_is_sound(self, monkeypatch, metric, pars):
        # For every k < j < 64 the bound on term j over the partial sum S_j,
        # known after term k (k = -1: before the first term), is at most the
        # ratio the terms give (trivially, 0, past the table's end).
        run = ((lambda: mt.capacity_exact(pars)) if metric == "capacity"
               else (lambda: mt.aber_exact(pars, QAM16)))
        series = _series_terms(monkeypatch, run)
        assert series
        for nb, terms, es, e_floor in series:
            assert all(t > 0.0 for t in terms)
            partial = list(itertools.accumulate(terms))
            ratio = [t / total for t, total in zip(terms, partial)]
            for k in range(-1, len(terms) - 1):
                head = 0.0 if k < 0 else partial[k] / es[k]
                low = mt._ratio_floor(nb, k, head, e_floor(k, es[k] if k >= 0 else 0.0))
                assert len(low) == mt._K_MAX_TERMS - 1 - k
                assert all(lo <= r * (1.0 + 1e-9) for lo, r in zip(low, ratio[k + 1:]))
                # The scalar shortcut only ever says what the full bound says.
                if mt._tail_can_stop(nb, np.cumsum(nb).tolist(), k, head):
                    assert mt._series_can_stop(low, 0)

    @pytest.mark.parametrize("alpha", [2.0, 2.5])
    def test_aber_floor_is_jensen_over_the_conditional_expectation(self, alpha):
        # floor_j = min(1, Q(sqrt(2 d2 mu_j)) / E_k), with E_k taken from the G
        # term by _aber_e_term; here E_k = E[Q(sqrt(2 d2 gamma)) | K = k] comes from QUADPACK
        # over the Gamma(m_x + k) law of u and mu_j from the gamma function.
        from scipy import integrate
        from scipy.special import erfc, gammaln

        pars = ChannelParams(0.5, 0.5, *DOMAIN_POWERS, alpha, 10.0)
        dc = derived_constants(pars)
        d2 = QAM16.delta2[0]
        s = 2.0 / alpha
        snr_scale = pars.gamma_bar * dc.c_alpha ** s
        j = pars.m_x + np.arange(mt._K_MAX_TERMS)
        jensen = 0.5 * erfc(np.sqrt(d2 * snr_scale * np.exp(gammaln(j + s) - gammaln(j))))
        floor = mt._aber_floor(pars, dc, d2)
        for k in (0, 3, 10):
            shape = pars.m_x + k

            def integrand(t):
                return (0.5 * math.erfc(math.sqrt(d2 * snr_scale * math.exp(s * t)))
                        * math.exp(shape * t - math.exp(t) - math.lgamma(shape)))

            e_k = integrate.quad(integrand, -60.0, 6.0, epsabs=0.0, epsrel=1e-12, limit=200)[0]
            got = floor(k, mt._aber_e_term(pars, dc, d2)(k))
            assert got == pytest.approx(np.minimum(1.0, jensen / e_k), rel=1e-9)
        assert floor(-1, 0.0) == pytest.approx(2.0 * jensen, rel=1e-12)

    def test_capacity_bound_before_the_first_term_is_the_weight_share(self):
        # With nothing summed yet, term j over the partial sum is at least
        # NB_j / (NB_0 + ... + NB_j).
        pars = fig3_params(2.5, 0.5, 0.8, snr_db=60.0)
        nb = _nb_head(derived_constants(pars).nb_weights)
        low = mt._ratio_floor(nb, -1, 0.0, mt._capacity_floor(-1, 0.0))
        assert low == pytest.approx(nb / list(itertools.accumulate(nb)), rel=1e-14)

    def test_running_streak_counts(self):
        # Two terms already meet the rule and the next can: the series can stop.
        blocked = np.full(10, 1.0)
        free_next = np.concatenate(([0.0], blocked[1:]))
        assert not mt._series_can_stop(blocked, 2)
        assert not mt._series_can_stop(free_next, 1)
        assert mt._series_can_stop(free_next, 2)
        assert mt._series_can_stop(np.concatenate((blocked, np.zeros(3))), 0)
        assert mt._series_can_stop(np.full(3, np.nan), 0)

    def test_aber_gate_changes_no_bit(self, monkeypatch):
        # aber_exact returns the same value, path and term count with the
        # gate as with the gate patched to always let the series run, on the
        # domain laws and the fig-2 grid.
        laws = [ChannelParams(*law["law"])
                for law in json.loads(DOMAIN_REFERENCE.read_text())["laws"]]
        laws += [fig2_params(alpha, snr_db) for alpha in FIG2_ALPHAS for snr_db in FIG2_SNR_DB]
        got = [mt.aber_exact(pars, QAM16) for pars in laws]
        assert any(r.path == "series-quadrature" for r in got)
        monkeypatch.setattr(mt, "_series_can_stop", lambda low, streak: True)
        assert [mt.aber_exact(pars, QAM16) for pars in laws] == got

    def test_gate_fires(self, monkeypatch):
        # Series that would run to the 64-term cap evaluate few G terms.
        calls = []
        real_contour, real_g = sf._meijer_contour, sf.meijer_g
        monkeypatch.setattr(sf, "_meijer_contour",
                            lambda *a: calls.append("contour") or real_contour(*a))
        monkeypatch.setattr(sf, "meijer_g", lambda *a: calls.append("g") or real_g(*a))
        got = mt.capacity_exact(ChannelParams(0.5, 0.5, *DOMAIN_POWERS, 1.0, db(-10.0)))
        assert got.path == "series-quadrature"
        assert len(calls) <= 16
        calls.clear()
        got = mt.aber_exact(ChannelParams(1.2, 1.2, *DOMAIN_POWERS, 2.0, db(-10.0)), QAM16)
        assert got.path == "series-quadrature"
        assert len(calls) <= 16


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
