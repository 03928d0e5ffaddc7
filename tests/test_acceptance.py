"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <n> <name>: PASS/FAIL` line (run pytest with
-s to see them inline). Tolerances are pinned here, not configurable.
"""

import math
import time

import numpy as np
from scipy import integrate

from abxs import channel as ch
from abxs import metrics as mt
from abxs import montecarlo as mc
from abxs.channel import ChannelParams
from oracles import (nakagami_bpsk_aber, rayleigh_bpsk_aber, rayleigh_capacity)
from paramsets import (FIG2_ALPHAS, FIG2_SNR_DB, FIG3_SETS, FIG4_SETS,
                       FIG4_SNR_DB, db, fig2_params, fig3_params, fig4_params,
                       grid72, nakagami, rayleigh)

QAM16 = mt.modulation_coeffs("mqam", 16)
BPSK = mt.modulation_coeffs("bpsk")


def report(n: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {n} {name}: {verdict}{suffix}")


def test_01_normalization_and_mean():
    t0 = time.perf_counter()
    worst_norm = 0.0
    worst_mean = 0.0
    for pars in grid72():
        norm = mt._snr_integral(pars, lambda log_g: 1.0)
        mean = mt._snr_integral(pars, math.exp)
        worst_norm = max(worst_norm, abs(norm - 1.0))
        worst_mean = max(worst_mean, abs(mean / pars.gamma_bar - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst_norm <= 1e-8 and worst_mean <= 1e-6 and elapsed < 120.0
    report(1, "normalization-and-mean", ok,
           f"|int f - 1| <= {worst_norm:.2e}, mean rel <= {worst_mean:.2e}, {elapsed:.1f}s")
    assert worst_norm <= 1e-8
    assert worst_mean <= 1e-6
    assert elapsed < 120.0


def test_02_alpha2_reduction():
    pars = ChannelParams(m_x=1.6, m_y=1.5, omega_x=db(2.0), omega_y=db(2.0),
                         alpha=2.0, gamma_bar=db(3.0))
    dc = ch.derived_constants(pars)
    kappa = dc.c_alpha * pars.m_x / pars.omega_x
    worst_pdf = 0.0
    worst_cdf = 0.0
    for ratio in np.logspace(-3, 3, 19):
        g = ratio * pars.gamma_bar
        w = g / (pars.gamma_bar * kappa)
        # density transformed directly from the baseline envelope law
        want_pdf = ch.bxs_power_pdf(pars, w) / (pars.gamma_bar * kappa)
        got_pdf = ch.snr_pdf(pars, g)
        scale = max(1.0, abs(want_pdf))
        worst_pdf = max(worst_pdf, abs(got_pdf - want_pdf) / scale)
        want_cdf, _ = integrate.quad(lambda r: ch.bxs_envelope_pdf(pars, r),
                                     0.0, math.sqrt(w),
                                     epsabs=1e-13, epsrel=1e-12, limit=300)
        worst_cdf = max(worst_cdf, abs(ch.snr_cdf(pars, g) - want_cdf))
    ok = worst_pdf <= 1e-10 and worst_cdf <= 1e-10
    report(2, "alpha2-reduction", ok,
           f"pdf <= {worst_pdf:.2e}, cdf <= {worst_cdf:.2e}")
    assert worst_pdf <= 1e-10
    assert worst_cdf <= 1e-10


def test_03_known_model_reductions():
    gbar = db(12.0)
    ray = rayleigh(gamma_bar=gbar)
    nak = nakagami(m=2.0, gamma_bar=gbar)
    errs = {}
    for g in (0.3, 1.0, gbar, 4.0 * gbar):
        errs["ray pdf"] = max(errs.get("ray pdf", 0.0), abs(
            ch.snr_pdf(ray, g) - math.exp(-g / gbar) / gbar))
        errs["ray cdf"] = max(errs.get("ray cdf", 0.0), abs(
            ch.snr_cdf(ray, g) - (1.0 - math.exp(-g / gbar))))
        nk_pdf = ((2.0 / gbar) ** 2.0 * g * math.exp(-2.0 * g / gbar))
        errs["nak pdf"] = max(errs.get("nak pdf", 0.0), abs(ch.snr_pdf(nak, g) - nk_pdf))
        from scipy.special import gammainc
        errs["nak cdf"] = max(errs.get("nak cdf", 0.0), abs(
            ch.snr_cdf(nak, g) - float(gammainc(2.0, 2.0 * g / gbar))))
    errs["ray aber"] = abs(mt.aber_exact(ray, BPSK).value - rayleigh_bpsk_aber(gbar))
    errs["nak aber"] = abs(mt.aber_exact(nak, BPSK).value - nakagami_bpsk_aber(2.0, gbar))
    errs["ray cap"] = abs(mt.capacity_exact(ray).value - rayleigh_capacity(gbar))
    from scipy import stats
    want_nak_cap, _ = integrate.quad(
        lambda g: math.log2(1.0 + g) * stats.gamma.pdf(g, a=2.0, scale=gbar / 2.0),
        0.0, math.inf, epsabs=1e-12, epsrel=1e-11, limit=300)
    errs["nak cap"] = abs(mt.capacity_exact(nak).value - want_nak_cap)
    worst = max(errs.values())
    ok = worst <= 1e-8
    report(3, "known-model-reductions", ok,
           ", ".join(f"{k}={v:.1e}" for k, v in errs.items()))
    assert worst <= 1e-8


def _fig2_grid():
    for alpha in FIG2_ALPHAS:
        for snr_db in FIG2_SNR_DB:
            yield fig2_params(alpha, snr_db)


def _fig4_grid():
    for m_x, m_y, alpha in FIG4_SETS:
        for snr_db in FIG4_SNR_DB:
            yield fig4_params(m_x, m_y, alpha, snr_db)


def _closed_form(profile: list) -> float:
    """The paper's k-series: a profile's last partial sum, once its last
    increment is below 1e-10 of the sum."""
    assert abs(profile[-1] - profile[-2]) <= 1e-10 * profile[-1]
    return profile[-1]


def test_04_closed_form_vs_oracle():
    # The paper's Meijer-G series: 40 terms (fig 2) and 48 terms (fig 4),
    # where each profile's last increment is below 1e-10 of its sum (at
    # most 4.6e-13 and 2.4e-12; the tables hold 48 and 44-54 weights).
    worst_aber = 0.0
    for pars in _fig2_grid():
        want = mt.aber_quadrature(pars, QAM16).value
        got = _closed_form(mt.aber_exact_truncation_profile(pars, QAM16, k_max=40))
        worst_aber = max(worst_aber, abs(got - want) / want)
    worst_cap = 0.0
    for pars in _fig4_grid():
        want = mt.capacity_quadrature(pars)
        got = _closed_form(mt.capacity_exact_truncation_profile(pars, k_max=48))
        worst_cap = max(worst_cap, abs(got - want) / want)
    ok = worst_aber <= 1e-5 and worst_cap <= 1e-5
    report(4, "closed-form-vs-oracle", ok,
           f"aber rel <= {worst_aber:.2e}, capacity rel <= {worst_cap:.2e}")
    assert worst_aber <= 1e-5
    assert worst_cap <= 1e-5


def test_05_truncation_within_seven_terms():
    # Criterion as stated: <= 7 terms for 5-digit accuracy at every grid
    # point of the 0..40 dB sweep. Below ~15 dB the series objectively needs
    # more (verified against an independent evaluation of the same terms), so
    # this criterion fails honestly at the low-SNR points; see the decisions
    # ledger for the analysis. The claim does hold from 15 dB upward.
    needed_by_snr = {}
    for alpha in FIG2_ALPHAS:
        for snr_db in FIG2_SNR_DB:
            pars = fig2_params(alpha, snr_db)
            # 40 terms is the reference (the k-series needs at most 35 for
            # 1e-10 on this grid); the first 24 partial sums are the profile.
            profile = mt.aber_exact_truncation_profile(pars, QAM16, k_max=40)
            full = profile[-1]
            needed = next((k + 1 for k, v in enumerate(profile[:24])
                           if abs(v - full) / full <= 1e-5), None)
            assert needed is not None, f"no 5-digit truncation within 24 terms: {pars}"
            needed_by_snr[snr_db] = max(needed_by_snr.get(snr_db, 0), needed)
    worst_terms = max(needed_by_snr.values())
    ok = worst_terms <= 7
    detail = ", ".join(f"{s:g}dB:{n}" for s, n in sorted(needed_by_snr.items()))
    report(5, "series-truncation", ok, f"terms for 5 digits by mean SNR: {detail}")
    assert worst_terms <= 7, (
        "the <= 7 term claim holds only from 15 dB up; at 0-10 dB the series "
        f"needs up to {worst_terms} terms (independently confirmed)")


def test_06_monte_carlo_agreement():
    t0 = time.perf_counter()
    worst_z_aber = 0.0
    for i, pars in enumerate(_fig2_grid()):
        est, se = mc.mc_aber(pars, QAM16,
                             mc.SimulationConfig(seed=1600 + i, trials=10 ** 6))
        z = abs(est - mt.aber_exact(pars, QAM16).value) / se
        worst_z_aber = max(worst_z_aber, z)
    worst_z_cap = 0.0
    for i, pars in enumerate(_fig4_grid()):
        est, se = mc.mc_capacity(pars, mc.SimulationConfig(seed=2700 + i,
                                                           trials=10 ** 6))
        z = abs(est - mt.capacity_exact(pars).value) / se
        worst_z_cap = max(worst_z_cap, z)
    # KS per distinct channel-law combo (mean SNR is a pure scale factor)
    ks_ok = True
    combos = [fig2_params(a, 10.0) for a in FIG2_ALPHAS]
    combos += [fig4_params(m_x, m_y, a, 10.0) for m_x, m_y, a in FIG4_SETS]
    for i, pars in enumerate(combos):
        g = mc.snr_samples(pars, mc.SimulationConfig(seed=800 + i, trials=10 ** 6))
        d = mc.ks_statistic(g, mc.snr_cdf_fn(pars))
        ks_ok = ks_ok and d < mc.ks_critical_1pct(g.size)
    elapsed = time.perf_counter() - t0
    ok = worst_z_aber < 3.0 and worst_z_cap < 3.0 and ks_ok and elapsed < 300.0
    report(6, "monte-carlo-agreement", ok,
           f"max |z| aber {worst_z_aber:.2f}, capacity {worst_z_cap:.2f}, "
           f"KS {'ok' if ks_ok else 'FAILED'}, {elapsed:.0f}s")
    assert worst_z_aber < 3.0
    assert worst_z_cap < 3.0
    assert ks_ok
    assert elapsed < 300.0


def test_07_asymptotics():
    # The nonlinearity exponent is the swept axis of the scenario-3 study, so
    # the "parameter sets" are the four fading/shadowing corners; the
    # asymptote legs run over alpha in {2, 3, 4}. EPS absorbs the ~1e-7
    # relative accuracy of the exact route where the two laws have already
    # merged. The (0.5, 2.5) corner genuinely violates the upper-bound claim
    # (the asymptote approaches from below whenever 1.5 m_y > 2 m_x at these
    # powers); see the decisions ledger.
    eps = 5e-6
    alphas = (2.0, 3.0, 4.0)
    ratio_bad = []
    bound_bad = []
    slope_bad = []
    for m_x, m_y in FIG3_SETS:
        for alpha in alphas:
            exact60 = mt.aber_exact(fig3_params(m_x, m_y, alpha, 60.0), QAM16).value
            asym60 = mt.aber_asymptotic(fig3_params(m_x, m_y, alpha, 60.0), QAM16).value
            r = asym60 / exact60
            if not (1.0 - eps <= r <= 1.02):
                ratio_bad.append(f"({m_x},{m_y},a={alpha:g}) r={r:.6f}")
            for snr_db in (30.0, 40.0, 50.0, 60.0):
                pars = fig3_params(m_x, m_y, alpha, snr_db)
                a_v = mt.aber_asymptotic(pars, QAM16).value
                e_v = mt.aber_exact(pars, QAM16).value
                if a_v < e_v * (1.0 - eps):
                    bound_bad.append(f"({m_x},{m_y},a={alpha:g},{snr_db:g}dB) "
                                     f"gap={a_v / e_v - 1.0:+.1e}")
            # (b) fitted log-log slope equals the diversity order within 2%
            snrs = [40.0, 45.0, 50.0, 55.0, 60.0]
            xs = [math.log(db(s)) for s in snrs]
            ys = [math.log(mt.aber_exact(fig3_params(m_x, m_y, alpha, s), QAM16).value)
                  for s in snrs]
            n = len(xs)
            mx_ = sum(xs) / n
            my_ = sum(ys) / n
            slope = (sum((x - mx_) * (y - my_) for x, y in zip(xs, ys))
                     / sum((x - mx_) ** 2 for x in xs))
            want = mt.diversity_order(fig3_params(m_x, m_y, alpha, 40.0))
            if abs(-slope - want) / want > 0.02:
                slope_bad.append(f"({m_x},{m_y},a={alpha:g})")
    # (c) the capacity gap closes monotonically
    gap_ok = True
    for m_x, m_y, alpha in FIG4_SETS:
        gaps = []
        for snr_db in (20.0, 30.0, 40.0, 50.0, 60.0):
            pars = fig4_params(m_x, m_y, alpha, snr_db)
            gaps.append(abs(mt.capacity_exact(pars).value
                            - mt.capacity_asymptotic(pars)))
        gap_ok = gap_ok and all(b < a for a, b in zip(gaps, gaps[1:]))
    ok = not ratio_bad and not bound_bad and not slope_bad and gap_ok
    report(7, "asymptotics", ok,
           f"ratio {'ok' if not ratio_bad else 'FAIL ' + '; '.join(ratio_bad)}, "
           f"bound {'ok' if not bound_bad else 'FAIL ' + '; '.join(bound_bad[:4])}, "
           f"slope {'ok' if not slope_bad else 'FAIL ' + '; '.join(slope_bad)}, "
           f"gap {'ok' if gap_ok else 'FAIL'}")
    assert not ratio_bad, ratio_bad
    assert not bound_bad, bound_bad
    assert not slope_bad, slope_bad
    assert gap_ok


def test_08_nonlinearity_and_sensitivity():
    # ABER strictly decreasing in the nonlinearity exponent
    mono_ok = True
    for m_x, m_y in FIG3_SETS:
        vals = [mt.aber_exact(fig3_params(m_x, m_y, a), QAM16).value
                for a in (1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)]
        mono_ok = mono_ok and all(b < a for a, b in zip(vals, vals[1:]))
    # doubling the overall-fading severity moves ABER more than doubling
    # the shadowing severity
    sens_ok = True
    for alpha in (1.0, 2.0, 3.0):
        base = math.log(mt.aber_exact(fig3_params(1.0, 1.0, alpha), QAM16).value)
        move_mx = abs(math.log(mt.aber_exact(fig3_params(2.0, 1.0, alpha),
                                             QAM16).value) - base)
        move_my = abs(math.log(mt.aber_exact(fig3_params(1.0, 2.0, alpha),
                                             QAM16).value) - base)
        sens_ok = sens_ok and move_mx > move_my
    ok = mono_ok and sens_ok
    report(8, "nonlinearity-and-sensitivity", ok,
           f"monotone {'ok' if mono_ok else 'FAIL'}, "
           f"sensitivity {'ok' if sens_ok else 'FAIL'}")
    assert mono_ok and sens_ok
