#!/usr/bin/env python3
"""Print the exact metrics' (value, path, terms) and the densities on the documented law sets.

One line per call: law set and index, metric, ``value.hex()``, ``path`` and
``terms_used`` (or the exception's name). The calls are ``aber_exact``
(QAM-16 and BPSK) and ``capacity_exact`` on the benchmark's 67 ``domain``
laws, on the fig-2, fig-3 (alpha 1:0.25:4), fig-4 and 72-point grid laws,
on the four small-alpha laws whose capacity lies in NB terms far past the
mean, on ``LOW_SNR`` and on the ``LONG_TABLES`` laws, whose NB mass centres
far from k = 0 and gives the mixture density its widest windows. Then, on each ``domain`` law, on
``PINNED`` and on ``LARGE_B``, one line each for ``c_alpha`` and for
``snr_pdf``, ``snr_cdf_phi2`` and ``bxs_envelope_pdf`` at gamma/gamma_bar
in ``RATIOS``: the value's hex or the exception's name. ``LARGE_B`` adds
``snr_pdf`` at ``LARGE_B_RATIOS``. Then, on each ``domain`` law, on
``PINNED`` and on ``LONG_TABLES``, one line each for ``snr_cdf`` and
``snr_ccdf`` at gamma/gamma_bar in ``RATIOS`` and at 20, where the ccdf's
upper tail lies in NB weights far past the cdf's table, so a change to the
weight table or to the ccdf shows. Then one line per truncation profile of
the paper's Meijer-G k-series, its partial sums' hex (or the exception's
name): ``aber_exact_truncation_profile`` for QAM-16 at k_max 40 on the fig-2
and fig-3 laws, and ``capacity_exact_truncation_profile`` at k_max 48 on the
fig-4 laws. The last two lines give the number of mixture density nodes the
run evaluated, counted by a spy on ``channel._mixture_density``, and the
NB rows times nodes its windows summed, counted by a spy on
``channel._window_sum``.
The envelope density is taken at r^2 = (gamma/gamma_bar)(omega_x + omega_y),
the ratio times the baseline mean power. The exact metrics are the mixture
expectations, so only the truncation profiles reach a Meijer G term.

Comparing two versions of the code is one ``diff`` of this script's output
run on each checkout:

    python3 scripts/route_fingerprint.py > after.txt
"""

import math
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

from abxs import channel, metrics  # noqa: E402
from abxs.channel import (ChannelParams, bxs_envelope_pdf, derived_constants,  # noqa: E402
                          snr_ccdf, snr_cdf, snr_cdf_phi2, snr_pdf)
from paramsets import (FIG2_ALPHAS, FIG2_SNR_DB, FIG3_SETS, FIG4_SETS,  # noqa: E402
                       FIG4_SNR_DB, SMALL_ALPHA_LAWS, fig2_params, fig3_params,
                       fig4_params, grid72)
from workloads import domain_laws  # noqa: E402

FIG3_ALPHAS = tuple(1.0 + 0.25 * i for i in range(13))
# A law whose pdf needs the large-x 1F1 expansion below x = 650, where the
# power series overflows (m_y = 41.3, beta_bar u from about 550).
PINNED = ChannelParams(0.152354, 41.2887, 1, 4452.53, 3.56718, 1002.9)
RATIOS = (0.01, 0.1, 1.0, 3.0, 10.0)
# A law at -50 dB whose NB weights centre past k = 10^4 (37,600 of them).
LOW_SNR = ChannelParams(1, 20, 1, 9980, 2, 1e-5)
# beta_bar = 0.995 and 0.998: 6,432 and 16,102 NB weights.
LONG_TABLES = (ChannelParams(1, 1, 1, 199, 2.2, 10), ChannelParams(1, 1, 1, 499, 2.2, 10))
# A law whose pdf needs 1F1(70; 300; x) past x = 650 with x < 6b, where the
# large-x expansion is refused: beta_bar u = 729 and 972 at LARGE_B_RATIOS.
LARGE_B = ChannelParams(300, 70, 1, 1, 2, 10)
LARGE_B_RATIOS = (1.5, 2.0)


def law_sets():
    yield "domain", [ChannelParams(*law) for law in domain_laws()]
    yield "fig2", [fig2_params(a, s) for a in FIG2_ALPHAS for s in FIG2_SNR_DB]
    yield "fig3", [fig3_params(m_x, m_y, a) for m_x, m_y in FIG3_SETS for a in FIG3_ALPHAS]
    yield "fig4", [fig4_params(m_x, m_y, a, s) for m_x, m_y, a in FIG4_SETS
                   for s in FIG4_SNR_DB]
    yield "grid72", list(grid72())
    yield "smallalpha", [ChannelParams(*law) for law in SMALL_ALPHA_LAWS]
    yield "lowsnr", [LOW_SNR]
    yield "longtables", list(LONG_TABLES)


def outcome(call, fmt) -> str:
    """``fmt`` of what ``call()`` returns, or the name of what it raises."""
    try:
        return fmt(call())
    except Exception as err:  # noqa: BLE001 - the route is the output
        return type(err).__name__


def density_lines(name, i, params):
    yield f"{name}[{i}] c_alpha {outcome(lambda: derived_constants(params).c_alpha, float.hex)}"
    power = params.omega_x + params.omega_y
    for ratio in RATIOS:
        gamma = ratio * params.gamma_bar
        r = math.sqrt(ratio * power)
        for fname, call in (("snr_pdf", lambda: snr_pdf(params, gamma)),
                            ("snr_cdf_phi2", lambda: snr_cdf_phi2(params, gamma)),
                            ("bxs_envelope_pdf", lambda: bxs_envelope_pdf(params, r))):
            yield f"{name}[{i}] {fname}@{ratio:g} {outcome(call, float.hex)}"


def mixture_lines(name, i, params):
    for ratio in RATIOS + (20.0,):
        gamma = ratio * params.gamma_bar
        for fname, call in (("snr_cdf", snr_cdf), ("snr_ccdf", snr_ccdf)):
            value = outcome(lambda: call(params, gamma), float.hex)
            yield f"{name}[{i}] {fname}@{ratio:g} {value}"


def profile_lines(mod):
    """One line per truncation profile: the fig-2 and fig-3 ABER, the fig-4 capacity."""
    profiles = {
        "fig2": lambda p: metrics.aber_exact_truncation_profile(p, mod, k_max=40),
        "fig3": lambda p: metrics.aber_exact_truncation_profile(p, mod, k_max=40),
        "fig4": lambda p: metrics.capacity_exact_truncation_profile(p, k_max=48),
    }
    for name, laws in law_sets():
        if name in profiles:
            for i, params in enumerate(laws):
                sums = outcome(lambda: profiles[name](params),
                               lambda s: " ".join(map(float.hex, s)))
                yield f"{name}[{i}] profile {sums}"


def count_density_work() -> list:
    """Spy on the density the lattices build: the returned list counts its nodes and its rows x nodes."""
    real_density, real_sum = channel._mixture_density, channel._window_sum
    counted = [0, 0]

    def counting(*law):
        density = real_density(*law)

        def wrapped(t, *log_scale):
            counted[0] += t.size
            return density(t, *log_scale)
        return wrapped

    def summing(a, shapes, t, log_scale):
        counted[1] += a.size * t.size
        return real_sum(a, shapes, t, log_scale)

    channel._mixture_density, channel._window_sum = counting, summing
    return counted


def main() -> int:
    work = count_density_work()
    qam16 = metrics.modulation_coeffs("mqam", 16)
    bpsk = metrics.modulation_coeffs("bpsk")
    calls = (("aber_exact:qam16", lambda p: metrics.aber_exact(p, qam16)),
             ("aber_exact:bpsk", lambda p: metrics.aber_exact(p, bpsk)),
             ("capacity_exact", metrics.capacity_exact))
    for name, laws in law_sets():
        for i, params in enumerate(laws):
            for metric, call in calls:
                out = outcome(lambda: call(params),
                              lambda r: f"{r.value.hex()} {r.path} {r.terms_used}")
                print(f"{name}[{i}] {metric} {out}")
    domain = [ChannelParams(*law) for law in domain_laws()]
    for name, laws in (("domain", domain), ("pinned", [PINNED]), ("largeb", [LARGE_B])):
        for i, params in enumerate(laws):
            for line in density_lines(name, i, params):
                print(line)
    for ratio in LARGE_B_RATIOS:
        pdf = outcome(lambda: snr_pdf(LARGE_B, ratio * LARGE_B.gamma_bar), float.hex)
        print(f"largeb[0] snr_pdf@{ratio:g} {pdf}")
    for name, laws in (("domain", domain), ("pinned", [PINNED]), ("longtables", LONG_TABLES)):
        for i, params in enumerate(laws):
            for line in mixture_lines(name, i, params):
                print(line)
    for line in profile_lines(qam16):
        print(line)
    print(f"density nodes evaluated: {work[0]}")
    print(f"density rows x nodes summed: {work[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
