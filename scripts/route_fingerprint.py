#!/usr/bin/env python3
"""Print the exact metrics' (value, path, terms) on the documented law sets.

One line per call: law set and index, metric, ``value.hex()``, ``path`` and
``terms_used`` (or the exception's name). The calls are ``aber_exact``
(QAM-16 and BPSK) and ``capacity_exact`` on the benchmark's 67 ``domain``
laws and on the fig-2, fig-3 (alpha 1:0.25:4), fig-4 and 72-point grid
laws. The last lines give the Mellin-Barnes contours run and the complex
``loggamma`` points they evaluated.

Comparing two versions of the code is one ``diff`` of this script's output
run on each checkout:

    python3 scripts/route_fingerprint.py > after.txt
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

from abxs import metrics, specfun  # noqa: E402
from abxs.channel import ChannelParams  # noqa: E402
from paramsets import (FIG2_ALPHAS, FIG2_SNR_DB, FIG3_SETS, FIG4_SETS,  # noqa: E402
                       FIG4_SNR_DB, fig2_params, fig3_params, fig4_params, grid72)
from workloads import domain_laws  # noqa: E402

FIG3_ALPHAS = tuple(1.0 + 0.25 * i for i in range(13))


def law_sets():
    yield "domain", [ChannelParams(*law) for law in domain_laws()]
    yield "fig2", [fig2_params(a, s) for a in FIG2_ALPHAS for s in FIG2_SNR_DB]
    yield "fig3", [fig3_params(m_x, m_y, a) for m_x, m_y in FIG3_SETS for a in FIG3_ALPHAS]
    yield "fig4", [fig4_params(m_x, m_y, a, s) for m_x, m_y, a in FIG4_SETS
                   for s in FIG4_SNR_DB]
    yield "grid72", list(grid72())


def main() -> int:
    counts = {"contours": 0, "loggamma": 0}
    real_contour, real_loggamma = specfun._meijer_contour, specfun.loggamma

    def contour(*args):
        counts["contours"] += 1
        return real_contour(*args)

    def loggamma(x):
        counts["loggamma"] += x.size
        return real_loggamma(x)

    specfun._meijer_contour, specfun.loggamma = contour, loggamma
    qam16 = metrics.modulation_coeffs("mqam", 16)
    bpsk = metrics.modulation_coeffs("bpsk")
    calls = (("aber_exact:qam16", lambda p: metrics.aber_exact(p, qam16)),
             ("aber_exact:bpsk", lambda p: metrics.aber_exact(p, bpsk)),
             ("capacity_exact", metrics.capacity_exact))
    for name, laws in law_sets():
        for i, params in enumerate(laws):
            for metric, call in calls:
                try:
                    r = call(params)
                    out = f"{r.value.hex()} {r.path} {r.terms_used}"
                except Exception as err:  # noqa: BLE001 - the route is the output
                    out = type(err).__name__
                print(f"{name}[{i}] {metric} {out}")
    print(f"contours {counts['contours']}")
    print(f"loggamma_points {counts['loggamma']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
