#!/usr/bin/env python3
"""Scan the normaliser's Euler-integral check over random laws with m_x > m_y.

Two seeded sets of 800 laws each: alpha in [0.01, 0.5] (where scipy's
``hyp2f1`` can be far off) and alpha in [0.5, 10]. Every draw is
log-uniform: m_y in [0.1, 50], m_x - m_y in [1e-6, 50], 1 - beta_bar in
[1e-8, 1] (omega_x = 1, omega_y set to give it), and alpha over its set.

One line per law: set and index, the law as ``ChannelParams`` fields, the
value the normaliser took (``hyp2f1``, ``euler`` where hyp2f1 missed Euler's
integral, or ``raise`` when ``derived_constants`` raises ``ConvergenceError``),
and the errors in log 2F1 against 30-digit mpmath, per unit of
max(2/alpha, 1), of ``channel._log_euler_2f1`` and of scipy's ``hyp2f1``
(``specfun.gauss_2f1``). The Euler error prints as ``ok`` within 1e-13, the
hyp2f1 error within the check's tolerance, and each as its value past that.
A choice is wrong when it takes Euler's value over a hyp2f1 value within the
check's tolerance, or hyp2f1's value outside it. The last line of each set
counts the laws that take Euler's value, the raises and the wrong choices,
and gives the worst Euler error.

Comparing two versions of the code is one ``diff`` of this script's output
run on each checkout:

    python3 scripts/normaliser_scan.py > after.txt
"""

import math
import pathlib
import sys

import mpmath
import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from abxs import channel, specfun  # noqa: E402
from abxs.channel import ChannelParams  # noqa: E402
from abxs.specfun import ConvergenceError  # noqa: E402

LAWS_PER_SET = 800
SETS = (("small-alpha", 0.01, 0.5, 20231), ("alpha", 0.5, 10.0, 20232))
EULER_BOUND = 1e-13


def log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def draw_laws(rng, alpha_lo, alpha_hi):
    for _ in range(LAWS_PER_SET):
        m_y = log_uniform(rng, 0.1, 50.0)
        m_x = m_y + log_uniform(rng, 1e-6, 50.0)
        one_minus_bb = log_uniform(rng, 1e-8, 1.0)
        alpha = log_uniform(rng, alpha_lo, alpha_hi)
        omega_y = m_y * (1.0 / one_minus_bb - 1.0) / m_x
        yield ChannelParams(m_x, m_y, 1.0, omega_y, alpha, 10.0)


def errors(params):
    """|log 2F1 - mpmath| / max(s, 1) by Euler's integral ("raise" if it raises) and by hyp2f1."""
    s = 2.0 / params.alpha
    a = params.m_x - params.m_y
    bb, one_minus_bb = channel.beta_bar(params), channel._one_minus_beta_bar(params)

    def err(log_2f1, z):
        return abs(log_2f1 - float(mpmath.log(mpmath.hyp2f1(a, -s, params.m_x, z)))) / max(s, 1.0)

    # each side against 2F1 at its own argument: the two doubles may differ in the last bit
    hyp = specfun.gauss_2f1(a, -s, params.m_x, bb)
    hyp_err = err(math.log(hyp), mpmath.mpf(bb)) if 0.0 < hyp < math.inf else math.inf
    try:
        got = channel._log_euler_2f1(params.m_x, params.m_y, one_minus_bb, s)
    except ConvergenceError:
        return "raise", hyp_err
    return err(got, 1 - mpmath.mpf(one_minus_bb)), hyp_err


def taken(params) -> str:
    """Which value of log 2F1 the normaliser took: "hyp2f1", "euler" or "raise"."""
    s = 2.0 / params.alpha
    bb, one_minus_bb = channel.beta_bar(params), channel._one_minus_beta_bar(params)
    try:
        channel.derived_constants(params)
        log_los = channel._log_los_2f1(params.m_x, params.m_y, bb, one_minus_bb, s)
    except ConvergenceError:
        return "raise"
    hyp = specfun.gauss_2f1(params.m_x - params.m_y, -s, params.m_x, bb)
    kept = 0.0 < hyp < math.inf and log_los == math.log(hyp) - s * math.log(one_minus_bb)
    return "hyp2f1" if kept else "euler"


def main() -> int:
    mpmath.mp.dps = 30
    for name, alpha_lo, alpha_hi, seed in SETS:
        rng = np.random.default_rng(seed)
        counts = {"hyp2f1": 0, "euler": 0, "raise": 0}
        wrong = 0
        worst = 0.0
        for i, params in enumerate(draw_laws(rng, alpha_lo, alpha_hi)):
            took = taken(params)
            euler_err, hyp_err = errors(params)
            counts[took] += 1
            wrong += took != "raise" and (took == "euler") != (hyp_err > channel._LOS_CHECK_TOL)
            if euler_err != "raise":
                worst = max(worst, euler_err)
                euler_err = "ok" if euler_err <= EULER_BOUND else f"{euler_err:.2e}"
            hyp_err = "ok" if hyp_err <= channel._LOS_CHECK_TOL else f"{hyp_err:.2e}"
            print(f"{name} {i} m_x={params.m_x!r} m_y={params.m_y!r} omega_y={params.omega_y!r} "
                  f"alpha={params.alpha!r} took={took} euler={euler_err} hyp2f1={hyp_err}")
        print(f"{name}: {counts['euler']} of {LAWS_PER_SET} take Euler's value, "
              f"{counts['raise']} raise, {wrong} wrongly; worst Euler error {worst:.1e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
