"""The three benchmark workloads: their inputs, one timed pass each, and checks.

* ``figures``: the four preset CSVs (``abxs eval --fig 1..4``, the oracle
  column on figs 2 and 4), run in-process through ``cli.main``. One
  operation is one CSV row; its latency is the time between that row and
  the line before it reaching stdout (averaged over fig 1's four runs).
* ``domain``: 67 distinct laws stratified over the documented domain, each
  evaluated by ``aber_exact`` (QAM-16) and ``capacity_exact``, plus
  ``capacity_quadrature`` on the law where that oracle is wrong. One
  operation is one call.
* ``montecarlo``: ``mc_aber``, ``mc_capacity``, ``snr_samples`` and
  ``ks_statistic(samples, snr_cdf_fn(law))`` at 10^6 trials per law. One
  operation is one call (the KS call includes building the cdf closure).

A pass is cold: it clears ``channel.derived_constants``' cache first, and
the figures pass clears it before each CLI run, as a fresh process would.
"""

from __future__ import annotations

import io
import json
import math
import os
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import numpy as np

import measure

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

# Closed-form and oracle values must match the reference to this relative
# tolerance (the acceptance suite's closed-form tolerance).
REL_TOL = 1e-5
# A Monte-Carlo estimate fails when it lies more than this many standard
# errors from the reference; a correct estimator does so with p ~ 6e-7.
Z_BOUND = 5.0
MC_TRIALS = 1_000_000


def db(x: float) -> float:
    return 10.0 ** (x / 10.0)


# --------------------------------------------------------------------------
# figures

# Parameters each preset holds fixed; the CSV's own label and sweep columns
# supply the rest. Keys follow the CSV header names.
FIGURES = {
    1: {"argv": ["eval", "--fig", "1"], "kind": "pdf", "checked": ("exact",),
        "fixed": {"m_x": 1.6, "m_y": 1.5, "omega_x_db": 2.0, "omega_y_db": 2.0,
                  "gamma_bar_db": 3.0}},
    2: {"argv": ["eval", "--fig", "2", "--oracle"], "kind": "aber",
        "checked": ("exact", "oracle"),
        "fixed": {"m_x": 1.2, "m_y": 1.2, "omega_x_db": 1.0, "omega_y_db": 1.0}},
    3: {"argv": ["eval", "--fig", "3"], "kind": "aber", "checked": ("exact",),
        "fixed": {"omega_x_db": -3.0, "omega_y_db": 3.0, "gamma_bar_db": 20.0}},
    4: {"argv": ["eval", "--fig", "4", "--oracle"], "kind": "capacity",
        "checked": ("exact", "oracle"),
        "fixed": {"omega_x_db": 1.0, "omega_y_db": 1.0}},
}
INPUT_COLUMNS = ("m_x", "m_y", "alpha", "gamma_bar_db", "gamma")
# All of fig 1 (480 rows of 20-50 us) runs in about 20 ms, inside one of the
# fast or slow spells, tens of ms long, of a shared host; its row times
# moved by 1.7x from run to run. So fig 1 runs before each other figure and
# after the last, and each of its rows counts once, with its mean time.
FIGURE_SCHEDULE = (1, 2, 1, 3, 1, 4, 1)


def figure_law(fig: int, header, cells):
    """(law, gamma) of one CSV row: law = (m_x, m_y, omega_x, omega_y, alpha, gamma_bar)."""
    v = dict(FIGURES[fig]["fixed"])
    v.update((h, float(c)) for h, c in zip(header, cells) if h in INPUT_COLUMNS)
    law = (v["m_x"], v["m_y"], db(v["omega_x_db"]), db(v["omega_y_db"]),
           v["alpha"], db(v["gamma_bar_db"]))
    return law, v.get("gamma")


# --------------------------------------------------------------------------
# domain

# The laws cover the ROADMAP regression grid's axes: every documented alpha
# plus an irrational one (which forces the quadrature hybrids), mean SNR
# -10..60 dB in 10 dB steps, the five (m_x, m_y) corners and the fig-3
# powers. Each (alpha, SNR) pair appears once, its corner rotating as a
# Latin square; the ROADMAP item-1 reproducers are added where the square
# misses them. The set is fixed and the seed orders the calls: seed-drawn
# subsets of the grid moved the median latency by +-13% between draws,
# wider than any useful bound.
DOMAIN_ALPHAS = (0.8, 1.0, 2.0, 2.5, 3.0, 3.7, 4.0, None)
DOMAIN_IRRATIONAL = (0.8 * math.sqrt(2.0), math.sqrt(5.0), math.e, math.pi,
                     2.0 * math.sqrt(3.0))
DOMAIN_CORNERS = ((0.5, 0.5), (0.5, 2.5), (1.2, 1.2), (2.5, 0.5), (2.5, 2.5))
DOMAIN_SNR_DB = (-10.0, 0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0)
DOMAIN_POWERS = (db(-3.0), db(3.0))
# (m_x, m_y, alpha, SNR dB): hybrid max_terms exhaustion, the leaked
# "-inf + inf in fsum" ValueError, and the silently wrong capacity oracle.
ROADMAP_REPROS = ((1.2, 1.2, 3.7, 20.0), (0.5, 0.5, 1.0, -10.0), (2.5, 0.5, 0.8, 60.0))
# capacity_quadrature also runs on the last reproducer, where the seed's
# oracle returns 14.643 against 15.6437 and passes its own error gate.
ORACLE_LAW = (2.5, 0.5, *DOMAIN_POWERS, 0.8, db(60.0))


def domain_laws():
    """The domain laws, in a fixed order that the reference file follows."""
    laws = []
    for i, alpha in enumerate(DOMAIN_ALPHAS):
        for j, snr in enumerate(DOMAIN_SNR_DB):
            c = (i + j) % len(DOMAIN_CORNERS)
            a = DOMAIN_IRRATIONAL[c] if alpha is None else alpha
            laws.append((*DOMAIN_CORNERS[c], *DOMAIN_POWERS, a, db(snr)))
    for m_x, m_y, alpha, snr in ROADMAP_REPROS:
        law = (m_x, m_y, *DOMAIN_POWERS, alpha, db(snr))
        if law not in laws:
            laws.append(law)
    return laws


# --------------------------------------------------------------------------
# montecarlo

# Line-of-sight fractions bb from 0 to 0.5: the KS cdf closure sums one
# incomplete-gamma pass over all samples per mixture weight, so its cost
# grows with bb (about 4 s per law at bb = 0.5 on one 2-core Xeon).
MONTECARLO_LAWS = (
    (1.2, 1.2, db(1.0), db(1.0), 2.0, db(10.0)),
    (0.5, 2.5, db(-3.0), db(3.0), 0.8, db(30.0)),
    (0.7, 1.8, db(0.0), db(-3.0), 4.0, db(40.0)),
    (2.0, 1.0, db(0.0), 0.0, 2.5, db(20.0)),
)


# --------------------------------------------------------------------------
# inputs

@dataclass
class Inputs:
    workload: str
    seed: int
    items: list
    reference: dict
    known: set  # keys of the operations the seed already gets wrong


def load_reference(workload: str) -> dict:
    with open(os.path.join(REFERENCE_DIR, f"{workload}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def load_known_failures(workload: str) -> set:
    """Keys of the operations the seed returns wrong values for (known_failures.json)."""
    with open(os.path.join(REFERENCE_DIR, "known_failures.json"), encoding="utf-8") as fh:
        return {tuple(key) for key in json.load(fh)[workload]}


def make_inputs(workload: str, seed: int) -> Inputs:
    """The run's inputs and their references; the same seed gives the same inputs."""
    ref = load_reference(workload)
    known = load_known_failures(workload)
    if workload == "figures":
        # The presets are the inputs; the seed has nothing to choose.
        return Inputs(workload, seed, list(FIGURE_SCHEDULE), ref, known)
    laws = domain_laws() if workload == "domain" else list(MONTECARLO_LAWS)
    if [r["law"] for r in ref["laws"]] != [list(law) for law in laws]:
        raise ValueError(f"{workload} reference does not match its laws; regenerate it")
    if workload == "domain":
        order = np.random.default_rng([seed, 1]).permutation(len(laws))
        return Inputs(workload, seed, [(int(i), laws[i]) for i in order], ref, known)
    return Inputs(workload, seed, list(enumerate(laws)), ref, known)


def expected_ops(inputs: Inputs) -> int:
    """Operations one pass must account for."""
    if inputs.workload == "figures":
        return sum(len(inputs.reference[str(f)]["rows"]) for f in set(inputs.items))
    if inputs.workload == "domain":
        return 2 * len(inputs.items) + 1  # + capacity_quadrature on ORACLE_LAW
    return 4 * len(inputs.items)


# Checks a correct program fails by chance: the KS test at its 1% critical
# value. Their failures count in fail_share, not against `correct`.
CHANCE_CHECKS = ("ks_statistic",)


def unexpected_off_reference(inputs: Inputs, ops) -> list:
    """Keys of off-reference operations that the seed did not already get wrong."""
    return [op.key for op in ops
            if op.failure == measure.OFF_REFERENCE and op.key not in inputs.known
            and op.key[-1] not in CHANCE_CHECKS]


# --------------------------------------------------------------------------
# passes


def cold_start(cache_stats: dict) -> None:
    """Clear derived_constants' cache, first adding its hit/miss counts to cache_stats."""
    from abxs import channel

    dc = channel.derived_constants
    dc = getattr(dc, "original", dc)  # unwrap a traced binding
    info = dc.cache_info()
    cache_stats["hits"] = cache_stats.get("hits", 0) + info.hits
    cache_stats["misses"] = cache_stats.get("misses", 0) + info.misses
    dc.cache_clear()


def close_to(value: float, ref: float) -> bool:
    return math.isfinite(value) and abs(value - ref) <= REL_TOL * abs(ref)


class LineClock(io.TextIOBase):
    """A stdout stand-in that records when each line is completed.

    After each line it may run the speed probe; ``resumed`` holds the time
    the program got control back, so the probe is outside every row's time.
    """

    def __init__(self, probe: measure.SpeedProbe) -> None:
        self.lines = []
        self.stamps = []
        self.resumed = []
        self._buf = []
        self._probe = probe

    def writable(self) -> bool:
        return True

    def write(self, s: str) -> int:
        parts = s.split("\n")
        self._buf.append(parts[0])
        for part in parts[1:]:
            self.stamps.append(time.perf_counter())
            self.lines.append("".join(self._buf))
            self._buf = [part]
            self._probe.maybe()
            self.resumed.append(time.perf_counter())
        return len(s)


def _row_ok(fig: int, ref: dict, header, line: str, exp: dict) -> bool:
    cells = line.split(",")
    if header != ref["header"] or len(cells) != len(header):
        return False
    if cells[:len(exp["inputs"])] != exp["inputs"]:
        return False
    try:
        return all(close_to(float(cells[header.index(col)]), exp["value"])
                   for col in FIGURES[fig]["checked"])
    except ValueError:
        return False


def _figure_run(fig: int, ref: dict, cache_stats: dict, probe: measure.SpeedProbe):
    """Ops of one ``abxs eval`` run, one per reference row, keyed (fig, row)."""
    from abxs import cli

    cold_start(cache_stats)
    clock = LineClock(probe)
    start = time.perf_counter()
    error = None
    with redirect_stdout(clock), redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(FIGURES[fig]["argv"]))
        except Exception as err:  # noqa: BLE001 - a failing run must not stop the pass
            code, error = None, err
    header = clock.lines[0].split(",") if clock.lines else []
    t_prev = clock.resumed[0] if clock.resumed else start
    ops = []
    for i, exp in enumerate(ref["rows"]):
        key = (fig, i)
        if i + 1 < len(clock.lines):
            ok = _row_ok(fig, ref, header, clock.lines[i + 1], exp)
            ops.append(measure.Op(clock.stamps[i + 1] - t_prev,
                                  None if ok else measure.OFF_REFERENCE, t_prev, key))
            t_prev = clock.resumed[i + 1]
        elif error is not None:
            ops.append(measure.Op(None, measure.classify(error), key=key))
        else:
            failure = measure.NONZERO_EXIT if code else measure.OFF_REFERENCE
            ops.append(measure.Op(None, failure, key=key))
    return ops


def figures_pass(inputs: Inputs, cache_stats: dict, probe: measure.SpeedProbe):
    ops = []
    for fig in inputs.items:
        ops += _figure_run(fig, inputs.reference[str(fig)], cache_stats, probe)
    return ops


def _timed(ops: list, probe: measure.SpeedProbe, key: tuple, call, check):
    """Run one operation, append its Op, and return its output (None on error)."""
    probe.maybe()
    t0 = time.perf_counter()
    try:
        out = call()
    except Exception as err:  # noqa: BLE001 - count it and go on
        ops.append(measure.Op(time.perf_counter() - t0, measure.classify(err), t0, key))
        return None
    dt = time.perf_counter() - t0
    ops.append(measure.Op(dt, None if check(out) else measure.OFF_REFERENCE, t0, key))
    return out


def domain_pass(inputs: Inputs, cache_stats: dict, probe: measure.SpeedProbe):
    from abxs import channel, metrics

    qam16 = metrics.modulation_coeffs("mqam", 16)
    refs = inputs.reference["laws"]
    cold_start(cache_stats)
    ops = []
    for idx, law in inputs.items:
        params = channel.ChannelParams(*law)
        ref = refs[idx]
        _timed(ops, probe, (idx, "aber_exact"), lambda: metrics.aber_exact(params, qam16),
               lambda r: close_to(r.value, ref["aber"]))
        _timed(ops, probe, (idx, "capacity_exact"), lambda: metrics.capacity_exact(params),
               lambda r: close_to(r.value, ref["capacity"]))
        if law == ORACLE_LAW:
            _timed(ops, probe, (idx, "capacity_quadrature"),
                   lambda: metrics.capacity_quadrature(params),
                   lambda v: close_to(v, ref["capacity"]))
    return ops


def montecarlo_pass(inputs: Inputs, cache_stats: dict, probe: measure.SpeedProbe):
    from abxs import channel, metrics, montecarlo

    qam16 = metrics.modulation_coeffs("mqam", 16)
    cfg = montecarlo.SimulationConfig(seed=inputs.seed, trials=MC_TRIALS)
    refs = inputs.reference["laws"]
    cold_start(cache_stats)
    ops = []

    def within_z(ref):
        return lambda r: math.isfinite(r[0]) and abs(r[0] - ref) <= Z_BOUND * r[1]

    for idx, law in inputs.items:
        params = channel.ChannelParams(*law)
        ref = refs[idx]
        _timed(ops, probe, (idx, "mc_aber"), lambda: montecarlo.mc_aber(params, qam16, cfg),
               within_z(ref["aber"]))
        _timed(ops, probe, (idx, "mc_capacity"), lambda: montecarlo.mc_capacity(params, cfg),
               within_z(ref["capacity"]))

        def mean_ok(s, gb=params.gamma_bar):
            se = float(np.std(s, ddof=1)) / math.sqrt(s.size)
            return s.size == cfg.trials and abs(float(np.mean(s)) - gb) <= Z_BOUND * se

        samples = _timed(ops, probe, (idx, "snr_samples"),
                         lambda: montecarlo.snr_samples(params, cfg), mean_ok)
        if samples is None:  # the KS step has no input
            ops.append(measure.Op(None, measure.OTHER, key=(idx, "ks_statistic")))
            continue
        # A correct sampler exceeds the 1% critical value in 1% of runs.
        _timed(ops, probe, (idx, "ks_statistic"),
               lambda: montecarlo.ks_statistic(samples, montecarlo.snr_cdf_fn(params)),
               lambda ks: ks < montecarlo.ks_critical_1pct(samples.size))
        del samples
    return ops


PASSES = {"figures": figures_pass, "domain": domain_pass, "montecarlo": montecarlo_pass}
