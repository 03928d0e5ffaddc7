"""Self-tests of the benchmark: percentile rule, self-time arithmetic,
failure classification, tracer binding sites and input generation.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import measure  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


# -- percentile rule ---------------------------------------------------------

@pytest.mark.parametrize("n, wanted, expected", [
    (100, 90, 90),   # rank 90, exactly 10 beyond
    (99, 90, 89),    # p90 has 9 beyond; p89 (rank 89) has 10
    (1000, 90, 90),
    (24, 90, 58),    # rank ceil(0.58 * 24) = 14, 10 beyond
    (20, 50, 50),
    (11, 90, 9),     # rank 1, 10 beyond
    (10, 90, None),
])
def test_tail_percentile(n, wanted, expected):
    assert measure.tail_percentile(n, wanted) == expected


def test_percentile_nearest_rank():
    xs = list(range(1, 101))
    assert measure.percentile(xs, 90) == 90
    assert measure.percentile(xs, 50) == 50
    assert measure.percentile([5.0], 90) == 5.0


def test_latency_summary_names_the_percentile_it_reports():
    ops = [measure.Op(i / 1000.0, None) for i in range(1, 25)]
    ops.append(measure.Op(None, measure.NONZERO_EXIT))  # no timing, not a sample
    lat = measure.latency_summary(ops)
    assert lat["samples"] == 24
    assert lat["tail_q"] == 58 and lat["tail_ms"] == pytest.approx(14.0)
    assert lat["p50_q"] == 50 and lat["p50_ms"] == pytest.approx(12.0)


# -- self-time arithmetic ----------------------------------------------------

def test_self_times_subtract_direct_children_only():
    # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 9]
    parent = np.array([-1, 0, 1, 0], dtype=np.int32)
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    selfs = spans.self_times(parent, start, end)
    assert selfs.tolist() == [3.0, 2.0, 1.0, 4.0]
    assert selfs.sum() == end[0] - start[0]


def test_tracer_self_times_sum_to_root():
    tr = spans.Tracer()

    def leaf():
        return sum(range(2000))

    leaf_t = tr.wrap("leaf", leaf)
    mid_t = tr.wrap("mid", lambda: leaf_t() + leaf_t())
    with tr.span("root"):
        for _ in range(3):
            mid_t()
    by = tr.by_name()
    assert by["leaf"]["calls"] == 6 and by["mid"]["calls"] == 3
    total = sum(v["self_s"] for v in by.values())
    assert total == pytest.approx(by["root"]["total_s"], rel=1e-9)


def test_tracer_marks_raised_spans():
    tr = spans.Tracer()

    def boom():
        raise ValueError("x")

    traced = tr.wrap("boom", boom)
    with pytest.raises(ValueError):
        traced()
    assert tr.by_name()["boom"]["errors"] == 1


# -- failure classification --------------------------------------------------

def test_classify_failures():
    from abxs.specfun import ConvergenceError

    assert measure.classify(ConvergenceError("x")) == measure.CONVERGENCE
    assert measure.classify(OverflowError("x")) == measure.OVERFLOW
    assert measure.classify(ValueError("-inf + inf in fsum")) == measure.LEAKED_VALUE
    assert measure.classify(ZeroDivisionError()) == measure.OTHER
    assert measure.classify(RuntimeError()) == measure.OTHER


def test_failure_summary_and_share():
    ops = [measure.Op(0.1, None), measure.Op(0.2, measure.CONVERGENCE),
           measure.Op(None, measure.NONZERO_EXIT), measure.Op(0.3, measure.OFF_REFERENCE)]
    s = measure.failure_summary(ops)
    assert s["attempted"] == 4 and s["failed"] == 3
    assert s["by_class"][measure.CONVERGENCE] == 1
    assert s["by_class"][measure.NONZERO_EXIT] == 1
    assert s["by_class"][measure.OVERFLOW] == 0
    assert measure.fail_share(4, 3) == pytest.approx(3.5 / 5)
    assert measure.fail_share(100, 0) > 0.0


def test_only_unknown_deterministic_off_reference_is_unexpected():
    inputs = workloads.Inputs("domain", 1, [], {}, {(0, "capacity_exact")})
    ops = [measure.Op(0.1, measure.OFF_REFERENCE, 0.0, (0, "capacity_exact")),
           measure.Op(0.1, measure.CONVERGENCE, 0.0, (1, "aber_exact")),
           measure.Op(0.1, measure.OFF_REFERENCE, 0.0, (1, "capacity_exact")),
           measure.Op(0.1, measure.OFF_REFERENCE, 0.0, (2, "ks_statistic"))]
    assert workloads.unexpected_off_reference(inputs, ops) == [(1, "capacity_exact")]


def test_known_failures_name_domain_operations():
    known = workloads.load_known_failures("domain")
    laws = workloads.domain_laws()
    assert (laws.index(workloads.ORACLE_LAW), "capacity_quadrature") in known
    assert all(0 <= idx < len(laws) for idx, _ in known)
    assert workloads.load_known_failures("figures") == set()


def test_merge_repeats_averages_keyed_runs():
    ops = [measure.Op(1.0, None, 0.0, ("f", 0)), measure.Op(0.5, None, 1.0),
           measure.Op(3.0, measure.OFF_REFERENCE, 2.0, ("f", 0)),
           measure.Op(None, measure.NONZERO_EXIT, 3.0, ("f", 1)),
           measure.Op(2.0, None, 4.0, ("f", 1))]
    merged = measure.merge_repeats(ops)
    assert [(op.seconds, op.failure) for op in merged] == [
        (2.0, measure.OFF_REFERENCE), (0.5, None), (None, measure.NONZERO_EXIT)]


def test_close_to_rejects_non_finite_and_far_values():
    assert workloads.close_to(1.0 + 5e-6, 1.0)
    assert not workloads.close_to(1.0 + 2e-5, 1.0)
    assert not workloads.close_to(float("nan"), 1.0)


# -- tracer binding sites ----------------------------------------------------

def test_install_wraps_every_binding_site_and_uninstall_restores():
    import scipy.integrate

    import abxs
    from abxs import channel, cli, metrics, specfun

    originals = (cli.snr_pdf, cli.snr_cdf, metrics.derived_constants,
                 abxs.aber_exact, scipy.integrate.quad, specfun.meijer_g)
    tr = spans.Tracer()
    tr.install()
    try:
        assert cli.snr_pdf is channel.snr_pdf and cli.snr_pdf.original is originals[0]
        assert cli.snr_cdf.original is originals[1]
        assert metrics.derived_constants is channel.derived_constants
        assert metrics.derived_constants.original is originals[2]
        assert abxs.aber_exact is metrics.aber_exact
        assert scipy.integrate.quad.original is originals[4]
        # p > q flips to 1/z and recurses through the module name
        spec = specfun.MeijerGSpec(m=1, n=1, a_params=(0.5, 1.0), b_params=(0.0,))
        specfun.meijer_g(spec, 2.0)
    finally:
        tr.uninstall()
    assert (cli.snr_pdf, cli.snr_cdf, metrics.derived_constants, abxs.aber_exact,
            scipy.integrate.quad, specfun.meijer_g) == originals
    nid, parent, _, _, _ = tr.arrays()
    mg = tr.names.index("specfun.meijer_g")
    rows = np.flatnonzero(nid == mg)
    assert len(rows) == 2 and parent[rows[1]] == rows[0]


# -- inputs ------------------------------------------------------------------

def test_domain_laws_are_distinct_and_stratified():
    laws = workloads.domain_laws()
    assert len(set(laws)) == len(laws)
    grid = {(law[4], round(10 * np.log10(law[5]))) for law in laws[:64]}
    assert len(grid) == len(workloads.DOMAIN_ALPHAS) * len(workloads.DOMAIN_SNR_DB)
    for m_x, m_y, alpha, snr in workloads.ROADMAP_REPROS:
        assert (m_x, m_y, *workloads.DOMAIN_POWERS, alpha, workloads.db(snr)) in laws


def test_inputs_follow_the_seed():
    a = workloads.make_inputs("domain", 7)
    assert a.items == workloads.make_inputs("domain", 7).items
    assert a.items != workloads.make_inputs("domain", 8).items
    assert sorted(a.items) == list(enumerate(workloads.domain_laws()))
    assert workloads.expected_ops(a) == 2 * len(workloads.domain_laws()) + 1
    assert workloads.ORACLE_LAW in workloads.domain_laws()
    figures = workloads.make_inputs("figures", 1)
    assert workloads.expected_ops(figures) == 595 and figures.items.count(1) == 4


def test_line_clock_stamps_each_completed_line():
    clock = workloads.LineClock(measure.SpeedProbe())
    clock.write("a,b")
    clock.write("\nc")
    clock.write(",d\n")
    assert clock.lines == ["a,b", "c,d"]
    assert clock.stamps[0] <= clock.resumed[0] <= clock.stamps[1] <= clock.resumed[1]


# -- speed normalisation -----------------------------------------------------

def test_slowdown_is_the_mean_probe_near_the_interval():
    probe = measure.SpeedProbe()
    nominal = measure.PROBE_NOMINAL_S
    probe.mid = [0.0, 0.5, 1.0, 10.0, 10.5, 30.0]
    probe.dur = [nominal, 3 * nominal, 2 * nominal, 2 * nominal, 4 * nominal, 5 * nominal]
    assert probe.slowdown(0.0, 1.0) == pytest.approx(2.0)      # the three inside
    assert probe.slowdown(0.51, 0.99) == pytest.approx(2.5)    # the two adjacent
    assert probe.slowdown(18.0, 19.0) == pytest.approx(4.0)    # none near: the nearest
    ops = probe.normalize([measure.Op(0.5, None, 10.0), measure.Op(None, measure.OTHER)])
    assert ops[0].seconds == pytest.approx(1 / 6) and ops[1].seconds is None


def test_probe_sample_records_its_time():
    probe = measure.SpeedProbe()
    probe.sample()
    probe.maybe()  # too soon after the first: skipped
    assert len(probe.dur) == 1 and probe.spent == pytest.approx(probe.dur[0])
