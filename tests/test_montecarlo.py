import math
import os
import threading

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import special as sp_special, stats

from abxs import channel as ch
from abxs import metrics as mt
from abxs import montecarlo as mc
from abxs.channel import ChannelParams
from paramsets import FIG1, db, fig2_params, grid72, rayleigh

QAM16 = mt.modulation_coeffs("mqam", 16)


def fig1(alpha=2.0):
    return ChannelParams(alpha=alpha, **FIG1)


def ks_brute_force(samples, cdf_fn):
    """Reference KS statistic: cdf_fn at every sorted sample."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    f = np.asarray(cdf_fn(x), dtype=float)
    return float(max((np.arange(1, n + 1) / n - f).max(), (f - np.arange(0, n) / n).max()))


# The perfbench montecarlo laws (beta_bar 0.5, 0.44, 0.16 and 0) and
# a beta_bar ~ 0.8 law with 148 mixture weights.
KS_LAWS = (
    ChannelParams(1.2, 1.2, db(1.0), db(1.0), 2.0, db(10.0)),
    ChannelParams(0.5, 2.5, db(-3.0), db(3.0), 0.8, db(30.0)),
    ChannelParams(0.7, 1.8, db(0.0), db(-3.0), 4.0, db(40.0)),
    ChannelParams(2.0, 1.0, db(0.0), 0.0, 2.5, db(20.0)),
    ChannelParams(1.2, 1.2, 1.0, 4.0, 2.0, 10.0),
)


def power_cdf_fn(params):
    """Envelope-power cdf: same gamma-series as the SNR law, power units."""
    dc = ch.derived_constants(params)
    bb = dc.beta_bar
    weights = []
    w = (1.0 - bb) ** params.m_y
    k = 0
    while True:
        weights.append((w, params.m_x + k))
        if bb == 0.0 or (w < 1e-14 * weights[0][0] and k >= 2):
            break
        w = w * (params.m_y + k) * bb / (k + 1.0)
        k += 1

    def cdf(x):
        u = params.m_x * np.asarray(x, dtype=float) / params.omega_x
        out = np.zeros_like(u)
        for wk, shape in weights:
            out += wk * sp_special.gammainc(shape, u)
        return out

    return cdf


class TestConfig:
    def test_defaults(self):
        cfg = mc.SimulationConfig(seed=3)
        assert cfg.trials == 1_000_000 and cfg.streams == 8

    @pytest.mark.parametrize("bad", [dict(trials=0), dict(streams=0)])
    def test_invalid(self, bad):
        with pytest.raises(ValueError):
            mc.SimulationConfig(seed=1, **bad)


class TestPowerSampler:
    def test_mean_is_total_power(self):
        pars = fig1()
        w = mc.sample_bxs_power(pars, mc.stream_generator(11, 0), size=10 ** 6)
        se = w.std(ddof=1) / math.sqrt(w.size)
        assert abs(w.mean() - (pars.omega_x + pars.omega_y)) < 3.0 * se

    def test_no_los_is_pure_gamma(self):
        pars = rayleigh()
        w = mc.sample_bxs_power(pars, mc.stream_generator(12, 0), size=200_000)
        d = mc.ks_statistic(w, lambda x: stats.gamma.cdf(x, a=1.0, scale=1.0))
        assert d < mc.ks_critical_1pct(w.size)

    @pytest.mark.parametrize("seed", [12, 1701])
    @pytest.mark.parametrize("size", [None, 1000])
    def test_no_los_draw_matches_the_zero_count_form(self, seed, size):
        # a scalar shape draws the same variates as the shape array m_x + zeros(n)
        pars = ChannelParams(1.7, 1.0, 0.8, 0.0, 2.5, 10.0)
        got = mc.sample_bxs_power(pars, mc.stream_generator(seed, 0), size=size)
        n = 1 if size is None else size
        want = mc.stream_generator(seed, 0).gamma(pars.m_x + np.zeros(n), pars.omega_x / pars.m_x)
        if size is None:
            assert got == float(want[0])
        else:
            assert np.array_equal(got, want)

    def test_ks_against_model_density(self):
        pars = fig1()
        w = mc.sample_bxs_power(pars, mc.stream_generator(13, 0), size=10 ** 6)
        d = mc.ks_statistic(w, power_cdf_fn(pars))
        assert d < mc.ks_critical_1pct(w.size)

    def test_scalar_draw(self):
        val = mc.sample_bxs_power(fig1(), mc.stream_generator(1, 0))
        assert isinstance(val, float) and val > 0.0


class TestSnrSampler:
    def test_mean_is_gamma_bar(self):
        pars = fig1()
        g = mc.snr_samples(pars, mc.SimulationConfig(seed=21, trials=10 ** 6))
        se = g.std(ddof=1) / math.sqrt(g.size)
        assert abs(g.mean() - pars.gamma_bar) < 3.0 * se

    def test_rayleigh_is_exponential(self):
        pars = rayleigh(gamma_bar=3.0)
        g = mc.sample_snr(pars, mc.stream_generator(22, 0), size=200_000)
        d = mc.ks_statistic(g, lambda x: 1.0 - np.exp(-np.asarray(x) / 3.0))
        assert d < mc.ks_critical_1pct(g.size)

    @pytest.mark.parametrize("alpha", [1.0, 2.0, 4.0])
    def test_ks_against_model_cdf(self, alpha):
        pars = fig1(alpha)
        g = mc.snr_samples(pars, mc.SimulationConfig(seed=23, trials=300_000))
        d = mc.ks_statistic(g, mc.snr_cdf_fn(pars))
        assert d < mc.ks_critical_1pct(g.size)

    def test_vectorized_cdf_matches_scalar(self):
        pars = fig1(2.5)
        pts = np.array([0.05, 0.3, 1.0, 2.0, 7.0])
        vec = mc.snr_cdf_fn(pars)(pts)
        scal = np.array([ch.snr_cdf(pars, x) for x in pts])
        assert np.abs(vec - scal).max() < 1e-12

    def test_vectorized_cdf_matches_scalar_los_dominated(self):
        pars = ChannelParams(2.5, 0.5, 10 ** -0.3, 10 ** 0.3, 0.8, 100.0)  # beta_bar ~ 0.95
        pts = np.geomspace(1e-3, 1e5, 17)
        vec = mc.snr_cdf_fn(pars)(pts)
        scal = np.array([ch.snr_cdf(pars, x) for x in pts])
        assert np.abs(vec - scal).max() < 1e-12

    def test_ks_line_of_sight_dominated(self):
        # beta_bar = 0.995: 6432 mixture weights, a K-factor near 23 dB
        pars = ChannelParams(1.0, 1.0, 1.0, 199.0, 2.2, 10.0)
        g = mc.snr_samples(pars, mc.SimulationConfig(seed=9, trials=10 ** 6))
        cdf = mc.snr_cdf_fn(pars)
        assert mc.ks_statistic(g, cdf) < mc.ks_critical_1pct(g.size)
        assert mc.ks_statistic(g[:10_000], cdf) == ks_brute_force(g[:10_000], cdf)

    def test_ks_and_mean_across_validation_grid(self):
        # moderate sample size keeps the whole 72-point sweep quick
        for i, pars in enumerate(grid72()):
            g = mc.snr_samples(pars, mc.SimulationConfig(seed=1400 + i, trials=60_000))
            d = mc.ks_statistic(g, mc.snr_cdf_fn(pars))
            assert d < mc.ks_critical_1pct(g.size), f"grid point {i} failed KS"
            se = g.std(ddof=1) / math.sqrt(g.size)
            assert abs(g.mean() - pars.gamma_bar) < 3.0 * se, f"grid point {i} mean"


class TestDeterminism:
    def test_bit_identical_runs(self):
        pars = fig1()
        cfg = mc.SimulationConfig(seed=31, trials=50_000, streams=4)
        a = mc.snr_samples(pars, cfg)
        b = mc.snr_samples(pars, cfg)
        assert np.array_equal(a, b)
        assert mc.mc_aber(pars, QAM16, cfg) == mc.mc_aber(pars, QAM16, cfg)

    def test_execution_order_irrelevant(self):
        # per-stream statistics are keyed by (seed, index); combining them in
        # index order reproduces the sequential estimate bit for bit
        pars = fig1()
        cfg = mc.SimulationConfig(seed=32, trials=30_001, streams=5)
        sizes = [30_001 // 5 + (1 if i < 1 else 0) for i in range(5)]

        def stat(i, n):
            g = mc.sample_snr(pars, mc.stream_generator(cfg.seed, i), size=n)
            v = QAM16.delta1 * sum(0.5 * sp_special.erfc(np.sqrt(d * g))
                                   for d in QAM16.delta2)
            return float(v.sum()), float((v * v).sum()), n

        shuffled = [(i, stat(i, sizes[i])) for i in (3, 0, 4, 1, 2)]
        ordered = [s for _, s in sorted(shuffled, key=lambda t: t[0])]
        assert mc.reduce_stream_stats(ordered) == mc.mc_aber(pars, QAM16, cfg)

    def test_single_trial_is_the_sample_statistic(self):
        pars = fig1()
        cfg = mc.SimulationConfig(seed=33, trials=1, streams=1)
        g = mc.sample_snr(pars, mc.stream_generator(33, 0))
        want = QAM16.delta1 * sum(0.5 * math.erfc(math.sqrt(d * g))
                                  for d in QAM16.delta2)
        est, se = mc.mc_aber(pars, QAM16, cfg)
        assert est == pytest.approx(want, rel=1e-15)
        assert se == 0.0


def serial_stream_sizes(trials, streams):
    base, extra = divmod(trials, streams)
    return [base + (1 if i < extra else 0) for i in range(streams)]


class TestConcurrentStreams:
    """The streams run on several threads; each result equals the serial draw."""

    @pytest.mark.parametrize("trials, streams", [(30_001, 5), (3, 8), (1, 1)])
    def test_equal_to_serial_bit_for_bit(self, trials, streams):
        pars = fig1(2.5)
        cfg = mc.SimulationConfig(seed=35, trials=trials, streams=streams)
        draws = [mc.sample_snr(pars, mc.stream_generator(cfg.seed, i), size=n)
                 for i, n in enumerate(serial_stream_sizes(trials, streams)) if n > 0]
        got = mc.snr_samples(pars, cfg)
        assert got.dtype == np.float64 and np.array_equal(got, np.concatenate(draws))

        def triples(statistic):
            return [(float(np.sum(v)), float(np.sum(v * v)), v.size)
                    for v in map(statistic, draws)]

        def aber(g):
            return QAM16.delta1 * sum(0.5 * sp_special.erfc(np.sqrt(d * g))
                                      for d in QAM16.delta2)

        def capacity(g):
            return np.log1p(g) / math.log(2.0)

        assert mc.mc_aber(pars, QAM16, cfg) == mc.reduce_stream_stats(triples(aber))
        assert mc.mc_capacity(pars, cfg) == mc.reduce_stream_stats(triples(capacity))

    def test_threads_capped_by_cores(self, monkeypatch):
        # 10,000 streams of two trials: the pool must not grow with them
        pars = fig1()
        cfg = mc.SimulationConfig(seed=36, trials=20_000, streams=10_000)
        seen = []
        draw = mc.sample_snr

        def counting_draw(*args, **kwargs):
            seen.append(threading.active_count())
            return draw(*args, **kwargs)

        monkeypatch.setattr(mc, "sample_snr", counting_draw)
        samples = mc.snr_samples(pars, cfg)
        mc.mc_capacity(pars, cfg)
        assert len(seen) == 20_000 and samples.size == 20_000
        assert max(seen) <= len(os.sched_getaffinity(0))


class TestEstimators:
    def test_aber_within_three_se(self):
        pars = fig2_params(2.0, 10.0)
        est, se = mc.mc_aber(pars, QAM16, mc.SimulationConfig(seed=41, trials=200_000))
        assert abs(est - mt.aber_exact(pars, QAM16).value) < 3.0 * se

    def test_capacity_within_three_se(self):
        pars = fig2_params(2.0, 10.0)
        est, se = mc.mc_capacity(pars, mc.SimulationConfig(seed=42, trials=200_000))
        assert abs(est - mt.capacity_exact(pars).value) < 3.0 * se

    def test_capacity_below_awgn(self):
        pars = fig2_params(2.0, 15.0)
        est, _ = mc.mc_capacity(pars, mc.SimulationConfig(seed=43, trials=100_000))
        assert est < math.log2(1.0 + pars.gamma_bar)

    def test_se_scales_with_sqrt_trials(self):
        pars = fig2_params(2.0, 5.0)
        ratios = []
        for rep in range(30):
            _, se1 = mc.mc_aber(pars, QAM16,
                                mc.SimulationConfig(seed=500 + rep, trials=2000))
            _, se2 = mc.mc_aber(pars, QAM16,
                                mc.SimulationConfig(seed=9500 + rep, trials=4000))
            ratios.append(se2 / se1)
        mean_ratio = sum(ratios) / len(ratios)
        assert abs(mean_ratio - 1.0 / math.sqrt(2.0)) < 0.2 * (1.0 / math.sqrt(2.0))


class TestKsStatistic:
    def test_true_cdf_rarely_rejected(self):
        rng = mc.stream_generator(71, 0)
        failures = 0
        for _ in range(100):
            x = rng.uniform(0.0, 1.0, 2000)
            d = mc.ks_statistic(x, lambda v: np.asarray(v))
            if d >= 1.63 / math.sqrt(x.size):
                failures += 1
        assert failures <= 3  # 1% level, 100 repetitions

    def test_shifted_cdf_detected(self):
        rng = mc.stream_generator(72, 0)
        x = rng.uniform(0.0, 1.0, 50_000)
        shift = 0.07

        def cdf(v):
            return np.clip(np.asarray(v) + shift, 0.0, 1.0)

        d = mc.ks_statistic(x, cdf)
        assert d == pytest.approx(shift, abs=0.01)
        assert d == ks_brute_force(x, cdf)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mc.ks_statistic([], lambda v: v)

    def test_nan_sample_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            mc.ks_statistic([1.0, math.nan, 2.0], lambda v: 1.0 - np.exp(-np.asarray(v)))

    def test_nan_cdf_value_rejected(self):
        x = np.linspace(0.0, 1.0, 1001)
        with pytest.raises(ValueError, match="NaN"):
            mc.ks_statistic(x, lambda v: np.where(np.asarray(v) > 0.3, math.nan, v))

    @pytest.mark.parametrize("i", range(len(KS_LAWS)))
    def test_exact_on_model_laws(self, i):
        pars = KS_LAWS[i]
        g = mc.snr_samples(pars, mc.SimulationConfig(seed=3100 + i, trials=200_000))
        cdf = mc.snr_cdf_fn(pars)
        assert mc.ks_statistic(g, cdf) == ks_brute_force(g, cdf)

    @pytest.mark.parametrize("x", [[0.3], [0.7, 0.2], [0.5] * 1000],
                             ids=["n1", "n2", "all-tied"])
    def test_exact_on_small_and_tied_samples(self, x):
        assert mc.ks_statistic(x, np.asarray) == ks_brute_force(x, np.asarray)

    def test_exact_on_step_cdf(self):
        # jumps at multiples of 1/4, flat between, tied samples on a 0.1 grid
        x = mc.stream_generator(73, 0).integers(0, 11, 5000) / 10.0

        def cdf(v):
            return np.floor(np.asarray(v) * 4.0) / 4.0

        assert mc.ks_statistic(x, cdf) == ks_brute_force(x, cdf)

    def test_sup_at_first_sample(self):
        # an atom of 1/2 at the origin: F_0 - 0/n is the largest gap
        x = np.sort(mc.stream_generator(74, 0).uniform(0.0, 1.0, 20_000))

        def cdf(v):
            return 0.5 + 0.5 * np.asarray(v)

        d = mc.ks_statistic(x, cdf)
        assert d == ks_brute_force(x, cdf) == cdf(x[:1])[0]

    def test_sup_at_last_sample(self):
        # half the mass missing on the right: 1 - F_{n-1} is the largest gap
        x = np.sort(mc.stream_generator(75, 0).uniform(0.0, 1.0, 20_000))

        def cdf(v):
            return 0.5 * np.asarray(v)

        d = mc.ks_statistic(x, cdf)
        assert d == ks_brute_force(x, cdf) == 1.0 - cdf(x[-1:])[0]

    @given(st.lists(st.integers(0, 40), min_size=1, max_size=400),
           st.lists(st.floats(0.0, 1.0), min_size=2, max_size=30),
           st.booleans())
    def test_exact_on_random_monotone_cdfs(self, ints, steps, stepwise):
        # tied samples on a coarse grid; a piecewise-linear or step cdf whose
        # knot values are normalised cumulative sums, so non-decreasing
        x = np.array(ints) / 4.0
        knots = np.linspace(-1.0, 11.0, len(steps))
        levels = np.cumsum(steps)
        levels = levels / levels[-1] if levels[-1] > 0 else levels

        def cdf(v):
            v = np.asarray(v)
            if stepwise:
                return levels[np.searchsorted(knots, v, side="right") - 1]
            return np.interp(v, knots, levels)

        assert mc.ks_statistic(x, cdf) == ks_brute_force(x, cdf)
