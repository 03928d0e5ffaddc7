import math

import numpy as np
import pytest
from scipy import special as sp_special, stats

from abxs import channel as ch
from abxs import metrics as mt
from abxs import montecarlo as mc
from abxs.channel import ChannelParams
from paramsets import FIG1, fig2_params, grid72, rayleigh

QAM16 = mt.modulation_coeffs("mqam", 16)


def fig1(alpha=2.0):
    return ChannelParams(alpha=alpha, **FIG1)


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

    @pytest.mark.parametrize("bad", [dict(trials=0), dict(streams=0),
                                     dict(histogram_bins=0)])
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
        d = mc.ks_statistic(x, lambda v: np.clip(np.asarray(v) + shift, 0.0, 1.0))
        assert d == pytest.approx(shift, abs=0.01)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mc.ks_statistic([], lambda v: v)
