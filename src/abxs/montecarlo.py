"""Seeded Monte-Carlo sampling of the channel and empirical metric estimates.

The sampler draws the envelope power through a gamma-Poisson-gamma mixture:

    S ~ Gamma(m_y, mean omega_y)          (fluctuating LoS power)
    N ~ Poisson(m_x S / omega_x)          (specular component count)
    W ~ Gamma(m_x + N, scale omega_x/m_x) (envelope power)

whose marginal density equals the envelope-power form of the model, verified
against the closed-form density by the Kolmogorov-Smirnov checks in the test
suite. SNR follows by the deterministic map
gamma = gamma_bar (C m_x W / omega_x)^(2/alpha).

Randomness comes from counter-based Philox streams keyed (seed, stream), each
stream owning a disjoint trial range. The streams are drawn concurrently on
up to the available cores: numpy's samplers and scipy's ufuncs release the
interpreter lock, so threads overlap them. Each stream's work depends only on
its key and size, and results are combined in stream order, so they are
bit-identical for a given (seed, streams, trials) whatever the core count or
execution interleaving.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import special as sp_special

from . import channel
from .channel import ChannelParams, derived_constants


@dataclass(frozen=True)
class SimulationConfig:
    """Seed, trial count and stream split of a simulation.

    The trials are split over `streams` Philox streams as evenly as possible
    (streams beyond `trials` draw nothing). The streams run on up to the
    available cores; the split, not the core count, fixes every result.
    """

    seed: int = 1
    trials: int = 1_000_000
    streams: int = 8

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.streams < 1:
            raise ValueError(f"streams must be >= 1, got {self.streams}")


def stream_generator(seed: int, stream: int) -> np.random.Generator:
    """Philox generator for one (seed, stream) pair."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, stream & 0xFFFFFFFFFFFFFFFF],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _stream_sizes(cfg: SimulationConfig):
    base, extra = divmod(cfg.trials, cfg.streams)
    return [base + (1 if i < extra else 0) for i in range(cfg.streams)]


def _available_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_streams(params: ChannelParams, cfg: SimulationConfig, work) -> list:
    """[work(i, lo, n) for each non-empty stream], in stream order.

    Stream i holds trials lo .. lo + n - 1. The streams are cut into one
    contiguous run per worker, with as many workers as available cores but
    no more than non-empty streams; the calling thread takes the first run
    and pool threads the others (one pool thread fewer keeps one fewer
    malloc arena). work must depend only on its arguments.
    """
    jobs = []
    lo = 0
    for i, n in enumerate(_stream_sizes(cfg)):
        if n > 0:
            jobs.append((i, lo, n))
            lo += n
    workers = min(_available_cores(), len(jobs))
    cuts = [len(jobs) * w // workers for w in range(workers + 1)]
    runs = [jobs[a:b] for a, b in zip(cuts, cuts[1:])]

    def run(part):
        return [work(*job) for job in part]

    derived_constants(params)  # cached once here, not computed by racing threads
    with ThreadPoolExecutor(max_workers=max(workers - 1, 1)) as pool:
        futures = [pool.submit(run, part) for part in runs[1:]]
        results = run(runs[0])
        for future in futures:
            results += future.result()
    return results


def sample_bxs_power(params: ChannelParams, rng: np.random.Generator, size=None):
    """Draw envelope power W = R^2 (scalar for size=None, else ndarray)."""
    n = 1 if size is None else size
    if params.omega_y == 0.0:
        w = rng.gamma(params.m_x, params.omega_x / params.m_x, n)
    else:
        los = rng.gamma(params.m_y, params.omega_y / params.m_y, n)
        counts = rng.poisson(params.m_x * los / params.omega_x)
        w = rng.gamma(params.m_x + counts, params.omega_x / params.m_x)
    return float(w[0]) if size is None else w


def sample_snr(params: ChannelParams, rng: np.random.Generator, size=None):
    """Draw instantaneous SNR gamma (scalar for size=None, else ndarray)."""
    g = sample_bxs_power(params, rng, size=1 if size is None else size)
    dc = derived_constants(params)
    # gamma_bar (C m_x W / omega_x)^(2/alpha), in place on the fresh draw
    g *= dc.c_alpha * params.m_x
    g /= params.omega_x
    g **= 2.0 / params.alpha
    g *= params.gamma_bar
    return float(g[0]) if size is None else g


def snr_samples(params: ChannelParams, cfg: SimulationConfig) -> np.ndarray:
    """All cfg.trials SNR draws in stream order, each stream filling its slice."""
    out = np.empty(cfg.trials)

    def draw(i, lo, n):
        out[lo:lo + n] = sample_snr(params, stream_generator(cfg.seed, i), size=n)

    _map_streams(params, cfg, draw)
    return out


def _mc_mean(params: ChannelParams, cfg: SimulationConfig, statistic):
    """Deterministic ordered reduction of per-stream (sum, sumsq, n) triples."""
    def stream_stats(i, lo, n):
        g = sample_snr(params, stream_generator(cfg.seed, i), size=n)
        vals = statistic(g)
        return float(np.sum(vals)), float(np.sum(vals * vals)), n

    return reduce_stream_stats(_map_streams(params, cfg, stream_stats))


def reduce_stream_stats(stats) -> tuple:
    """(estimate, std_error) from (sum, sumsq, n) triples, combined in order."""
    s1 = 0.0
    s2 = 0.0
    n = 0
    for a, b, m in stats:
        s1 += a
        s2 += b
        n += m
    if n == 0:
        raise ValueError("no samples")
    est = s1 / n
    if n < 2:
        return est, 0.0
    var = max(s2 - n * est * est, 0.0) / (n - 1)
    return est, math.sqrt(var / n)


def mc_aber(params: ChannelParams, mod, cfg: SimulationConfig):
    """Monte-Carlo ABER, averaging the conditional Q-function error probability.

    Averaging Q over SNR draws (rather than counting simulated bit flips)
    matches the metric definition directly and keeps the variance workable at
    low error rates.
    """
    def statistic(g: np.ndarray) -> np.ndarray:
        out = np.zeros_like(g)
        for d2 in mod.delta2:
            out += 0.5 * sp_special.erfc(np.sqrt(d2 * g))
        return mod.delta1 * out

    return _mc_mean(params, cfg, statistic)


def mc_capacity(params: ChannelParams, cfg: SimulationConfig):
    """Monte-Carlo ergodic capacity (bits per channel use)."""
    return _mc_mean(params, cfg, lambda g: np.log1p(g) / math.log(2.0))


def snr_cdf_fn(params: ChannelParams):
    """SNR cdf closure (ndarray in, ndarray out) for KS testing: ``channel.snr_cdf`` on an array."""
    return lambda g: channel.snr_cdf(params, g)


# How far a cdf closure may step down between sorted points by rounding alone
# (the NB mixture sums thousands of gammainc terms); pruning allows for it.
_KS_SLACK = 1e-12


def ks_statistic(samples, cdf_fn) -> float:
    """Sup-norm distance D between the empirical cdf of samples and cdf_fn.

    cdf_fn must be elementwise and non-decreasing: it maps an ndarray of
    sample values to the cdf at each one. It is called several times, each
    time on the sorted sample at a subset of indices. The result is exact:
    the same D as evaluating cdf_fn at every sorted sample x_i and taking
    max((i+1)/n - F_i, F_i - i/n).

    Branch and bound: for sorted indices a < b with F_a and F_b known,
    monotonicity bounds every term strictly between them by
    max(b/n - F_a, F_b - (a+1)/n). Each round evaluates F at the midpoints
    of the intervals whose bound can still reach the running maximum, so
    about 4000 of 10^6 points are evaluated for a sample from the law.
    A NaN sample or cdf value raises ValueError.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n == 0:
        raise ValueError("ks_statistic requires a nonempty sample")
    if np.isnan(x[-1]):  # sort puts NaN last
        raise ValueError("ks_statistic: the sample contains NaN")

    def evaluate(idx):
        f = np.asarray(cdf_fn(x[idx]), dtype=float)
        if np.isnan(f).any():
            raise ValueError("ks_statistic: cdf_fn returned NaN")
        return f, float(np.maximum((idx + 1) / n - f, f - idx / n).max())

    ends = np.unique([0, n - 1])
    f_ends, d = evaluate(ends)
    a, b, fa, fb = ends[:-1], ends[1:], f_ends[:-1], f_ends[1:]
    while True:
        bound = np.maximum(b / n - fa, fb - (a + 1) / n)
        keep = (b - a > 1) & (bound >= d - _KS_SLACK)
        if not keep.any():
            return d
        a, b, fa, fb = a[keep], b[keep], fa[keep], fb[keep]
        mid = (a + b) // 2
        f_mid, d_mid = evaluate(mid)
        d = max(d, d_mid)
        a, b = np.concatenate([a, mid]), np.concatenate([mid, b])
        fa, fb = np.concatenate([fa, f_mid]), np.concatenate([f_mid, fb])


def ks_critical_1pct(n: int) -> float:
    """Asymptotic 1% Kolmogorov-Smirnov critical value, 1.63 / sqrt(n)."""
    return 1.6276 / math.sqrt(n)
