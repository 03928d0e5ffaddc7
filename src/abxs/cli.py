"""Command-line front end.

Two subcommands:

* ``eval``     - metric values over a parameter sweep, CSV on stdout
* ``simulate`` - Monte-Carlo histogram with the model density overlaid

Every flag left unset on the command line is resolved once, after parsing,
from the ``--fig`` preset, then the ``--config`` file, then the built-in
default. dB quantities convert as linear = 10^(dB/10) at this boundary only;
the library itself is all-linear. CSV cells use 17 significant digits so
values round-trip exactly. Exit codes: 0 success, 2 usage, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import re
import sys

import numpy as np

from . import metrics, montecarlo
from .channel import ChannelParams, snr_cdf, snr_cdf_asymptotic, snr_pdf, snr_pdf_asymptotic
from .metrics import ModulationScheme
from .specfun import ConvergenceError

SWEEP_VARIABLES = ("gamma_bar_db", "alpha", "m_x", "m_y")


class NumericalFailure(Exception):
    """Wraps a numerical error with the name of the failing operation."""

    def __init__(self, op: str, err: Exception) -> None:
        super().__init__(f"{op}: {err}")
        self.op = op


class UsageError(Exception):
    """Flag combination errors surfaced with exit code 2."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise UsageError instead of exiting."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def parse_range(text: str):
    """START:STEP:STOP (inclusive) or a single value, all finite."""
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise ValueError(f"expected VALUE or START:STEP:STOP, got {text!r}")
    values = [float(v) for v in parts]
    if not all(map(math.isfinite, values)):
        raise ValueError(f"range values must be finite, got {text!r}")
    if len(values) == 1:
        return values
    start, step, stop = values
    if step <= 0:
        raise ValueError(f"sweep step must be positive, got {step}")
    if start > stop:
        raise ValueError(f"sweep start {start} exceeds stop {stop}")
    out = []
    k = 0
    while True:
        v = start + k * step
        if v > stop + 1e-9 * max(1.0, abs(stop)):
            break
        out.append(min(v, stop))
        k += 1
    return out


_MODULATIONS = {
    "bpsk": ("bpsk", 2),
    "qpsk": ("mpsk", 4),
    "qam4": ("mqam", 4),
    "qam16": ("mqam", 16),
    "qam64": ("mqam", 64),
    "qam256": ("mqam", 256),
    "psk4": ("mpsk", 4),
    "psk8": ("mpsk", 8),
    "psk16": ("mpsk", 16),
    "fsk2": ("mfsk", 2),
    "fsk4": ("mfsk", 4),
    "fsk8": ("mfsk", 8),
}


def get_modulation(name: str) -> ModulationScheme:
    key = name.lower()
    if key not in _MODULATIONS:
        raise KeyError(f"unknown modulation {name!r}; choose from {sorted(_MODULATIONS)}")
    kind, order = _MODULATIONS[key]
    return metrics.modulation_coeffs(kind, order)


# Preset parameter scenarios (1: pdf overlay, 2: QAM-16 ABER vs mean SNR,
# 3: ABER vs nonlinearity for four fading/shadowing corners, 4: capacity),
# keyed by flag name; "curves" lists the curve overrides of the baseline, each
# a dict of ChannelParams fields that also become the CSV's label columns.
FIG_PRESETS = {
    1: {
        "metric": "pdf",
        "omega_x": 2.0, "omega_y": 2.0, "mx": 1.6, "my": 1.5,
        "snr_db": "3", "gamma": "0.05:0.05:8", "curves": [{"alpha": a} for a in (1.0, 2.0, 4.0)],
    },
    2: {
        "metric": "aber", "mod": "qam16",
        "omega_x": 1.0, "omega_y": 1.0, "mx": 1.2, "my": 1.2,
        "snr_db": "0:5:40", "curves": [{"alpha": a} for a in (1.0, 2.0, 3.0)],
    },
    3: {
        "metric": "aber", "mod": "qam16",
        "omega_x": -3.0, "omega_y": 3.0, "snr_db": "20",
        "sweep": "alpha=1:0.25:4",
        "curves": [{"m_x": mx, "m_y": my}
                   for mx, my in ((0.5, 0.5), (0.5, 2.5), (2.5, 0.5), (2.5, 2.5))],
    },
    4: {
        "metric": "capacity",
        "omega_x": 1.0, "omega_y": 1.0,
        "snr_db": "0:5:40",
        "curves": [{"m_x": m, "m_y": m, "alpha": a}
                   for m, a in ((0.5, 1.0), (0.5, 3.0), (2.5, 1.0), (2.5, 3.0))],
    },
}


# Built-in values of the flags that neither the command line, the preset nor
# the config file sets.
_COMMON_DEFAULTS = {"alpha": 2.0, "mx": 1.0, "my": 1.0, "omega_x": 0.0, "omega_y": 0.0,
                    "snr_db": "10", "seed": 1, "streams": 8}
_DEFAULTS = {
    "eval": {**_COMMON_DEFAULTS, "metric": "aber", "mod": "qam16", "gamma": "1",
             "oracle": False, "curves": [{}]},
    "simulate": {**_COMMON_DEFAULTS, "trials": 1_000_000, "bins": 100},
}


def build_parser() -> argparse.ArgumentParser:
    """The argument parser; every flag defaults to None so that unset flags show."""
    parser = _Parser(
        prog="abxs",
        description="alpha-Beaulieu-Xie shadowed fading channel toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="file of flags without dashes, one per line: "
                                        "key=value, or key alone for a switch")
        p.add_argument("--alpha", type=float, help="nonlinearity exponent")
        p.add_argument("--mx", type=float, help="overall fading severity m_x")
        p.add_argument("--my", type=float, help="LoS shadowing severity m_y")
        p.add_argument("--omega-x", type=float, help="NLoS power in dB")
        p.add_argument("--omega-y", type=float, help="LoS power in dB (-inf for no LoS)")
        p.add_argument("--snr-db", help="mean SNR in dB: value or START:STEP:STOP sweep")
        p.add_argument("--seed", type=int)
        p.add_argument("--streams", type=int)

    p_eval = sub.add_parser("eval", help="evaluate metrics over a sweep, CSV to stdout")
    add_common_flags(p_eval)
    p_eval.add_argument("--metric", choices=["pdf", "cdf", "aber", "capacity"])
    p_eval.add_argument("--fig", type=int, choices=sorted(FIG_PRESETS),
                        help="load a preset scenario (explicit flags still override)")
    p_eval.add_argument("--mod", help=f"modulation ({', '.join(sorted(_MODULATIONS))})")
    p_eval.add_argument("--gamma",
                        help="instantaneous SNR grid for pdf/cdf (linear): value or range")
    p_eval.add_argument("--sweep", help="VAR=START:STEP:STOP with VAR in "
                                        "gamma_bar_db, alpha, m_x, m_y")
    p_eval.add_argument("--oracle", action="store_true", default=None,
                        help="add the quadrature-oracle column (aber/capacity/cdf)")
    p_eval.add_argument("--mc", type=int, metavar="N",
                        help="add Monte-Carlo estimate column from N trials")

    p_sim = sub.add_parser("simulate", help="Monte-Carlo histogram + summary, CSV to stdout")
    add_common_flags(p_sim)
    p_sim.add_argument("--trials", type=int)
    p_sim.add_argument("--bins", type=int)
    matcher = re.compile(r"^-(\d+\.?\d*([eE][-+]?\d+)?|\.\d+|inf)$")
    for p in (parser, p_eval, p_sim):
        p._negative_number_matcher = matcher
    return parser


def _given(namespace: argparse.Namespace) -> dict:
    return {k: v for k, v in vars(namespace).items() if v is not None}


def _read_config(parser: argparse.ArgumentParser, command: str, path: str) -> dict:
    """The flags a --config file sets, parsed by the command's own subparser."""
    tokens = [command]
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, eq, value = line.partition("=")
                flag = "--" + key.strip().replace("_", "-")
                tokens.append(f"{flag}={value.strip()}" if eq else flag)
        return _given(parser.parse_args(tokens))
    except (OSError, UsageError) as err:
        raise UsageError(f"config file {path}: {err}") from None


def _resolve(parser: argparse.ArgumentParser, args: argparse.Namespace) -> argparse.Namespace:
    """Fill every unset flag from the preset, then the config file, then the default."""
    given = _given(args)
    config = _read_config(parser, args.command, args.config) if args.config else {}
    preset = FIG_PRESETS.get(given.get("fig", config.get("fig")), {})
    return argparse.Namespace(**{**vars(args), **_DEFAULTS[args.command], **config,
                                 **preset, **given})


def _curve_exact(metric: str, jobs) -> list:
    """The ``exact`` cells of one pdf or cdf curve, from one call over its gamma grid."""
    statistic = snr_pdf if metric == "pdf" else snr_cdf
    try:
        return statistic(jobs[0][3], np.array([job[4] for job in jobs])).tolist()
    except (ConvergenceError, OverflowError, ValueError, ZeroDivisionError) as err:
        raise NumericalFailure(f"{metric} evaluation", err)


def _eval_row(metric: str, params: ChannelParams, mod, gamma, exact, want_oracle, mc_cfg):
    """(exact, asymptotic, oracle?, mc?, mc_se?) for one grid point.

    The pdf and cdf ``exact`` cell comes in, from :func:`_curve_exact`. The
    aber and capacity ``exact`` cells are the gamma-mixture expectation,
    the value ``aber_exact`` / ``capacity_exact`` return.
    """
    out = []
    try:
        if metric == "pdf":
            out.append(exact)
            out.append(snr_pdf_asymptotic(params, gamma))
        elif metric == "cdf":
            out.append(exact)
            out.append(snr_cdf_asymptotic(params, gamma))
            if want_oracle:
                out.append(metrics.cdf_quadrature(params, gamma))
        elif metric == "aber":
            out.append(metrics.aber_mixture(params, mod).value)
            out.append(metrics.aber_asymptotic(params, mod).value)
            if want_oracle:
                out.append(metrics.aber_quadrature(params, mod).value)
            if mc_cfg is not None:
                est, se = montecarlo.mc_aber(params, mod, mc_cfg)
                out.extend([est, se])
        elif metric == "capacity":
            out.append(metrics.capacity_mixture(params).value)
            out.append(metrics.capacity_asymptotic(params))
            if want_oracle:
                out.append(metrics.capacity_quadrature(params))
            if mc_cfg is not None:
                est, se = montecarlo.mc_capacity(params, mc_cfg)
                out.extend([est, se])
    except (ConvergenceError, OverflowError, ValueError, ZeroDivisionError) as err:
        raise NumericalFailure(f"{metric} evaluation", err)
    return out


def cmd_eval(args) -> int:
    metric = args.metric
    if metric == "pdf" and args.oracle:
        raise UsageError("--oracle is not defined for the pdf metric")
    if metric in ("pdf", "cdf") and args.mc is not None:
        raise UsageError("--mc applies to the aber and capacity metrics only")
    mod = get_modulation(args.mod) if metric == "aber" else None
    mc_cfg = None
    if args.mc is not None:
        mc_cfg = montecarlo.SimulationConfig(seed=args.seed, trials=args.mc,
                                             streams=args.streams)

    # Build the grid, one list of jobs per curve:
    # (curve_label_cols, sweep_col_name, sweep_value, params, gamma)
    curves = []
    for curve in args.curves:
        overrides = dict(curve)
        label_cols = list(curve.items())

        if metric in ("pdf", "cdf"):
            snr_vals = parse_range(str(args.snr_db))
            if len(snr_vals) != 1:
                raise NumericalFailure("eval", ValueError(
                    "pdf/cdf sweeps run over --gamma; give a single --snr-db"))
            snr_db = snr_vals[0]
            curves.append([(label_cols, "gamma", g, _make_params(args, overrides, snr_db=snr_db), g)
                           for g in parse_range(str(args.gamma))])
        elif args.sweep:
            var, _, rng = str(args.sweep).partition("=")
            curves.append(_sweep_jobs(args, overrides, var.strip(), parse_range(rng), label_cols))
        else:
            curves.append(_sweep_jobs(args, overrides, "gamma_bar_db",
                                      parse_range(str(args.snr_db)), label_cols))

    label_cols, sweep_name = curves[0][0][:2]
    header = [name for name, _ in label_cols] + [sweep_name, "exact", "asymptotic"]
    if args.oracle:
        header.append("oracle")
    if mc_cfg is not None:
        header.extend(["mc", "mc_se"])
    print(",".join(header))

    for jobs in curves:
        exact = _curve_exact(metric, jobs) if metric in ("pdf", "cdf") else [None] * len(jobs)
        for (label_cols, _, sweep_val, pars, gamma), cell in zip(jobs, exact):
            values = _eval_row(metric, pars, mod, gamma, cell, args.oracle, mc_cfg)
            cells = [_fmt(v) for _, v in label_cols] + [_fmt(sweep_val)] + [_fmt(v) for v in values]
            print(",".join(cells))
    return 0


def _sweep_jobs(args, overrides, variable: str, values, label_cols):
    """One job per sweep value: the baseline parameters with the swept field replaced."""
    baseline = _make_params(args, overrides, snr_db=parse_range(str(args.snr_db))[0])
    if variable not in SWEEP_VARIABLES:
        raise UsageError(f"sweep variable must be one of {SWEEP_VARIABLES}, got {variable!r}")
    jobs = []
    for v in values:
        change = {"gamma_bar": db_to_linear(v)} if variable == "gamma_bar_db" else {variable: v}
        try:
            pars = dataclasses.replace(baseline, **change)
        except ValueError as err:
            raise NumericalFailure("parameter validation", err)
        jobs.append((label_cols, variable, v, pars, None))
    return jobs


def _make_params(args, overrides, snr_db):
    fields = {
        "m_x": float(args.mx),
        "m_y": float(args.my),
        "omega_x": db_to_linear(float(args.omega_x)),
        "omega_y": db_to_linear(float(args.omega_y)),
        "alpha": float(args.alpha),
        "gamma_bar": db_to_linear(float(snr_db)),
    }
    for key, value in overrides.items():
        fields[key] = value
    try:
        return ChannelParams(**fields)
    except ValueError as err:
        raise NumericalFailure("parameter validation", err)


def cmd_simulate(args) -> int:
    snr_vals = parse_range(str(args.snr_db))
    if len(snr_vals) != 1:
        raise NumericalFailure("simulate", ValueError("simulate takes a single --snr-db"))
    if args.bins < 1:
        raise UsageError(f"--bins must be >= 1, got {args.bins}")
    pars = _make_params(args, {}, snr_db=snr_vals[0])
    cfg = montecarlo.SimulationConfig(seed=args.seed, trials=args.trials,
                                      streams=args.streams)
    try:
        samples = montecarlo.snr_samples(pars, cfg)
        hi = float(np.quantile(samples, 0.999))
        edges = np.linspace(0.0, hi, args.bins + 1)
        counts, edges = np.histogram(samples, bins=edges)
        density = counts / (samples.size * np.diff(edges))
        model = snr_pdf(pars, 0.5 * (edges[:-1] + edges[1:]))  # at the bin centres
        ks = montecarlo.ks_statistic(samples, montecarlo.snr_cdf_fn(pars))
        crit = montecarlo.ks_critical_1pct(samples.size)
        mean = float(samples.mean())
        se = float(samples.std(ddof=1) / math.sqrt(samples.size))
    except (ConvergenceError, OverflowError, ValueError) as err:
        raise NumericalFailure("simulate", err)

    print("bin_lo,bin_hi,count,empirical_density,model_pdf")
    for i in range(len(counts)):
        print(",".join([_fmt(edges[i]), _fmt(edges[i + 1]), str(int(counts[i])),
                        _fmt(float(density[i])), _fmt(model[i])]))
    z = (mean - pars.gamma_bar) / se if se > 0 else 0.0
    print(f"# samples={samples.size} sample_mean={_fmt(mean)} "
          f"gamma_bar={_fmt(pars.gamma_bar)} mean_z_score={_fmt(z)}")
    print(f"# ks={_fmt(ks)} ks_critical_1pct={_fmt(crit)} "
          f"ks_{'PASS' if ks < crit else 'FAIL'}_at_1pct")
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = _resolve(parser, parser.parse_args(argv))
        return cmd_eval(args) if args.command == "eval" else cmd_simulate(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except NumericalFailure as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (UsageError, KeyError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
