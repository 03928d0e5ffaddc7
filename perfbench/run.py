"""abxs benchmark: one workload, timed end to end, or traced per layer.

    python3 perfbench/run.py --workload figures|domain|montecarlo \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it imports ``src/abxs``). It prints
a human-readable report, writes a result file under ``perfbench/out/``, and
ends with one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones, with
``--trace 1`` the per-layer ones. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("figures", "domain", "montecarlo")

# Fresh processes timed for setup_s; the median is reported.
SETUP_REPEATS = 3
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 120

# Per-layer span metrics: (span, fields) as named in the README's table.
LAYER_SPANS = (
    ("specfun.meijer_g", ("calls", "self_s", "errors")),
    ("specfun.kummer_1f1", ("calls", "self_s")),
    ("specfun.gauss_2f1", ("calls", "self_s")),
    ("specfun.reg_lower_inc_gamma", ("calls", "self_s")),
    ("specfun.reg_upper_inc_gamma", ("calls", "self_s")),
    ("channel.snr_pdf", ("calls", "self_s")),
    ("channel.snr_cdf", ("calls", "self_s")),
    ("channel.snr_ccdf", ("calls", "self_s")),
    ("quadpack.quad", ("calls", "self_s")),
    ("metrics.aber_exact", ("calls", "self_s", "errors")),
    ("metrics.capacity_exact", ("calls", "self_s", "errors")),
    ("metrics.aber_quadrature", ("self_s",)),
    ("metrics.capacity_quadrature", ("self_s",)),
    ("montecarlo.sample_snr", ("calls", "self_s")),
    ("montecarlo.ks_statistic", ("self_s",)),
    ("cli.main", ("self_s",)),
)
UNITS = {"calls": "count", "errors": "count", "self_s": "s"}
# Largest allowed gap between the summed self times and the traced wall time.
SELF_SUM_TOLERANCE = 0.05


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measuring time at reference speed; passes repeat until it is used up")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup_child(workload: str, seed: int) -> None:
    """In a fresh process: time importing abxs and building the inputs."""
    t0 = time.perf_counter()
    import abxs  # noqa: F401

    import measure
    import workloads

    workloads.make_inputs(workload, seed)
    t1 = time.perf_counter()
    # Probed after the timed part: the first runs of the probe in a fresh
    # process are slow for reasons of its own.
    probe = measure.SpeedProbe()
    for _ in range(SETUP_PROBES):
        probe.sample()
    slow = statistics.mean(probe.dur) / measure.PROBE_NOMINAL_S
    print(json.dumps({"raw_s": t1 - t0, "setup_s": (t1 - t0) / slow}))


def measure_setup(workload: str, seed: int):
    env = dict(os.environ)
    env.pop("ABXS_THREADS", None)
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-child",
             "--workload", workload, "--seed", str(seed), "--seconds", "0"],
            env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S, check=True)
        samples.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return samples


@dataclass
class Pass:
    wall_s: float      # at reference speed
    raw_wall_s: float  # as measured, probes excluded
    slowdown: float
    ops: list          # latencies at reference speed
    raw_ops: list      # latencies as measured
    cache: dict


def run_passes(workloads, measure, inputs, seconds: float, tracer):
    """Cold passes until `seconds` of pass time at reference speed are
    measured; with a tracer, untraced and traced passes alternate. Returns
    {"plain": [Pass], "traced": [Pass]}.

    Counting reference-speed time, not elapsed time, keeps the number of
    passes (and so which latency percentile has 10 samples beyond it) the
    same from run to run on a host whose speed drifts.
    """
    results = {"plain": [], "traced": []}
    run_pass = workloads.PASSES[inputs.workload]
    measured = 0.0
    while True:
        for mode in (("plain", "traced") if tracer else ("plain",)):
            probe = measure.SpeedProbe()
            if mode == "traced":  # probe time gets spans of its own
                probe.sample = tracer.wrap("bench.probe", probe.sample)
            cache = {}
            probe.sample()
            if mode == "traced":
                tracer.install(hooks=trace_hooks())
            spent = probe.spent
            t0 = time.perf_counter()
            if mode == "traced":
                with tracer.span("bench.pass"):
                    ops = run_pass(inputs, cache, probe)
            else:
                ops = run_pass(inputs, cache, probe)
            t1 = time.perf_counter()
            raw = t1 - t0 - (probe.spent - spent)
            if mode == "traced":
                tracer.uninstall()
            probe.sample()
            workloads.cold_start(cache)  # adds the last CLI run's cache counts
            slow = probe.slowdown(t0, t1)
            results[mode].append(Pass(raw / slow, raw, slow,
                                      measure.merge_repeats(probe.normalize(ops)),
                                      measure.merge_repeats(ops), cache))
            measured += raw / slow
        if measured >= seconds:
            return results


def trace_hooks():
    def exact(tracer, result):
        tracer.count("exact.returned")
        if result.path == "series-quadrature":
            tracer.count("exact.fallback")
        return result

    def draws(tracer, result):
        tracer.count("montecarlo.sample_snr.draws", getattr(result, "size", 1))
        return result

    def closure(tracer, result):
        return tracer.wrap("montecarlo.snr_cdf_fn.eval", result)

    return {"metrics.aber_exact": exact, "metrics.capacity_exact": exact,
            "montecarlo.sample_snr": draws, "montecarlo.snr_cdf_fn": closure}


def end_to_end_metrics(passes, setup, measure):
    ops = [op for p in passes for op in p.ops]
    lat = measure.latency_summary(ops)
    fails = measure.failure_summary(ops)
    metrics = {
        "setup_s": (statistics.median(s["setup_s"] for s in setup), "s"),
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "op_p50_ms": (lat["p50_ms"], "ms"),
        "op_p90_ms": (lat["tail_ms"], "ms"),
        "fail_share": (measure.fail_share(fails["attempted"], fails["failed"]), "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {"passes": len(passes), "setup_samples": setup,
              "wall_samples": [p.wall_s for p in passes],
              "raw_wall_samples": [p.raw_wall_s for p in passes],
              "slowdowns": [p.slowdown for p in passes], "latency": lat,
              "raw_latency": measure.latency_summary([op for p in passes for op in p.raw_ops]),
              "raw_setup_s": statistics.median(s["raw_s"] for s in setup),
              "exact_fail_share": fails["failed"] / fails["attempted"]}
    return metrics, detail, ops


def per_layer_metrics(tracer, results):
    traced, plain = results["traced"], results["plain"]
    n = len(traced)
    slow = statistics.mean(p.slowdown for p in traced)
    spans = tracer.by_name()
    empty = {"calls": 0, "self_s": 0.0, "errors": 0, "total_s": 0.0}
    metrics = {}
    for name, fields in LAYER_SPANS:
        s = spans.get(name, empty)
        for f in fields:
            scale = n * slow if f == "self_s" else n
            metrics[f"{name}.{f}"] = (s[f] / scale, UNITS[f])
    hits = sum(p.cache.get("hits", 0) for p in traced)
    misses = sum(p.cache.get("misses", 0) for p in traced)
    metrics["channel.derived_constants.hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0, "ratio")
    returned = tracer.counters.get("exact.returned", 0)
    metrics["metrics.exact_fallback_share"] = (
        tracer.counters.get("exact.fallback", 0) / returned if returned else 0.0, "ratio")
    metrics["montecarlo.sample_snr.draws"] = (
        tracer.counters.get("montecarlo.sample_snr.draws", 0) / n, "count")
    metrics["montecarlo.snr_cdf_fn.eval_s"] = (
        spans.get("montecarlo.snr_cdf_fn.eval", empty)["total_s"] / (n * slow), "s")
    traced_wall = statistics.median(p.wall_s for p in traced)
    plain_wall = statistics.median(p.wall_s for p in plain)
    metrics["trace_overhead"] = (traced_wall / plain_wall, "ratio")

    # The layer spans' self times against the traced passes' measured time
    # (probes left out of both). bench.pass, which encloses each pass, is
    # left out too: its self time is what no layer wrapper covers.
    raw_wall = sum(p.raw_wall_s for p in traced)
    self_sum = sum(s["self_s"] for name, s in spans.items()
                   if name not in ("bench.pass", "bench.probe"))
    detail = {"traced_passes": n, "spans": len(tracer.start), "slowdown": slow,
              "traced_wall_s": traced_wall, "plain_wall_s": plain_wall,
              "self_sum_raw_s": self_sum, "traced_raw_wall_s": raw_wall,
              "self_sum_share": self_sum / raw_wall,
              "by_span": spans, "counters": tracer.counters}
    ops = [op for p in traced for op in p.ops]
    return metrics, detail, ops


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isfile(os.path.join(SRC, "abxs", "__init__.py")):
        print(f"error: no abxs sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    os.environ.pop("ABXS_THREADS", None)  # the CLI's thread count must not vary
    sys.path.insert(0, SRC)
    if args.setup_child:
        setup_child(args.workload, args.seed)
        return 0

    setup = None if args.trace else measure_setup(args.workload, args.seed)

    import measure
    import spans
    import workloads

    inputs = workloads.make_inputs(args.workload, args.seed)
    tracer = spans.Tracer() if args.trace else None
    results = run_passes(workloads, measure, inputs, args.seconds, tracer)

    if args.trace:
        metrics, detail, ops = per_layer_metrics(tracer, results)
    else:
        metrics, detail, ops = end_to_end_metrics(results["plain"], setup, measure)
    fails = measure.failure_summary(ops)
    # A wrong value is a failed operation (off_reference), as a raised error
    # is. `correct` says each pass accounted for every expected operation,
    # no operation outside the seed's known failures returned a wrong value
    # and, traced, the layer spans cover the traced wall time.
    mode = "traced" if args.trace else "plain"
    unexpected = workloads.unexpected_off_reference(inputs, ops)
    correct = (all(len(p.ops) == workloads.expected_ops(inputs) for p in results[mode])
               and not unexpected)
    if args.trace:
        correct = correct and abs(detail["self_sum_share"] - 1.0) <= SELF_SUM_TOLERANCE
    fails["unexpected_off_reference"] = [list(k) for k in unexpected]

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": measure.environment(ROOT),
              "correct": correct, "failures": fails, "detail": detail,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        tracer.save(stem + "-spans.npz")

    print_report(record)
    print(json.dumps({"correct": correct, "attempted": fails["attempted"],
                      "failed": fails["failed"], "metrics": record["metrics"]}))
    return 0


def print_report(record) -> None:
    d = record["detail"]
    env = record["environment"]
    print(f"# abxs benchmark: workload={record['workload']} seed={record['seed']} "
          f"trace={record['trace']} nproc={env['nproc']} commit={env['git_commit']}")
    f = record["failures"]
    by = ", ".join(f"{k}={v}" for k, v in f["by_class"].items())
    print(f"operations: attempted={f['attempted']} failed={f['failed']} ({by})")
    if f["unexpected_off_reference"]:
        print(f"off reference, not known at the seed: {f['unexpected_off_reference']}")
    if record["trace"]:
        print(f"traced passes={d['traced_passes']} spans={d['spans']} "
              f"slowdown={d['slowdown']:.3f} self-time sum={d['self_sum_raw_s']:.4f} s "
              f"= {d['self_sum_share']:.4f} of traced raw wall {d['traced_raw_wall_s']:.4f} s")
    else:
        lat = d["latency"]
        print(f"passes={d['passes']} slowdowns={[round(s, 3) for s in d['slowdowns']]} "
              f"raw walls={[round(w, 3) for w in d['raw_wall_samples']]} s "
              f"setup samples={len(d['setup_samples'])} latency samples={lat['samples']} "
              f"(op_p50_ms is p{lat['p50_q']}, op_p90_ms is p{lat['tail_q']})")
    for name, m in record["metrics"].items():
        print(f"{name:44s} {m['value']:.6g} {m['unit']}")


if __name__ == "__main__":
    sys.exit(main())
