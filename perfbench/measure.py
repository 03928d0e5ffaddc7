"""Operation records, failure classes, the percentile rule and run metadata."""

from __future__ import annotations

import math
import os
import platform
import sys
import time
from dataclasses import dataclass

import numpy as np
from scipy import special

# Failure classes, in report order.
CONVERGENCE = "ConvergenceError"
OVERFLOW = "OverflowError"
LEAKED_VALUE = "ValueError"
OTHER = "other_exception"
NONZERO_EXIT = "nonzero_exit"
OFF_REFERENCE = "off_reference"
FAILURE_CLASSES = (CONVERGENCE, OVERFLOW, LEAKED_VALUE, OTHER, NONZERO_EXIT, OFF_REFERENCE)

# A percentile is reported only when at least this many samples lie beyond it.
TAIL_SAMPLES = 10


@dataclass(frozen=True)
class Op:
    """One operation: its latency in seconds (None if it produced no timing),
    its failure class (None if it succeeded), when it started, and a key
    shared by repeated runs of the same operation (None: not repeated)."""

    seconds: float | None
    failure: str | None
    start: float = 0.0
    key: tuple | None = None


def merge_repeats(ops):
    """One Op per key, in first-seen order: the mean latency (None if a run
    has none) and the first failure among the runs. Unkeyed ops pass through."""
    groups = {}
    for i, op in enumerate(ops):
        groups.setdefault(("unkeyed", i) if op.key is None else op.key, []).append(op)
    merged = []
    for runs in groups.values():
        secs = [op.seconds for op in runs]
        failure = next((op.failure for op in runs if op.failure is not None), None)
        mean = None if None in secs else sum(secs) / len(secs)
        merged.append(Op(mean, failure, runs[0].start, runs[0].key))
    return merged


# -- machine speed ------------------------------------------------------------

# The probe's time at reference speed. Times are reported as measured time
# divided by the slowdown, the probe's measured time over this; it is the
# median probe time over the passes of 30 seed-commit runs on the 2-core
# Intel Xeon the benchmark was written on (3.11 ms), so reported times stay
# close to measured ones there.
PROBE_NOMINAL_S = 0.0031
# Least time between two probes taken between operations: most operations
# get a probe right before and right after them.
PROBE_INTERVAL_S = 0.02
# Probes this close to an interval count towards its slowdown.
PROBE_WINDOW_S = 0.05


_PROBE_X = np.linspace(0.1, 5.0, 10_000)


def _probe_kernel() -> None:
    # Half interpreted float arithmetic, like the library's series, and half
    # compiled array work, like its sampler and vectorised cdf.
    s = 0.0
    for i in range(20_000):
        s = s * 0.999 + i * 1e-3
    special.gammainc(1.7, _PROBE_X)
    np.random.default_rng(1).gamma(1.5, 1.0, _PROBE_X.size)


class SpeedProbe:
    """Samples the machine's speed between operations with a fixed loop.

    On a shared host the same code runs faster or slower by 20% and more
    from one stretch of time to the next, over milliseconds and over tens of
    seconds. The probe runs where no operation is being timed and is
    excluded from every measured time; dividing a time by the slowdown
    around it removes most of the host's drift and keeps what the program
    changed.
    """

    def __init__(self) -> None:
        self.mid = []
        self.dur = []
        self.spent = 0.0
        self._last = -math.inf

    def sample(self) -> None:
        t0 = time.perf_counter()
        _probe_kernel()
        t1 = time.perf_counter()
        self.mid.append(0.5 * (t0 + t1))
        self.dur.append(t1 - t0)
        self.spent += t1 - t0
        self._last = t1

    def maybe(self) -> None:
        """Sample unless the last sample is less than PROBE_INTERVAL_S old."""
        if time.perf_counter() - self._last >= PROBE_INTERVAL_S:
            self.sample()

    def slowdown(self, a: float, b: float) -> float:
        """Mean probe time over [a, b] relative to PROBE_NOMINAL_S.

        The mean runs over the probes inside the interval or within
        PROBE_WINDOW_S of its ends (for one operation: the probes right
        before and after it), or takes the nearest probe if there is none.
        """
        mid = np.asarray(self.mid)
        near = (mid >= a - PROBE_WINDOW_S) & (mid <= b + PROBE_WINDOW_S)
        if near.any():
            return float(np.mean(np.asarray(self.dur)[near])) / PROBE_NOMINAL_S
        return self.dur[int(np.argmin(np.abs(mid - 0.5 * (a + b))))] / PROBE_NOMINAL_S

    def normalize(self, ops):
        """ops with each latency divided by the slowdown over the operation."""
        return [op if op.seconds is None else
                Op(op.seconds / self.slowdown(op.start, op.start + op.seconds),
                   op.failure, op.start, op.key)
                for op in ops]


def classify(err: BaseException) -> str:
    """Failure class of an exception an operation raised."""
    # Looked up by name so that classification needs no import of abxs.
    names = {cls.__name__ for cls in type(err).__mro__}
    if "ConvergenceError" in names:
        return CONVERGENCE
    if isinstance(err, OverflowError):
        return OVERFLOW
    if isinstance(err, ValueError):
        return LEAKED_VALUE
    return OTHER


def tail_percentile(n: int, wanted: int = 90) -> int | None:
    """Highest whole percentile <= wanted with at least TAIL_SAMPLES samples beyond it.

    The q-th percentile of n sorted samples is the one at nearest rank
    ceil(q n / 100); the samples beyond it number n minus that rank.
    None when not even the 1st percentile qualifies.
    """
    for q in range(wanted, 0, -1):
        if n - math.ceil(q * n / 100) >= TAIL_SAMPLES:
            return q
    return None


def percentile(values, q: int) -> float:
    """Nearest-rank q-th percentile of a nonempty sequence."""
    xs = sorted(values)
    rank = max(1, math.ceil(q * len(xs) / 100))
    return xs[rank - 1]


def latency_summary(ops) -> dict:
    """Median and tail latency in ms over every timed operation.

    The tail is p90 when at least TAIL_SAMPLES samples lie beyond it, else
    the highest percentile that meets that rule; ``tail_q`` says which.
    """
    xs = [op.seconds * 1e3 for op in ops if op.seconds is not None]
    if not xs:
        raise ValueError("no timed operations")
    q_mid = tail_percentile(len(xs), 50) or 50
    q_tail = tail_percentile(len(xs), 90) or q_mid
    return {"samples": len(xs), "p50_q": q_mid, "p50_ms": percentile(xs, q_mid),
            "tail_q": q_tail, "tail_ms": percentile(xs, q_tail)}


def failure_summary(ops) -> dict:
    counts = {cls: 0 for cls in FAILURE_CLASSES}
    for op in ops:
        if op.failure is not None:
            counts[op.failure] += 1
    failed = sum(counts.values())
    return {"attempted": len(ops), "failed": failed, "by_class": counts}


def fail_share(attempted: int, failed: int) -> float:
    """Failed over attempted, with half a failure and one attempt added.

    The added half (the Krichevsky-Trofimov estimate) keeps a workload with
    no failures above 0, so the share has a defined relative change; it
    moves the exact share failed / attempted by at most 1 / (attempted + 1).
    """
    return (failed + 0.5) / (attempted + 1)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: str) -> str:
    """HEAD's commit read from .git, or 'unknown' outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: str) -> dict:
    import numpy
    import scipy

    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_commit": _git_commit(root)}
