"""Scalar special-function kernel in IEEE double precision.

Provides Kummer's 1F1, the Gauss 2F1, the bivariate confluent Appell
function Phi2 and a real-argument Meijer G evaluator, each on the arguments
the model passes: 1F1 and Phi2 at nonnegative arguments, 2F1 at
0 <= z < 1. Outside that domain they raise ValueError. The Gauss 2F1 is a
thin wrapper around ``scipy.special.hyp2f1``; log-gamma and the regularized
incomplete gammas come from ``math`` and scipy.special. Kummer's 1F1 is
summed here for Phi2. ``_log_scaled_1f1`` is the reference log(e^-x 1F1)
of the quadrature oracle and the alpha = 2 envelope density: scipy's
``hyp1f1``, and past x = 650 or where it overflows the large-x expansion
``_log_scaled_1f1_large_x``, which the mixture density kernel also takes,
from x = max(200, 6b) on. Phi2 and Meijer G have no scipy counterpart.

The 1F1 power series of ``kummer_1f1`` and the Phi2 series share one
stopping rule with fixed tolerances:
stop once three consecutive terms fall below 1e-14 times the partial sum
(a guard against stopping on one stray small term); in the 1F1 series each
of the three must also be no larger than the term before it, so a term
made tiny by a small a does not end a series whose later terms grow again.
Raise ConvergenceError after 10000 terms. Every sum is in plain double
precision: on these domains the 1F1 and Phi2 terms are nonnegative, so
nothing cancels. No arbitrary-precision library is used anywhere.

Meijer G is evaluated by numerical Mellin-Barnes contour integration, on
the vertical line through the integrand's saddle point on the real axis.
The contour evaluates its gamma factors with scipy's complex ``loggamma``,
one call per factor and trapezoid level, after merging each run of
parameters spaced 1/N into a single factor by Gauss's multiplication
formula. It finds where to cut the line on its first level's own nodes; each
refinement evaluates only the new midpoints, and refinement stops once two
levels agree to 1e-12 or the shrinking level differences show that the next
would. Contours sharing a memo share its line and keep each common factor's
values as one prefix that grows with the longest cut, so each value is
evaluated once. A contour whose finest two levels differ by more than 1e-7
raises ConvergenceError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special
from scipy.special import loggamma
from scipy.special.cython_special import hyp1f1


class ConvergenceError(ArithmeticError):
    """A series or contour quadrature failed to stabilize within its budget."""


# The stopping rule of the module docstring.
_REL_TOL = 1e-14
_MAX_TERMS = 10000
_STOP_STREAK = 3

_LN_2PI = 1.8378770664093454836


def kummer_1f1(a: float, b: float, x: float) -> float:
    """Kummer's confluent hypergeometric 1F1(a; b; x) for finite a >= 0, b > 0 and x >= 0.

    The model passes a = 1 and x = u through Phi2. There every term of the
    power series is nonnegative, so it is summed directly, each term the
    last times its ratio (a + k) x / ((b + k)(k + 1)), so a term overflows
    only where the sum would. Where the value passes the largest double it
    raises OverflowError, and past x = 709 it raises OverflowError without
    summing. Other arguments raise ValueError.
    """
    if not (0.0 <= a < math.inf and b > 0.0 and x >= 0.0):
        raise ValueError(f"kummer_1f1 requires finite a >= 0, b > 0, x >= 0, got ({a}, {b}, {x})")
    if x > 709.0:
        raise OverflowError(f"kummer_1f1 argument {x} is past 709; use a log-scaled path")
    term = total = 1.0
    streak = 0
    for k in range(_MAX_TERMS):
        prev = term
        term *= (a + k) * x / ((b + k) * (k + 1.0))
        total += term
        if term <= _REL_TOL * max(total, 1e-300) and term <= prev:
            streak += 1
            if streak >= _STOP_STREAK:
                break
        else:
            streak = 0
    else:
        raise ConvergenceError("1F1 series exhausted max_terms")
    if total == math.inf:
        raise OverflowError(f"1F1({a}; {b}; {x}) exceeds the largest double")
    return total


def gauss_2f1(a: float, b: float, c: float, z: float) -> float:
    """Gauss hypergeometric 2F1(a, b; c; z) for 0 <= z < 1 and c > 0, from scipy's ``hyp2f1``.

    The model needs it only at z = beta_bar, in the normaliser after Pfaff's
    map; other arguments raise ValueError. scipy's value can be inf or nan,
    which the caller checks.
    """
    if not c > 0.0:
        raise ValueError(f"gauss_2f1 requires c > 0, got {c}")
    if not 0.0 <= z < 1.0:
        raise ValueError(f"gauss_2f1 requires 0 <= z < 1, got {z}")
    return float(special.hyp2f1(a, b, c, z))


def appell_phi2(b1: float, b2: float, c: float, x: float, y: float) -> float:
    """Confluent Appell Phi2(b1, b2; c; x, y) for b1 >= 0, c > 0 and finite x, y >= 0.

    Evaluated through the single-series expansion in 1F1 kernels,

        Phi2 = sum_k [(b2)_k y^k / ((c)_k k!)] 1F1(b1; c + k; x),

    which is validated against the normative double series in the test suite.
    The model passes x = u and y = beta_bar u with b2 = m_y > 0, where every
    term is nonnegative, so the outer sum is a plain one. Other arguments
    raise ValueError, and x past 709 raises OverflowError from the kernel.
    """
    if not c > 0.0:
        raise ValueError(f"appell_phi2 requires c > 0, got {c}")
    if not (0.0 <= x < math.inf and 0.0 <= y < math.inf):
        raise ValueError(f"appell_phi2 requires finite x, y >= 0, got ({x}, {y})")
    if y == 0.0:
        return kummer_1f1(b1, c, x)
    weight = 1.0  # (b2)_k y^k / ((c)_k k!)
    total = 0.0
    streak = 0
    for k in range(_MAX_TERMS):
        term = weight * kummer_1f1(b1, c + k, x)
        total += term
        if abs(term) <= _REL_TOL * max(abs(total), 1e-300) and k >= 1:
            streak += 1
            if streak >= _STOP_STREAK:
                return total
        else:
            streak = 0
        weight *= (b2 + k) * y / ((c + k) * (k + 1.0))
    raise ConvergenceError("appell_phi2 series exhausted max_terms")


def _log_scaled_1f1_large_x(a: float, b: float, x: float) -> float:
    """log(e^-x 1F1(a; b; x)) from the large-x asymptotic expansion (x >> 1).

    1F1 ~ Gamma(b)/Gamma(a) e^x x^(a-b) sum_k (b-a)_k (1-a)_k / (k! x^k)
    (DLMF 13.7.2, without its part that carries e^-x). The sum stops at the
    first term within 1e-16 of the partial sum. Its terms may grow at first
    (by about a^2 / x per term when a is large), but a term that grows after
    one has shrunk means the expansion diverges before it converges, and
    ConvergenceError is raised. Serves callers whose power series overflows;
    the e^x is left out, so a caller's -x does not cancel against it.
    Below x = 6b it can converge to a wrong value (0.86 off in the log at
    (70, 300, 800), against 40-digit mpmath), so there it raises
    ConvergenceError without summing. Its terms can also cancel: to a sum
    that is not positive (at (200, 1000, 6000)), or to one below 1e-5 of
    sum_k |term_k|, which loses more than about 1e-12 in the log; both
    raise. That ratio was at most 6.9e3 on a in [0.1, 400], b in [0.1, 200]
    and max(200, 6b) <= x <= 650; it is 8.5e5 at (50, 300, 1800), 1.8e7 at
    (70, 2000, 16000) and 5.2e9 at (70, 2000, 12000), where the log was off
    by 7.7e-12, 4.5e-11 and 7.2e-8 against 50-digit mpmath.
    """
    if x < 6.0 * b:
        raise ConvergenceError(f"large-x 1F1 expansion refused at x = {x:g} < 6b = {6.0 * b:g}")
    s = term = size = 1.0
    shrunk = False
    k = 0
    while True:
        prev = abs(term)
        term *= (b - a + k) * (1.0 - a + k) / ((k + 1.0) * x)
        s += term
        size += abs(term)
        if abs(term) <= 1e-16 * abs(s):
            break
        if not math.isfinite(term) or (shrunk and abs(term) > prev):
            raise ConvergenceError("large-x 1F1 expansion diverges before it converges")
        shrunk = shrunk or abs(term) < prev
        k += 1
    if not (s > 0.0 and size <= 1e5 * s):
        raise ConvergenceError(f"large-x 1F1 expansion cancelled to {s:g} from {size:g}")
    return math.lgamma(b) - math.lgamma(a) + (a - b) * math.log(x) + math.log(s)


def _log_scaled_1f1(a: float, b: float, x: float) -> float:
    """log(e^-x 1F1(a; b; x)) for x >= 0 from scipy's hyp1f1, asymptotic past its range.

    The reference the quadrature oracle and the alpha = 2 envelope density
    take, independent of the mixture density. hyp1f1 is taken from
    ``scipy.special.cython_special``: the same routine as the
    ``scipy.special.hyp1f1`` ufunc, without the ufunc's per-call overhead on
    a Python float (0.2 us against 0.9 us). Past x = 650, or where hyp1f1
    overflows, the large-x expansion raises ConvergenceError at x < 6b,
    where it can converge to a wrong value.
    """
    value = hyp1f1(a, b, x) if x <= 650.0 else math.inf
    if math.isfinite(value):
        return math.log(value) - x
    return _log_scaled_1f1_large_x(a, b, x)


# ---------------------------------------------------------------------------
# Meijer G
#
# Convention: G^{m,n}_{p,q}(z | a; b) is the Mellin-Barnes integral of
#
#   Phi(s) = prod_{j<=m} Gamma(b_j - s) prod_{j<=n} Gamma(1 - a_j + s)
#          / [prod_{j>m} Gamma(1 - b_j + s) prod_{j>n} Gamma(a_j - s)] * z^s
#
# along a vertical line separating the ascending pole ladders s = b_j + l
# (j <= m) from the descending ladders s = a_j - 1 - l (j <= n).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MeijerGSpec:
    """Order indices and parameter lists of a Meijer G function.

    ``m`` counts the lower parameters whose gamma factors give the ascending
    pole ladders right of the contour; ``n`` counts the upper parameters
    whose factors give the descending ladders left of it.
    """

    m: int
    n: int
    a_params: tuple
    b_params: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "a_params", tuple(float(v) for v in self.a_params))
        object.__setattr__(self, "b_params", tuple(float(v) for v in self.b_params))
        if not (0 <= self.m <= len(self.b_params)):
            raise ValueError(f"need 0 <= m <= len(b_params), got m={self.m}")
        if not (0 <= self.n <= len(self.a_params)):
            raise ValueError(f"need 0 <= n <= len(a_params), got n={self.n}")
        for v in self.a_params + self.b_params:
            if not math.isfinite(v):
                raise ValueError("Meijer G parameters must be finite")


def meijer_g(spec: MeijerGSpec, z: float) -> float:
    """Evaluate G^{m,n}_{p,q}(z | a; b) for real parameters and z > 0.

    By numerical Mellin-Barnes contour integration (:func:`_meijer_contour`).
    A G with more upper than lower parameters is first taken to the same G
    at 1/z with reflected parameters (DLMF 16.19.1).
    Raises ConvergenceError when m = 0 after that, or when the contour does.
    """
    if not (z > 0.0 and math.isfinite(z)):
        raise ValueError(f"meijer_g requires finite z > 0, got {z}")
    if len(spec.a_params) > len(spec.b_params):
        flipped = MeijerGSpec(
            m=spec.n,
            n=spec.m,
            a_params=tuple(1.0 - b for b in spec.b_params),
            b_params=tuple(1.0 - a for a in spec.a_params),
        )
        return meijer_g(flipped, 1.0 / z)
    if spec.m == 0:
        raise ConvergenceError("meijer_g needs at least one contributing lower parameter")
    return _meijer_contour(spec, z)


def _gauss_runs(values, tol: float = 1e-12):
    """Split ``values`` into runs c, c + 1/N, ..., c + (N-1)/N; returns [(c, N)].

    By Gauss's multiplication formula a run's gamma factors collapse into one,
    prod_{i<N} Gamma(w + i/N) = (2 pi)^((N-1)/2) N^(1/2 - N w) Gamma(N w),
    so the contour evaluates one loggamma per run. Longer runs are taken
    first; values left over are runs of 1.
    """
    rest = sorted(values)
    starts = set()
    for i, c in enumerate(rest):
        for v in rest[i + 1:]:
            d = v - c
            n = round(1.0 / d) if d > tol else 0
            if 2 <= n <= len(rest) and abs(d - 1.0 / n) <= tol:
                starts.add((n, c))
    runs = []
    for n, c in sorted(starts, key=lambda nc: (-nc[0], nc[1])):
        found = []
        for i in range(n):
            target = c + i / n
            j = next((j for j, v in enumerate(rest)
                      if abs(v - target) <= tol and j not in found), None)
            if j is None:
                break
            found.append(j)
        else:
            for j in sorted(found, reverse=True):
                del rest[j]
            runs.append((c, n))
    return runs + [(c, 1) for c in rest]


# The contour's cut, as the log of the integrand below its peak, and its two
# level stopping tolerances: see _meijer_contour.
_CONTOUR_CUT = 46.0
_LEVEL_TOL = 1e-12
_NEXT_LEVEL_TOL = 1e-13


def _meijer_contour(spec: MeijerGSpec, z: float, memo: dict | None = None) -> float:
    """G via trapezoidal Mellin-Barnes quadrature on a vertical line.

    The line runs through the integrand's saddle point on the real axis (Gil,
    Segura and Temme, Numerical Methods for Special Functions, SIAM 2007): of
    64 points strictly between the pole ladders (down to 60 below the
    ascending ladder when no descending ladder bounds it), the one where the
    log-integrand is smallest. A nan from ``loggamma`` marks a pole of some
    factor and counts as +inf, so the line never sits on a pole. Away from
    the saddle the integrand oscillates at magnitudes far above the value,
    which the trapezoid sum then loses to cancellation.

    The trapezoid rule on the line converges exponentially in the node
    count (Trefethen and Weideman, SIAM Review 56(3), 2014). Level 0 has
    step 1/4; its nodes t = j/4 are walked outward, doubling their count,
    until the last one falls below e^-46 of the peak seen, and the sum is
    cut after the last node above that. Each later level halves the step
    and adds only the new midpoints below the cut. Refinement stops when two
    levels differ by at most 1e-12 relative, or when the differences d_n
    shrink fast enough that d_n^2 / d_(n-1), the next difference at a
    constant ratio, is at most 1e-13.

    ``memo`` keeps the line under ``"sigma"`` and, per step, offset and gamma
    factor, the factor's values on the nodes t = h (j + offset) as one prefix
    that grows on demand, so calls sharing it evaluate a factor they have in
    common, on the same line and nodes, once, whatever their cuts. A call
    keeps the memo's line when it lies between its own ladders.

    Raises ConvergenceError when the last two of the 9 trapezoid levels still
    differ by more than 1e-7 relative.
    """
    a, b = spec.a_params, spec.b_params
    m, n = spec.m, spec.n
    p, q = len(a), len(b)
    decay = m + n - 0.5 * (p + q)
    if decay <= 1e-12:
        raise ConvergenceError("Mellin-Barnes integrand does not decay for these orders")
    right_min = min(b[:m])
    if n > 0:
        left_max = max(a[:n]) - 1.0
        if left_max >= right_min - 1e-12:
            raise ConvergenceError("no vertical line separates the Meijer G pole ladders")
    else:
        left_max = right_min - 60.0
    lnz = math.log(z)
    # The integrand is exp(const + slope_s s) prod_j Gamma(shift_j + slope_j s) ** power_j;
    # factors holds (shift_j, slope_j, power_j), numerators first.
    factors = []
    const, slope_s = 0.0, lnz
    for values, sgn, pw in ((b[:m], -1.0, 1.0), ([1.0 - aj for aj in a[:n]], 1.0, 1.0),
                            ([1.0 - bj for bj in b[m:]], 1.0, -1.0), (a[n:], -1.0, -1.0)):
        for c, size in _gauss_runs(values):
            factors.append((size * c, size * sgn, pw))
            ln_size = math.log(size)
            const += pw * (0.5 * (size - 1) * _LN_2PI + (0.5 - size * c) * ln_size)
            slope_s -= pw * size * sgn * ln_size
    memo = {} if memo is None else memo
    if not left_max < memo.get("sigma", math.nan) < right_min:
        grid = left_max + (right_min - left_max) * np.arange(1, 65) / 65.0
        log_real = slope_s * grid
        for c, sl, pw in factors:
            log_real += pw * loggamma(c + sl * grid + 0j).real
        log_real[np.isnan(log_real)] = np.inf
        memo["sigma"] = float(grid[np.argmin(log_real)])
    sigma = memo["sigma"]

    def log_integrand(h: float, offset: float, count: int) -> np.ndarray:
        """log of the integrand at s = sigma + i t on the nodes t = h (j + offset), j < count."""
        s = sigma + 1j * (h * (np.arange(count) + offset))
        rows = []
        for c, sl, pw in factors:
            key = (sigma, h, offset, c, sl, pw)
            row = memo.get(key)
            done = 0 if row is None else row.size
            if done < count:
                new = loggamma(c + sl * s[done:])
                new = new if pw > 0.0 else -new
                row = new if row is None else np.concatenate((row, new))
                memo[key] = row
            rows.append(row[:count])
        # Added row by row in factor order (denominators stored negated): a BLAS
        # product woke worker threads whose start-up slowed a process's first
        # seconds of contours by a third.
        out = sum(rows[1:], rows[0]) + (const + slope_s * s)
        # loggamma is nan at its poles, which only a denominator factor can
        # reach (on the real axis, on a memo's line chosen for another
        # contour); 1/Gamma vanishes there.
        out[np.isnan(out)] = -np.inf
        return out

    # Level 0: walk the nodes t = j h outward until the last one is below
    # e^-_CONTOUR_CUT of the peak; the integrand's real part is even in t.
    h = 0.25
    count = 32
    while True:
        logf = log_integrand(h, 0.0, count)
        peak = logf.real.max()
        if logf[-1].real - peak <= -_CONTOUR_CUT:
            break
        count *= 2
        if h * count > 2e4:
            raise ConvergenceError("Mellin-Barnes truncation point not found")
    nodes = max(int(np.flatnonzero(logf.real > peak - _CONTOUR_CUT)[-1]), 1)
    level_sum = (0.5 * np.exp(logf[0] - peak).real
                 + np.exp(logf[1:nodes + 1] - peak).real.sum())
    value = h * level_sum
    diff = math.inf
    for _ in range(8):
        level_sum += np.exp(log_integrand(h, 0.5, nodes) - peak).real.sum()
        h *= 0.5
        nodes *= 2
        prev, value, prev_diff = value, h * level_sum, diff
        diff = abs(value - prev) / max(abs(value), 1e-280)
        # The first difference has no predecessor to extrapolate from.
        if diff <= _LEVEL_TOL or (diff < prev_diff < math.inf
                                  and diff * diff <= _NEXT_LEVEL_TOL * prev_diff):
            break
    else:
        if diff > 1e-7:
            raise ConvergenceError("Mellin-Barnes trapezoid levels did not agree to 1e-7")
    if value == 0.0:
        return 0.0
    log_out = peak + math.log(abs(value) / math.pi)
    if log_out > 709.0:
        raise OverflowError("Meijer G value overflows double precision")
    return math.copysign(math.exp(log_out), value)
