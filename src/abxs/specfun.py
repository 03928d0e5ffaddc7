"""Scalar special-function kernel in IEEE double precision.

Provides the gamma family (digamma, rising factorial), Kummer's 1F1, the
Gauss 2F1 and its derivative with respect to the first parameter, the
bivariate confluent Appell function Phi2, and a real-argument Meijer G
evaluator. Digamma and the Gauss 2F1 are thin wrappers around
``scipy.special.digamma`` and ``scipy.special.hyp2f1``; log-gamma and the
regularized incomplete gammas come from ``math`` and scipy.special. Kummer's
1F1 is summed here so that it stays independent of the quadrature oracle's
scipy ``hyp1f1``; the 2F1 derivative, Phi2 and Meijer G have no scipy
counterpart.

All series share one stopping rule with fixed tolerances: stop once three
consecutive terms fall below 1e-14 times the magnitude of the partial sum
(guards against a premature stop on sign-alternating series); in the
hypergeometric series each of the three must also be no larger than the term
before it, so a term made tiny by a parameter near a nonpositive integer does
not end a series whose later terms grow again. Raise
ConvergenceError after 10000 terms. Alternating series that would lose
precision to cancellation are accumulated in compensated double-double
arithmetic; no arbitrary-precision library is used anywhere.

The Meijer G evaluator sums the residue (Slater) expansion in plain double
precision when the contributing poles are simple and the sum is well
conditioned, and falls back to numerical Mellin-Barnes contour integration
otherwise, on the vertical line through the integrand's saddle point on the
real axis. The contour evaluates its gamma factors with scipy's complex
``loggamma``, one call per factor and trapezoid level, after merging each run
of parameters spaced 1/N into a single factor by Gauss's multiplication
formula. It finds where to cut the line on its first level's own nodes; each
refinement evaluates only the new midpoints, and refinement stops once two
levels agree to 1e-12 or the shrinking level differences show that the next
would. Contours sharing a memo share its line and keep each common factor's
values as one prefix that grows with the longest cut, so each value is
evaluated once. A contour whose finest two levels differ by more than 1e-7
raises ConvergenceError.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import special
from scipy.special import loggamma


class ConvergenceError(ArithmeticError):
    """A series or contour quadrature failed to stabilize within its budget."""


class PrecisionWarning(UserWarning):
    """A degraded evaluation path had to be taken (e.g. pole collision)."""


# The stopping rule of the module docstring.
_REL_TOL = 1e-14
_MAX_TERMS = 10000
_STOP_STREAK = 3

_LN_2PI = 1.8378770664093454836


# ---------------------------------------------------------------------------
# compensated (double-double) arithmetic
#
# A value is a (hi, lo) pair with hi + lo exact to ~32 significant digits.
# Used only where series terms alternate in sign and the plain double sum
# would cancel away the answer.
# ---------------------------------------------------------------------------


def _two_sum(a: float, b: float):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _split(a: float):
    t = 134217729.0 * a  # 2**27 + 1
    hi = t - (t - a)
    return hi, a - hi


def _two_prod(a: float, b: float):
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dd_add(x, y):
    s, e = _two_sum(x[0], y[0])
    e += x[1] + y[1]
    return _two_sum(s, e)


def _dd_mul(x, y):
    p, e = _two_prod(x[0], y[0])
    e += x[0] * y[1] + x[1] * y[0]
    return _two_sum(p, e)


def _dd_div(x, y):
    q1 = x[0] / y[0]
    r = _dd_add(x, _dd_mul(y, (-q1, 0.0)))
    q2 = r[0] / y[0]
    r = _dd_add(r, _dd_mul(y, (-q2, 0.0)))
    q3 = r[0] / y[0]
    s, e = _two_sum(q1, q2)
    return _two_sum(s, e + q3)


# ---------------------------------------------------------------------------
# gamma family
# ---------------------------------------------------------------------------


def _is_nonpositive_integer(x: float, tol: float = 1e-9) -> bool:
    r = round(x)
    return r <= 0 and abs(x - r) <= tol


def _signed_loggamma(x: float):
    """(log|Gamma(x)|, sign of Gamma(x)) for any non-pole real x."""
    if x > 0.0:
        return math.lgamma(x), 1.0
    if _is_nonpositive_integer(x, tol=0.0):
        raise ValueError(f"Gamma pole at x = {x}")
    sign = 1.0 if math.floor(x) % 2 == 0 else -1.0
    return math.lgamma(x), sign


def digamma(x: float) -> float:
    """psi(x) for x > 0, from scipy's ``digamma``."""
    if not x > 0.0:
        raise ValueError(f"digamma requires x > 0, got {x}")
    return float(special.digamma(x))


def pochhammer(a: float, k: int) -> float:
    """Rising factorial (a)_k = a (a+1) ... (a+k-1), with (a)_0 = 1."""
    if k < 0:
        raise ValueError(f"pochhammer requires k >= 0, got {k}")
    out = 1.0
    for i in range(k):
        out *= a + i
    return out


# ---------------------------------------------------------------------------
# hypergeometric series
# ---------------------------------------------------------------------------


def _hyp_series_dd(num, den, x: float, rel_tol: float = _REL_TOL,
                   max_terms: int = _MAX_TERMS):
    """Double-double variant of :func:`_hyp_series`; returns ((hi, lo), max_mag).

    Parameters may be floats or (hi, lo) pairs; pairs keep exactly-known
    sums like c + k free of a rounding that outer cancellation would amplify.
    Term k+1 is term k times x prod(u + k) / ((k + 1) prod(d + k)), with the
    numerator and the denominator each built as one double-double product.
    """
    num = [p if isinstance(p, tuple) else (p, 0.0) for p in num]
    den = [p if isinstance(p, tuple) else (p, 0.0) for p in den]
    for d in den:
        if _is_nonpositive_integer(d[0] + d[1]):
            raise ValueError(f"series denominator parameter is a nonpositive integer: {d}")
    term = (1.0, 0.0)
    total = (1.0, 0.0)
    max_mag = mag = 1.0
    streak = 0
    for k in range(max_terms):
        shift = (float(k), 0.0)
        ratio_num = (x, 0.0)
        for u in num:
            ratio_num = _dd_mul(ratio_num, _dd_add(u, shift))
        ratio_den = (float(k + 1), 0.0)
        for d in den:
            ratio_den = _dd_mul(ratio_den, _dd_add(d, shift))
        term = _dd_div(_dd_mul(term, ratio_num), ratio_den)
        total = _dd_add(total, term)
        mag, prev_mag = abs(term[0]), mag
        max_mag = max(max_mag, mag)
        if mag <= rel_tol * max(abs(total[0]), 1e-300) and mag <= prev_mag:
            streak += 1
            if streak >= _STOP_STREAK:
                return total, max_mag
        else:
            streak = 0
    raise ConvergenceError("hypergeometric series exhausted max_terms")


def _hyp_series(num, den, x: float, compensated: bool):
    """sum_k prod(num)_k / prod(den)_k * x^k / k! with the shared stopping rule.

    Returns (value, max_abs_term). ``den`` entries must avoid nonpositive
    integers. Compensated mode keeps terms and sum in double-double precision
    so alternating series survive cancellation up to ~1e18 amplification.
    """
    if compensated:
        total, max_mag = _hyp_series_dd(num, den, x)
        return total[0] + total[1], max_mag
    for d in den:
        if _is_nonpositive_integer(d):
            raise ValueError(f"series denominator parameter is a nonpositive integer: {d}")
    term = 1.0
    total = 1.0
    max_mag = mag = 1.0
    streak = 0
    for k in range(_MAX_TERMS):
        fk = float(k)
        for u in num:
            term *= u + fk
        term *= x
        for d in den:
            term /= d + fk
        term /= fk + 1.0
        total += term
        mag, prev_mag = abs(term), mag
        if mag > max_mag:
            max_mag = mag
        if not math.isfinite(total):
            raise OverflowError("hypergeometric series overflowed")
        if mag <= _REL_TOL * max(abs(total), 1e-300) and mag <= prev_mag:
            streak += 1
            if streak >= _STOP_STREAK:
                return total, max_mag
        else:
            streak = 0
    raise ConvergenceError("hypergeometric series exhausted max_terms")


def kummer_1f1(a: float, b: float, x: float) -> float:
    """Kummer's confluent hypergeometric 1F1(a; b; x) for real arguments, b > 0.

    Nonnegative x is summed directly (terms are single-signed for a >= 0, so
    the sum is stable up to the exp overflow boundary). Negative x is routed
    through the Kummer transformation 1F1(a;b;x) = e^x 1F1(b-a;b;-x), which
    replaces an exponentially cancelling alternating series with a stable one;
    when b - a < 0 that series is summed in double-double with b - a exact.
    Below x = -709, where e^-x overflows, :func:`_kummer_large_negative`
    takes over unless b - a, taken exactly, is a nonpositive integer (1F1 is
    then e^x times a polynomial, which the series sums).
    """
    if not b > 0.0:
        raise ValueError(f"kummer_1f1 requires b > 0, got {b}")
    if x == 0.0:
        return 1.0
    if x > 0.0:
        if x > 709.0:
            raise OverflowError(
                f"kummer_1f1 argument {x} exceeds the exp overflow boundary; "
                "use a log-scaled path"
            )
        value, _ = _hyp_series((a,), (b,), x, compensated=a < 0.0)
        return value
    c = _two_sum(b, -a)
    if x < -709.0 and not (c[1] == 0.0 and _is_nonpositive_integer(c[0], tol=0.0)):
        return _kummer_large_negative(a, b, x)
    if c[0] < 0.0:
        # b - a is kept exact: near a nonpositive integer the rounding of
        # b - a alone would move the value by about its ulp times e^-x.
        value, _ = _hyp_series((c,), (b,), -x, compensated=True)
    else:
        value, _ = _hyp_series((c[0],), (b,), -x, compensated=False)
    return math.exp(x) * value


def _kummer_large_negative(a: float, b: float, x: float) -> float:
    """1F1(a; b; x) for x << 0, first from the large-|x| expansion (DLMF 13.7.2),

        Gamma(b)/Gamma(b-a) (-x)^-a sum_k (a)_k (1+a-b)_k / (k! (-x)^k),

    dropping the expansion's other term, which carries e^x. 1/Gamma(b-a) is
    taken from b - a as an exact (hi, lo) pair, by reflection when b - a <= 0,
    so b - a rounding to a nonpositive integer costs no digits. The sum is
    asymptotic; when its terms grow before one falls below the stopping
    tolerance and b - a > 0, the Kummer-transformed series of
    :func:`_kummer_scaled` is summed instead, and otherwise ConvergenceError
    is raised.
    """
    c = _two_sum(b, -a)
    lg_b, sign_b = _signed_loggamma(b)
    lr_c, sign_c = _log_recip_gamma(c)
    total = term = 1.0
    for k in range(_MAX_TERMS):
        term, prev = term * (a + k) * (1.0 + a - b + k) / ((k + 1.0) * -x), term
        total += term
        if abs(term) <= _REL_TOL * abs(total):
            return sign_b * sign_c * math.exp(lg_b + lr_c - a * math.log(-x)) * total
        if abs(term) > abs(prev):
            break
    if c[0] > 0.0:
        return _kummer_scaled(c[0], b, x)
    raise ConvergenceError("large-|x| 1F1 expansion diverges before it converges")


def _log_recip_gamma(c):
    """(log |1/Gamma(c)|, sign) for c = (hi, lo) not a nonpositive integer.

    For c <= 0, 1/Gamma(c) = sin(pi c) Gamma(1 - c) / pi, with sin(pi c) =
    (-1)^n sin(pi r), n the integer nearest c and r = (hi - n) + lo exact to
    the pair's precision.
    """
    hi, lo = c
    if hi > 0.0:
        return -math.lgamma(hi), 1.0
    n = round(hi)
    sine = math.sin(math.pi * ((hi - n) + lo)) * (-1.0 if n % 2 else 1.0)
    return (math.lgamma(1.0 - hi) + math.log(abs(sine)) - math.log(math.pi),
            math.copysign(1.0, sine))


# ln 2 split as in fdlibm: _LN2_HI has 32 significant bits, so e * _LN2_HI is
# exact for every integer |e| < 2^21.
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10


def _kummer_scaled(c: float, b: float, x: float) -> float:
    """e^x 1F1(c; b; -x) for x < 0 and c > 0, where every term is positive.

    The partial sum is kept as a mantissa times 2^e, so neither it nor e^-x
    overflows, and e^x 2^e is taken as exp(x + e ln 2) with e ln 2 split
    into an exact product and a small rest. Follows the module's stopping
    rule; raises ConvergenceError after _MAX_TERMS terms.
    """
    term = total = 1.0
    exp2 = 0
    streak = 0
    for k in range(_MAX_TERMS):
        ratio = (c + k) * -x / ((b + k) * (k + 1.0))
        term *= ratio
        total += term
        if total > 1e300:
            total, e = math.frexp(total)
            term = math.ldexp(term, -e)
            exp2 += e
        if term <= _REL_TOL * total and ratio <= 1.0:
            streak += 1
            if streak >= _STOP_STREAK:
                total, e = math.frexp(total)
                exp2 += e
                lead, rest = _two_sum(x, exp2 * _LN2_HI)
                value = total * math.exp(lead) * math.exp(rest + exp2 * _LN2_LO)
                if not math.isfinite(value):
                    raise OverflowError("kummer_1f1 value overflows double precision")
                return value
        else:
            streak = 0
    raise ConvergenceError("hypergeometric series exhausted max_terms")


def _kummer_transformed(a: float, b: float, x: float) -> float:
    """1F1 via e^x 1F1(b-a; b; -x) with compensated summation.

    Cross-check twin for :func:`kummer_1f1` on moderate positive x, where the
    transformed series alternates and cancels by ~e^x. Compensated arithmetic
    keeps that affordable up to x ~ 60.
    """
    if not b > 0.0:
        raise ValueError(f"_kummer_transformed requires b > 0, got {b}")
    value, _ = _hyp_series((b - a,), (b,), -x, compensated=True)
    return math.exp(x) * value


# How close a - b must be to a nonzero integer for gauss_2f1 to take Pfaff's
# map at z < 0: scipy's route loses about 1e-16 / distance there.
_PFAFF_NEAR = 1e-6


def gauss_2f1(a: float, b: float, c: float, z: float) -> float:
    """Gauss hypergeometric 2F1(a, b; c; z) for real z < 1, c > 0, from scipy's ``hyp2f1``.

    scipy's transformations reach every z < 1 with no term cap; its value can
    be inf or nan. At z < 0 with a - b at or near a nonzero integer, scipy's
    own route loses digits: 2F1(1.2, -0.8; 1.5; z) is off by up to 1.5e-7
    for z from -1.6e6 to -1.3e3, and a - b = 2 + 1e-13 can lose them all.
    There (a - b within _PFAFF_NEAR of a nonzero integer) the value is taken
    through Pfaff's map, as the channel normaliser does,

        2F1(a, b; c; z) = (1-z)^-b 2F1(c-a, b; c; z/(z-1)),  b the smaller,

    whose argument lies in [0, 1). Elsewhere the map is not taken: for other
    a - b it loses up to 3e-7 as z/(z-1) rounds towards 1, and at a = b it
    can lose every digit.
    """
    if not c > 0.0:
        raise ValueError(f"gauss_2f1 requires c > 0, got {c}")
    if z >= 1.0:
        raise ValueError(f"gauss_2f1 requires z < 1, got {z}")
    m = float(np.rint(a - b))
    if z < 0.0 and m != 0.0 and abs(a - b - m) < _PFAFF_NEAR:
        a, b = max(a, b), min(a, b)
        return (1.0 - z) ** -b * float(special.hyp2f1(c - a, b, c, z / (z - 1.0)))
    return float(special.hyp2f1(a, b, c, z))


def gauss_2f1_da(a: float, b: float, c: float, z: float) -> float:
    """d/da 2F1(a, b; c; z) for |z| < 1.

    Series sum_{n>=1} [(a)_n (b)_n / ((c)_n n!)] (psi(a+n) - psi(a)) z^n; the
    digamma difference is accumulated as the harmonic increment sum 1/(a+i).
    Public API only: no abxs route calls it (the capacity asymptote sums
    psi(m_x + k) over the NB weights instead).
    """
    if not c > 0.0:
        raise ValueError(f"gauss_2f1_da requires c > 0, got {c}")
    if not abs(z) < 1.0:
        raise ValueError(f"gauss_2f1_da requires |z| < 1, got {z}")
    if z == 0.0:
        return 0.0
    coeff = 1.0  # (a)_n (b)_n z^n / ((c)_n n!)
    harmonic = 0.0  # psi(a+n) - psi(a)
    total = 0.0
    max_mag = 0.0
    streak = 0
    for n in range(_MAX_TERMS):
        coeff *= (a + n) * (b + n) * z / ((c + n) * (n + 1.0))
        harmonic += 1.0 / (a + n)
        term = coeff * harmonic
        total += term
        max_mag = max(max_mag, abs(term))
        if abs(term) <= _REL_TOL * max(abs(total), 1e-300):
            streak += 1
            if streak >= _STOP_STREAK:
                return total
        else:
            streak = 0
    raise ConvergenceError("gauss_2f1_da series exhausted max_terms")


def appell_phi2(b1: float, b2: float, c: float, x: float, y: float) -> float:
    """Confluent Appell Phi2(b1, b2; c; x, y).

    Evaluated through the single-series expansion in 1F1 kernels,

        Phi2 = sum_k [(b2)_k y^k / ((c)_k k!)] 1F1(b1; c + k; x),

    which is validated against the normative double series in the test suite.
    The outer sum is compensated so alternating-sign arguments keep accuracy.
    """
    if not c > 0.0:
        raise ValueError(f"appell_phi2 requires c > 0, got {c}")
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError("appell_phi2 requires finite x, y")
    if y == 0.0:
        return kummer_1f1(b1, c, x)
    if y < 0.0:
        return _phi2_alternating(b1, b2, c, x, y)
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


# Inner kernels of _phi2_alternating are huge against the cancelled total, so
# their truncation error must sit near the double-double floor, not at _REL_TOL.
_PHI2_REL_TOL = 1e-30
_PHI2_MAX_TERMS = 20000


def _phi2_alternating(b1: float, b2: float, c: float, x: float, y: float) -> float:
    """Phi2 for y < 0: the outer series alternates and cancels by ~e^|y|.

    Everything (weights, inner 1F1 kernels, accumulation) stays in
    double-double precision; for x < 0 the inner kernels are Kummer-flipped
    with the common e^x factor pulled out so no float-level noise gets
    amplified by the cancellation.
    """
    flip = x < 0.0
    weight = (1.0, 0.0)
    total = (0.0, 0.0)
    streak = 0
    for k in range(_MAX_TERMS):
        ck = _two_sum(c, float(k))  # c + k without a rounding
        if flip:
            num = _dd_add(ck, (-b1, 0.0))
            inner, _ = _hyp_series_dd((num,), (ck,), -x, _PHI2_REL_TOL, _PHI2_MAX_TERMS)
        else:
            inner, _ = _hyp_series_dd((b1,), (ck,), x, _PHI2_REL_TOL, _PHI2_MAX_TERMS)
        term = _dd_mul(weight, inner)
        total = _dd_add(total, term)
        if abs(term[0]) <= _PHI2_REL_TOL * max(abs(total[0]), 1e-300) and k >= 1:
            streak += 1
            if streak >= _STOP_STREAK:
                value = total[0] + total[1]
                return value * math.exp(x) if flip else value
        else:
            streak = 0
        weight = _dd_mul(weight, _two_sum(b2, float(k)))
        weight = _dd_mul(weight, (y, 0.0))
        weight = _dd_div(weight, _two_sum(c, float(k)))
        weight = _dd_div(weight, (float(k + 1), 0.0))
    raise ConvergenceError("appell_phi2 series exhausted max_terms")


def _log_scaled_1f1_large_x(a: float, b: float, x: float, terms: int = 12) -> float:
    """log(e^-x 1F1(a; b; x)) from the large-x asymptotic expansion (x >> 1).

    1F1 ~ Gamma(b)/Gamma(a) e^x x^(a-b) sum_k (b-a)_k (1-a)_k / (k! x^k).
    Serves callers whose arguments exceed the exp overflow boundary; the e^x
    is left out, so a caller's -x does not cancel against it.
    """
    s = 1.0
    term = 1.0
    for k in range(terms):
        term *= (b - a + k) * (1.0 - a + k) / ((k + 1.0) * x)
        s += term
        if abs(term) < 1e-16 * abs(s):
            break
    return math.lgamma(b) - math.lgamma(a) + (a - b) * math.log(x) + math.log(s)


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

    ``m`` counts the lower parameters whose gamma factors contribute the
    ascending pole ladders picked up by the residue series; ``n`` counts the
    contributing upper parameters.
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


class _SlaterUnstable(Exception):
    """Residue series rejected (cancellation, overflow, or degenerate params)."""


# Cancellation budgets: max acceptable ratio of largest magnitude seen to the
# final magnitude, for one residue's series and across the residues. Doubles
# keep ~16 digits, so either budget leaves ~12 of them.
_PLAIN_CANCEL = 1e4
_CROSS_TERM_CANCEL = 3e3


def meijer_g(spec: MeijerGSpec, z: float) -> float:
    """Evaluate G^{m,n}_{p,q}(z | a; b) for real parameters and z > 0.

    Residue (Slater) series, summed in plain double precision, when every
    contributing pole is simple and the sum is well conditioned; otherwise
    numerical Mellin-Barnes contour integration. Pole collisions (contributing
    lower parameters differing by an integer) force the contour and emit a
    :class:`PrecisionWarning`. Inside :func:`_slater_until_rejected` the
    residue series is not tried again once it has been rejected.
    """
    if not (z > 0.0 and math.isfinite(z)):
        raise ValueError(f"meijer_g requires finite z > 0, got {z}")
    p = len(spec.a_params)
    q = len(spec.b_params)
    if p > q or (p == q and z > 1.0):
        flipped = MeijerGSpec(
            m=spec.n,
            n=spec.m,
            a_params=tuple(1.0 - b for b in spec.b_params),
            b_params=tuple(1.0 - a for a in spec.a_params),
        )
        return meijer_g(flipped, 1.0 / z)
    if spec.m == 0:
        raise ConvergenceError("meijer_g needs at least one contributing lower parameter")
    if p == q and z == 1.0:
        return _meijer_contour(spec, z)
    if _has_pole_collision(spec):
        warnings.warn(
            "Meijer G pole collision: falling back to Mellin-Barnes contour",
            PrecisionWarning,
            stacklevel=2,
        )
        return _meijer_contour(spec, z)
    route = _SERIES_ROUTE.get()
    if route is None or route["slater"]:
        try:
            return _meijer_slater(spec, z)
        except _SlaterUnstable:
            if route is not None:
                route["slater"] = False
    return _meijer_contour(spec, z)


# The route state of the k-series open in this context, if any: see
# _slater_until_rejected.
_SERIES_ROUTE = contextvars.ContextVar("abxs_meijer_series_route", default=None)


@contextlib.contextmanager
def _slater_until_rejected():
    """Within the block, :func:`meijer_g` stops trying the residue series once
    it has rejected one, and sends every later G straight to the contour.

    The metrics open one block per k-series, whose terms differ by one step
    in a lower parameter: once a term's residue series was rejected, the
    later terms' were too, all 761 of them on the benchmark's `domain` laws
    and all 3,207 on the fig-2, fig-3, fig-4 and 72-point grids (QAM-16 and
    BPSK). The flip and the pole-collision route are unchanged.
    """
    token = _SERIES_ROUTE.set({"slater": True})
    try:
        yield
    finally:
        _SERIES_ROUTE.reset(token)


def _has_pole_collision(spec: MeijerGSpec, tol: float = 1e-9) -> bool:
    bs = spec.b_params[: spec.m]
    for i in range(len(bs)):
        for j in range(i + 1, len(bs)):
            d = bs[i] - bs[j]
            if abs(d - round(d)) <= tol:
                return True
    return False


def _meijer_slater(spec: MeijerGSpec, z: float) -> float:
    """G as the sum of its residue series, each summed in plain double precision.

    Raises :class:`_SlaterUnstable` when a residue degenerates, overflows or
    cancels beyond the budgets above; :func:`meijer_g` then takes the contour.
    """
    a, b = spec.a_params, spec.b_params
    m, n = spec.m, spec.n
    p, q = len(a), len(b)
    lnz = math.log(z)
    sign_w = 1.0 if (p - m - n) % 2 == 0 else -1.0
    w = sign_w * z

    values = []
    noise_floor = 0.0  # absolute scale at which each term's accuracy bottoms out
    for h in range(m):
        bh = b[h]
        logmag = bh * lnz
        sign = 1.0
        for j in range(m):
            if j == h:
                continue
            lg, sg = _signed_loggamma(b[j] - bh)
            logmag += lg
            sign *= sg
        for j in range(n):
            arg = 1.0 + bh - a[j]
            if _is_nonpositive_integer(arg):
                raise _SlaterUnstable  # numerator pole: expansion degenerates
            lg, sg = _signed_loggamma(arg)
            logmag += lg
            sign *= sg
        den_args = [1.0 + bh - b[j] for j in range(m, q)] + [a[j] - bh for j in range(n, p)]
        if any(map(_is_nonpositive_integer, den_args)):
            values.append(0.0)  # a denominator pole kills this residue
            continue
        for arg in den_args:
            lg, sg = _signed_loggamma(arg)
            logmag -= lg
            sign *= sg
        if logmag > 700.0:
            raise _SlaterUnstable
        num = tuple(1.0 + bh - aj for aj in a)
        den = tuple(1.0 + bh - b[j] for j in range(q) if j != h)
        try:
            series, max_term = _hyp_series(num, den, w, compensated=False)
        except (ConvergenceError, OverflowError, ValueError):
            raise _SlaterUnstable
        if max_term > _PLAIN_CANCEL * max(abs(series), 1e-300):
            raise _SlaterUnstable
        scale = math.exp(logmag)
        noise_floor = max(noise_floor, scale * max_term * 1e-15)
        values.append(sign * scale * series)

    if not all(map(math.isfinite, values)):
        raise _SlaterUnstable  # a residue overflowed; fsum would raise on inf - inf
    total = math.fsum(values)
    peak = max((abs(v) for v in values), default=0.0)
    if peak > _CROSS_TERM_CANCEL * abs(total) or noise_floor > 1e-9 * abs(total):
        raise _SlaterUnstable
    return total


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
    differ by more than 1e-7 relative, the tolerance of the metrics' k-series.
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
