"""Independent high-precision oracles used only by the tests.

Series are summed in 60-digit decimal arithmetic with exact binary-to-decimal
input conversion, and the SNR law of :class:`MpSnrLaw` is integrated in
30-digit mpmath, so the oracle error is far below every tolerance asserted
against it. None of this code shares logic with the package under test.
"""

from decimal import Decimal, localcontext

import mpmath as mp

_PREC = 60
_TINY_POW = Decimal(10) ** -45


def dec_1f1(a: float, b: float, x: float, max_terms: int = 5000) -> float:
    """1F1(a; b; x) by direct decimal summation."""
    with localcontext() as ctx:
        ctx.prec = _PREC
        da, db_, dx = Decimal(a), Decimal(b), Decimal(x)
        term = Decimal(1)
        total = Decimal(1)
        quiet = 0
        for k in range(max_terms):
            term *= (da + k) * dx / ((db_ + k) * (k + 1))
            total += term
            if abs(term) <= _TINY_POW * max(abs(total), Decimal(1)):
                quiet += 1
                if quiet >= 3:
                    return float(total)
            else:
                quiet = 0
    raise RuntimeError("dec_1f1 did not converge")


def dec_2f1(a: float, b: float, c: float, z: float, max_terms: int = 200000) -> float:
    """2F1(a, b; c; z) by direct decimal summation, |z| < 1."""
    if not abs(z) < 1:
        raise ValueError("dec_2f1 needs |z| < 1")
    with localcontext() as ctx:
        ctx.prec = _PREC
        da, db_, dc, dz = Decimal(a), Decimal(b), Decimal(c), Decimal(z)
        term = Decimal(1)
        total = Decimal(1)
        quiet = 0
        for k in range(max_terms):
            term *= (da + k) * (db_ + k) * dz / ((dc + k) * (k + 1))
            total += term
            if abs(term) <= _TINY_POW * max(abs(total), Decimal(1)):
                quiet += 1
                if quiet >= 3:
                    return float(total)
            else:
                quiet = 0
    raise RuntimeError("dec_2f1 did not converge")


def dec_phi2_double(b1: float, b2: float, c: float, x: float, y: float,
                    max_rows: int = 2000) -> float:
    """Phi2 via its defining double series, summed row-wise in decimals.

    T(j, k) = (b1)_j (b2)_k x^j y^k / ((c)_{j+k} j! k!), iterated with
    T(0, k+1) = T(0, k) (b2+k) y / ((c+k)(k+1)) and
    T(j+1, k) = T(j, k) (b1+j) x / ((c+j+k)(j+1)).
    """
    with localcontext() as ctx:
        ctx.prec = _PREC
        db1, db2, dc = Decimal(b1), Decimal(b2), Decimal(c)
        dx, dy = Decimal(x), Decimal(y)
        total = Decimal(0)
        row_start = Decimal(1)  # T(0, k)
        quiet_rows = 0
        for k in range(max_rows):
            term = row_start
            row_sum = term
            row_peak = abs(term)
            quiet = 0
            j = 0
            while True:
                term = term * (db1 + j) * dx / ((dc + j + k) * (j + 1))
                row_sum += term
                row_peak = max(row_peak, abs(term))
                j += 1
                if abs(term) <= _TINY_POW * max(abs(row_sum), Decimal(1)):
                    quiet += 1
                    if quiet >= 3:
                        break
                else:
                    quiet = 0
                if j > 100000:
                    raise RuntimeError("dec_phi2_double row did not converge")
            total += row_sum
            if row_peak <= _TINY_POW * max(abs(total), Decimal(1)):
                quiet_rows += 1
                if quiet_rows >= 3:
                    return float(total)
            else:
                quiet_rows = 0
            row_start = row_start * (db2 + k) * dy / ((dc + k) * (k + 1))
    raise RuntimeError("dec_phi2_double did not converge")


def rayleigh_bpsk_aber(gamma_bar: float) -> float:
    import math
    return 0.5 * (1.0 - math.sqrt(gamma_bar / (1.0 + gamma_bar)))


def rayleigh_capacity(gamma_bar: float) -> float:
    """e^(1/g) E1(1/g) / ln 2 bits per channel use."""
    import math

    from scipy.special import exp1
    return math.exp(1.0 / gamma_bar) * float(exp1(1.0 / gamma_bar)) / math.log(2.0)


def nakagami_bpsk_aber(m: float, gamma_bar: float) -> float:
    """Gamma-SNR BPSK error rate via the hypergeometric closed form."""
    import math

    from scipy.special import hyp2f1
    w = m / gamma_bar
    coef = math.gamma(m + 0.5) / (2.0 * math.sqrt(math.pi) * math.gamma(m + 1.0))
    return coef * w ** m * float(hyp2f1(m + 0.5, m, m + 1.0, -w))


class MpSnrLaw:
    """The SNR law in mpmath, from the closed-form density.

    U = (gamma/gamma_bar)^(alpha/2) / C has density
    (1-bb)^m_y u^(m_x-1) e^-u 1F1(m_y; m_x; bb u) / Gamma(m_x), with C from
    mpmath's hyp2f1 and 1 - bb = m_y omega_x / (m_y omega_x + m_x omega_y)
    taken without cancellation. ``expect`` integrates by tanh-sinh
    quadrature in t = log u, split every two units around log E[U].
    """

    def __init__(self, params, dps: int = 30) -> None:
        self.dps = dps
        with mp.workdps(dps):
            mx, my, ox, oy, a, gb = (mp.mpf(v) for v in (
                params.m_x, params.m_y, params.omega_x, params.omega_y,
                params.alpha, params.gamma_bar))
            den = my * ox + mx * oy
            self.bb, self.omb = mx * oy / den, my * ox / den
            s = 2 / a
            hyp = mp.hyp2f1(my, -s, mx, -mx * oy / (my * ox))
            self.c = mp.exp((mp.loggamma(mx) - mp.loggamma(mx + s) - mp.log(hyp)) / s)
            self.mx, self.my, self.a, self.gb = mx, my, a, gb

    def c_alpha(self) -> float:
        return float(self.c)

    def _log_density_u(self, u):
        # e^-u 1F1(m_y; m_x; bb u) by Kummer's transformation
        return (self.my * mp.log(self.omb) + (self.mx - 1) * mp.log(u) - self.omb * u
                + mp.log(mp.hyp1f1(self.mx - self.my, self.mx, -self.bb * u))
                - mp.loggamma(self.mx))

    def _u(self, gamma):
        return (gamma / self.gb) ** (self.a / 2) / self.c

    def pdf(self, gamma: float) -> float:
        with mp.workdps(self.dps):
            g = mp.mpf(gamma)
            u = self._u(g)
            return float(mp.exp(self._log_density_u(u)) * u * self.a / (2 * g))

    def ccdf(self, gamma: float) -> float:
        """P(SNR > gamma) as the NB mixture sum_k w_k Q(m_x + k, u).

        Q comes from mpmath at k = 0 and then from its recurrence Q(a + 1, u)
        = Q(a, u) + u^a e^-u / Gamma(a + 1) (DLMF 8.8.6), which only adds
        positive terms; w_k from the ratio (m_y + k) bb / (k + 1). The sum
        stops once k passes u and w_k is below 10^-dps of it.
        """
        with mp.workdps(self.dps):
            u = self._u(mp.mpf(gamma))
            q = mp.gammainc(self.mx, u, regularized=True)
            step = mp.exp(self.mx * mp.log(u) - u - mp.loggamma(self.mx + 1))
            w, total, k = self.omb ** self.my, mp.mpf(0), 0
            while not (k > u and w < mp.mpf(10) ** -self.dps * total):
                total += w * q
                q += step
                step *= u / (self.mx + k + 1)
                w *= (self.my + k) * self.bb / (k + 1)
                k += 1
            return float(total)

    def expect(self, h, gamma_hi: float | None = None) -> float:
        """E[h(gamma)] (over gamma < gamma_hi when given); h maps an mpf SNR."""
        with mp.workdps(self.dps):
            def integrand(t):
                u = mp.exp(t)
                return h(self.gb * (self.c * u) ** (2 / self.a)) * mp.exp(
                    self._log_density_u(u) + t)

            mid = mp.log(self.mx + self.my * self.bb / self.omb)
            top = mp.log((self.mx + self.my + 200) / self.omb)
            if gamma_hi is not None:
                top = min(top, mp.log(self._u(mp.mpf(gamma_hi))))
            cuts = [mid + d for d in range(-40, 12, 2) if mid + d < top]
            return float(mp.quad(integrand, [-mp.inf] + cuts + [top]))
