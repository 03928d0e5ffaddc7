"""Shared parameter grids for the tests and the acceptance suite."""

import itertools

from abxs.channel import ChannelParams


def db(x: float) -> float:
    return 10.0 ** (x / 10.0)


# Scenario 1: pdf overlay (mean SNR 3 dB, both powers 2 dB).
FIG1 = dict(m_x=1.6, m_y=1.5, omega_x=db(2.0), omega_y=db(2.0), gamma_bar=db(3.0))
FIG1_ALPHAS = (1.0, 2.0, 4.0)

# Scenario 2: QAM-16 ABER vs mean SNR (both powers 1 dB, m = 1.2).
FIG2_ALPHAS = (1.0, 2.0, 3.0)
FIG2_SNR_DB = tuple(range(0, 45, 5))


def fig2_params(alpha: float, snr_db: float) -> ChannelParams:
    return ChannelParams(m_x=1.2, m_y=1.2, omega_x=db(1.0), omega_y=db(1.0),
                         alpha=alpha, gamma_bar=db(snr_db))


# Scenario 3: ABER vs nonlinearity at 20 dB, asymmetric powers (-3 / +3 dB),
# four fading/shadowing corners.
FIG3_SETS = ((0.5, 0.5), (0.5, 2.5), (2.5, 0.5), (2.5, 2.5))


def fig3_params(m_x: float, m_y: float, alpha: float, snr_db: float = 20.0) -> ChannelParams:
    return ChannelParams(m_x=m_x, m_y=m_y, omega_x=db(-3.0), omega_y=db(3.0),
                         alpha=alpha, gamma_bar=db(snr_db))


# Scenario 4: capacity vs mean SNR (both powers 1 dB), strong/weak fading
# crossed with low/high nonlinearity.
FIG4_SETS = ((0.5, 0.5, 1.0), (0.5, 0.5, 3.0), (2.5, 2.5, 1.0), (2.5, 2.5, 3.0))
FIG4_SNR_DB = tuple(range(0, 45, 5))


def fig4_params(m_x: float, m_y: float, alpha: float, snr_db: float) -> ChannelParams:
    return ChannelParams(m_x=m_x, m_y=m_y, omega_x=db(1.0), omega_y=db(1.0),
                         alpha=alpha, gamma_bar=db(snr_db))


# The 72-point validation grid: alphas x m_x x (m_y paired with the LoS power
# fraction), LoS power solved from the target fraction.
GRID_ALPHAS = (0.8, 1.0, 2.0, 2.5, 3.0, 4.0)
GRID_MX = (0.5, 1.0, 1.6, 2.5)
GRID_MY_BB = ((0.5, 0.0), (1.5, 0.3), (5.0, 0.7))


def grid72():
    for alpha, m_x, (m_y, bb) in itertools.product(GRID_ALPHAS, GRID_MX, GRID_MY_BB):
        omega_x = 1.0
        omega_y = bb * m_y * omega_x / (m_x * (1.0 - bb)) if bb else 0.0
        yield ChannelParams(m_x=m_x, m_y=m_y, omega_x=omega_x, omega_y=omega_y,
                            alpha=alpha, gamma_bar=db(2.0))


# The benchmark's montecarlo laws (beta_bar 0.5, 0.44, 0.16 and 0).
MONTECARLO_LAWS = (
    (1.2, 1.2, db(1.0), db(1.0), 2.0, db(10.0)),
    (0.5, 2.5, db(-3.0), db(3.0), 0.8, db(30.0)),
    (0.7, 1.8, db(0.0), db(-3.0), 4.0, db(40.0)),
    (2.0, 1.0, db(0.0), 0.0, 2.5, db(20.0)),
)

# Small-alpha laws with LoS, as (m_x, m_y, omega_x, omega_y, alpha, gamma_bar),
# whose capacity lies in the NB mass that the weight table leaves out.
SMALL_ALPHA_LAWS = (
    (0.183277, 0.317129, 1, 96.8793, 0.0137674, 352059),
    (5.95457, 0.50939, 1, 8.75088, 0.023646, 1.28794),
    (3.95191, 0.285727, 1, 0.505443, 0.0300014, 39.5885),
    (0.152313, 1.74938, 1, 2137.69, 0.0384763, 0.224005),
)


def rayleigh(gamma_bar: float = 10.0) -> ChannelParams:
    return ChannelParams(m_x=1.0, m_y=3.0, omega_x=1.0, omega_y=0.0,
                         alpha=2.0, gamma_bar=gamma_bar)


def nakagami(m: float = 2.0, gamma_bar: float = 10.0) -> ChannelParams:
    return ChannelParams(m_x=m, m_y=3.0, omega_x=1.0, omega_y=0.0,
                         alpha=2.0, gamma_bar=gamma_bar)
