"""alpha-Beaulieu-Xie shadowed fading channel: statistics, metrics, simulation."""

from .channel import (
    ChannelParams,
    DerivedConstants,
    beta_bar,
    bxs_envelope_pdf,
    bxs_power_pdf,
    c_alpha,
    derived_constants,
    envelope_moment,
    mho_alpha,
    rationalize_alpha,
    snr_ccdf,
    snr_cdf,
    snr_cdf_asymptotic,
    snr_cdf_phi2,
    snr_pdf,
    snr_pdf_asymptotic,
    validate,
)
from .metrics import (
    AberResult,
    CapacityResult,
    ModulationScheme,
    aber_asymptotic,
    aber_exact,
    aber_mixture,
    aber_quadrature,
    capacity_asymptotic,
    capacity_exact,
    capacity_mixture,
    capacity_quadrature,
    cdf_quadrature,
    coding_gain,
    diversity_order,
    modulation_coeffs,
)
from .montecarlo import (
    SimulationConfig,
    ks_statistic,
    mc_aber,
    mc_capacity,
    sample_bxs_power,
    sample_snr,
    snr_samples,
)
from .specfun import (
    ConvergenceError,
    MeijerGSpec,
    appell_phi2,
    gauss_2f1,
    kummer_1f1,
    meijer_g,
)

__version__ = "0.1.0"
