"""Security analysis for coherent-state CVQKD with a noisy, monitored source.

Gaussian covariance-matrix algebra, asymptotic key rates for three
source-noise handling schemes, secure-distance search, tap optimization
and finite-size estimation of the monitored noise variance.
"""

from .finite_size import (
    DEFAULT_EPSILON_SM,
    CoverageReport,
    FiniteSizeEstimate,
    confidence_bound,
    coverage_diagnostic,
    mle_sigma2,
    simulated_sigma2,
    z_from_epsilon,
)
from .gaussian import (
    SIGMA_Z,
    CovarianceMatrix,
    NumericalInstabilityError,
    UnphysicalStateError,
    apply_beamsplitter,
    apply_fiber_channel,
    condition_on_homodyne,
    epr_state,
    g_entropy,
    mutual_info_het_hom,
    noisy_source_state,
    symplectic_form,
    symplectic_spectrum,
    tensor,
    vacuum_state,
    von_neumann_entropy,
)
from .schemes import (
    SCHEME_ACTIVE,
    SCHEME_PASSIVE,
    SCHEME_UNTRUSTED,
    SCHEMES,
    ChannelOpaqueError,
    ChannelParams,
    KeyRateBreakdown,
    ProtocolParams,
    TapSweepResult,
    distance_to_eta,
    evaluate_keyrate,
    keyrate_at_distance,
    optimize_T,
    secure_distance,
)

__version__ = "0.1.0"

__all__ = [
    "SIGMA_Z",
    "CovarianceMatrix",
    "UnphysicalStateError",
    "NumericalInstabilityError",
    "symplectic_form",
    "vacuum_state",
    "tensor",
    "epr_state",
    "noisy_source_state",
    "apply_beamsplitter",
    "apply_fiber_channel",
    "symplectic_spectrum",
    "g_entropy",
    "von_neumann_entropy",
    "condition_on_homodyne",
    "mutual_info_het_hom",
    "SCHEMES",
    "SCHEME_UNTRUSTED",
    "SCHEME_ACTIVE",
    "SCHEME_PASSIVE",
    "ChannelOpaqueError",
    "ChannelParams",
    "ProtocolParams",
    "KeyRateBreakdown",
    "TapSweepResult",
    "distance_to_eta",
    "evaluate_keyrate",
    "keyrate_at_distance",
    "secure_distance",
    "optimize_T",
    "DEFAULT_EPSILON_SM",
    "FiniteSizeEstimate",
    "CoverageReport",
    "mle_sigma2",
    "z_from_epsilon",
    "confidence_bound",
    "simulated_sigma2",
    "coverage_diagnostic",
]
