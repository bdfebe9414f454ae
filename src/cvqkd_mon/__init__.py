"""Security analysis for coherent-state CVQKD with a noisy, monitored source.

The calculator: asymptotic key rates for three source-noise handling
schemes, secure-distance search, tap optimization and finite-size
estimation of the monitored noise variance.  The covariance-matrix algebra
the key rates rest on lives in :mod:`cvqkd_mon.gaussian`.
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
from .gaussian import NumericalInstabilityError, UnphysicalStateError
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
    evaluate_keyrate,
    keyrate_at_distance,
    optimize_T,
    secure_distance,
)

__version__ = "0.1.0"

__all__ = [
    "UnphysicalStateError",
    "NumericalInstabilityError",
    "SCHEMES",
    "SCHEME_UNTRUSTED",
    "SCHEME_ACTIVE",
    "SCHEME_PASSIVE",
    "ChannelOpaqueError",
    "ChannelParams",
    "ProtocolParams",
    "KeyRateBreakdown",
    "TapSweepResult",
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
