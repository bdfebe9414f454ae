"""Finite-sample estimation of the source-noise variance from monitor data.

The monitor homodynes m pulses whose outcomes y_i are zero-mean Gaussians
of variance V + sigma_s^2.  The maximum-likelihood estimate of the noise
variance is sigma_hat^2 = (1/m) sum y_i^2 - V.  Security analyses must use
a lower confidence bound on the estimate: given a failure probability
eps_sm, the bound is

    sigma_min^2 = sigma_hat^2 - delta,    delta = z * sigma_hat^2 * sqrt(2/m),

with z the normal quantile at 1 - eps_sm/2, so erfc(z/sqrt(2)) = eps_sm.
The delta formula takes the estimator dispersion proportional to the
estimate itself; the exact second-moment calculation instead gives
std(sigma_hat^2) = sqrt(2)*(V + sigma_s^2)/sqrt(m), which is much larger
whenever V dominates.  The confidence bound implements the former
literally; :func:`coverage_diagnostic` reports both candidates next to the
Monte Carlo truth so the discrepancy stays visible.

Randomness contract: all synthetic data comes from numpy's PCG64 stream
(ziggurat normal variates), seeded explicitly, so it is reproducible
bit-for-bit across platforms within one numpy version; NEP 19 lets a numpy
release change a Generator's distribution streams.  The m monitor outcomes
of seed s are PCG64(s).standard_normal(m) * sqrt(V + sigma_s^2).  The
coverage diagnostic draws its trials from PCG64(s).jumped(), a stream
independent of them: since sum(y_i^2)/(V + sigma_s^2) is chi-squared with m
degrees of freedom, each trial is one chi-squared variate rather than m
normal ones.

numpy is imported inside the functions that draw or average, so the
analytic bound (:func:`confidence_bound`) never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

#: Default failure probability for the confidence bound.
DEFAULT_EPSILON_SM = 1e-10


@dataclass(frozen=True)
class FiniteSizeEstimate:
    """Point estimate, penalty and lower confidence bound for sigma_s^2."""

    sigma_hat2: float
    sigma_min2: float
    delta_chi_s: float
    m: int
    epsilon_sm: float
    z: float

    @property
    def negative_estimate(self) -> bool:
        """True when small-sample fluctuation drove the estimate below zero."""
        return self.sigma_hat2 < 0.0


def mle_sigma2(samples: np.ndarray, V: float) -> float:
    """Maximum-likelihood source-noise variance (1/m) sum y_i^2 - V.

    `samples` is the 1-D array of m >= 2 monitor outcomes (not modified).
    The estimate may be negative for small samples; it is returned as-is and
    flagged downstream (see :class:`FiniteSizeEstimate.negative_estimate`)
    rather than clamped.  A non-finite V or estimate raises ValueError.
    """
    import numpy as np
    y = np.asarray(samples, dtype=float)
    if y.ndim != 1 or y.size < 2:
        raise ValueError(f"need a 1-D array of at least 2 monitor samples, got shape {y.shape}")
    _check_source(V, 0.0, y.size)
    hat = float(np.mean(y ** 2) - V)
    if not math.isfinite(hat):
        raise ValueError(f"estimated source-noise variance must be finite, got {hat}")
    return hat


def z_from_epsilon(eps_sm: float) -> float:
    """z > 0 solving erfc(z/sqrt(2)) = eps_sm: the normal quantile at 1 - eps_sm/2, no bisection."""
    if not 0.0 < eps_sm / 2.0 < 0.25:  # 5e-324, the least double, halves to 0
        raise ValueError(f"failure probability must lie in [1e-323, 0.5), got {eps_sm}")
    from statistics import NormalDist  # here, not at the top: the CLI start-up never needs z
    return -NormalDist().inv_cdf(eps_sm / 2.0)


def _penalty(z: float, sigma_hat2: float | np.ndarray, m: int) -> float | np.ndarray:
    """delta = z * sigma_hat^2 * sqrt(2/m), for one estimate or an array of them."""
    return z * sigma_hat2 * math.sqrt(2.0) / math.sqrt(m)


def confidence_bound(sigma_hat2: float, m: int,
                     eps_sm: float = DEFAULT_EPSILON_SM) -> FiniteSizeEstimate:
    """Lower confidence bound sigma_min^2 = sigma_hat^2 - z*sigma_hat^2*sqrt(2/m)."""
    if m < 2:
        raise ValueError(f"need at least 2 monitor samples, got m={m}")
    if not math.isfinite(sigma_hat2):
        raise ValueError(f"noise estimate must be finite, got sigma_hat2={sigma_hat2}")
    z = z_from_epsilon(eps_sm)
    delta = _penalty(z, sigma_hat2, m)
    return FiniteSizeEstimate(
        sigma_hat2=sigma_hat2,
        sigma_min2=sigma_hat2 - delta,
        delta_chi_s=delta,
        m=m,
        epsilon_sm=eps_sm,
        z=z,
    )


def _check_source(V: float, chi_s: float, m: int) -> None:
    if not 1.0 <= V < math.inf:
        raise ValueError(f"modulation variance must be >= 1, got V={V}")
    if not 0.0 <= chi_s < math.inf:
        raise ValueError(f"source-noise variance must be >= 0, got chi_s={chi_s}")
    if m < 2:
        raise ValueError(f"need at least 2 monitor samples, got m={m}")


def simulated_sigma2(V: float, chi_s: float, m: int, seed: int) -> float:
    """mle_sigma2 of the m monitor outcomes of `seed`, bit for bit.

    The draw (see the module's randomness contract) is scaled, squared and
    averaged in place, so only one m-sample array is ever held.
    """
    _check_source(V, chi_s, m)
    import numpy as np
    y = np.random.Generator(np.random.PCG64(seed)).standard_normal(m)
    np.multiply(y, math.sqrt(V + chi_s), out=y)
    np.square(y, out=y)
    return float(np.mean(y) - V)


@dataclass(frozen=True)
class CoverageReport:
    """Monte Carlo characterization of the estimator and its bound.

    failure_rate is the fraction of trials whose lower bound exceeded the
    true chi_s.  std_sigma_hat2 is the empirical trial-to-trial dispersion
    of the estimate; assumed_dispersion is what the bound formula implies
    (sqrt(2)/sqrt(m) times the mean estimate) and moment_dispersion the
    exact value sqrt(2)*(V + chi_s)/sqrt(m).  No side is asserted correct
    here; this is a diagnostic.
    """

    trials: int
    failure_rate: float
    mean_sigma_hat2: float
    std_sigma_hat2: float
    assumed_dispersion: float
    moment_dispersion: float


def coverage_diagnostic(V: float, chi_s: float, m: int, eps_sm: float,
                        trials: int, seed: int) -> CoverageReport:
    """Draw `trials` monitor estimates, bound each one and tabulate.

    Trial k's estimate is (V + chi_s) * X_k / m - V, where X_1..X_trials come
    from one chisquare(m, trials) draw on PCG64(seed).jumped(); that is the
    exact law of mle_sigma2 on m monitor samples.  Each trial takes the
    penalty confidence_bound takes, so its sigma_min2 is the one
    confidence_bound gives for that estimate.  Invalid arguments raise
    ValueError before the draw.
    """
    if trials < 100:
        raise ValueError(f"need at least 100 trials for a meaningful rate, got {trials}")
    _check_source(V, chi_s, m)
    z = z_from_epsilon(eps_sm)

    import numpy as np
    rng = np.random.Generator(np.random.PCG64(seed).jumped())
    hats = (V + chi_s) * rng.chisquare(m, trials) / m - V
    failures = int(np.count_nonzero(hats - _penalty(z, hats, m) > chi_s))
    mean_hat = float(np.mean(hats))
    return CoverageReport(
        trials=trials,
        failure_rate=failures / trials,
        mean_sigma_hat2=mean_hat,
        std_sigma_hat2=float(np.std(hats, ddof=1)),
        assumed_dispersion=_penalty(1.0, mean_hat, m),
        moment_dispersion=math.sqrt(2.0) * (V + chi_s) / math.sqrt(m),
    )
