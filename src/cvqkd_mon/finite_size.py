"""Finite-sample estimation of the source-noise variance from monitor data.

The monitor homodynes m pulses whose outcomes y_i are zero-mean Gaussians
of variance V + sigma_s^2.  The maximum-likelihood estimate of the noise
variance is sigma_hat^2 = (1/m) sum y_i^2 - V.  Security analyses must use
a lower confidence bound on the estimate: given a failure probability
eps_sm, the bound is

    sigma_min^2 = sigma_hat^2 - delta,    delta = z * sigma_hat^2 * sqrt(2/m),

with z the two-sided Gaussian quantile solving erfc(z/sqrt(2)) = eps_sm.
The delta formula takes the estimator dispersion proportional to the
estimate itself; the exact second-moment calculation instead gives
std(sigma_hat^2) = sqrt(2)*(V + sigma_s^2)/sqrt(m), which is much larger
whenever V dominates.  The confidence bound implements the former
literally; :func:`coverage_diagnostic` reports both candidates next to the
Monte Carlo truth so the discrepancy stays visible.

Randomness contract: all synthetic data comes from numpy's PCG64 stream
(ziggurat normal variates), seeded explicitly, so batches are reproducible
bit-for-bit across platforms.  A monitor batch of seed s is drawn from
PCG64(s).  The coverage diagnostic draws its trials from PCG64(s).jumped(),
a stream independent of that batch: since sum(y_i^2)/(V + sigma_s^2) is
chi-squared with m degrees of freedom, each trial is one chi-squared variate
rather than m normal ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Default failure probability for the confidence bound.
DEFAULT_EPSILON_SM = 1e-10

_Z_BRACKET = 40.0   # erfc(40/sqrt(2)) ~ 1e-350, far below any usable eps_sm
_Z_TOL = 1e-10


@dataclass(frozen=True)
class MonitorBatch:
    """Raw monitor outcomes together with the known modulation variance."""

    samples: np.ndarray
    V: float

    def __post_init__(self) -> None:
        y = np.array(self.samples, dtype=float)
        if y.ndim != 1 or y.size < 1:
            raise ValueError("samples must be a non-empty 1-D array")
        if self.V < 1.0:
            raise ValueError(f"modulation variance must be >= 1, got V={self.V}")
        y.setflags(write=False)
        object.__setattr__(self, "samples", y)

    @property
    def m(self) -> int:
        return int(self.samples.size)


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


def mle_sigma2(batch: MonitorBatch) -> float:
    """Maximum-likelihood source-noise variance (1/m) sum y_i^2 - V.

    May be negative for small samples; the value is returned as-is and
    flagged downstream (see :class:`FiniteSizeEstimate.negative_estimate`)
    rather than clamped, so diagnostics stay unbiased.
    """
    if batch.m < 2:
        raise ValueError(f"need at least 2 monitor samples, got {batch.m}")
    return float(np.mean(batch.samples ** 2) - batch.V)


def z_from_epsilon(eps_sm: float) -> float:
    """Quantile z > 0 solving erfc(z/sqrt(2)) = eps_sm.

    Bracketed bisection on [0, 40] to 1e-10 absolute; erfc(x) is the
    numerically stable form of 1 - erf(x).
    """
    if not 0.0 < eps_sm < 0.5:
        raise ValueError(f"failure probability must lie in (0, 0.5), got {eps_sm}")
    lo, hi = 0.0, _Z_BRACKET
    while hi - lo > _Z_TOL:
        mid = 0.5 * (lo + hi)
        if math.erfc(mid / math.sqrt(2.0)) > eps_sm:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def confidence_bound(sigma_hat2: float, m: int,
                     eps_sm: float = DEFAULT_EPSILON_SM) -> FiniteSizeEstimate:
    """Lower confidence bound sigma_min^2 = sigma_hat^2 - z*sigma_hat^2*sqrt(2/m)."""
    if m < 2:
        raise ValueError(f"need at least 2 monitor samples, got m={m}")
    if not math.isfinite(sigma_hat2):
        raise ValueError(f"noise estimate must be finite, got sigma_hat2={sigma_hat2}")
    z = z_from_epsilon(eps_sm)
    delta = z * sigma_hat2 * math.sqrt(2.0) / math.sqrt(m)
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
    if m < 1:
        raise ValueError(f"need at least 1 sample, got m={m}")


def simulate_monitor(V: float, chi_s: float, m: int, seed: int) -> MonitorBatch:
    """Draw m monitor outcomes ~ N(0, V + chi_s) from a PCG64 stream."""
    _check_source(V, chi_s, m)
    rng = np.random.Generator(np.random.PCG64(seed))
    y = rng.standard_normal(m) * math.sqrt(V + chi_s)
    return MonitorBatch(samples=y, V=V)


def simulated_sigma2(V: float, chi_s: float, m: int, seed: int) -> float:
    """mle_sigma2(simulate_monitor(V, chi_s, m, seed)), bit for bit.

    The draw is scaled, squared and averaged in place, so only one m-sample
    array is ever held; the batch itself is not kept.
    """
    _check_source(V, chi_s, m)
    if m < 2:
        raise ValueError(f"need at least 2 monitor samples, got {m}")
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
    exact law of mle_sigma2 on m monitor samples.  Each trial is bounded
    with the arithmetic of confidence_bound, so its sigma_min2 is the one
    confidence_bound gives for that estimate.  Invalid arguments raise
    ValueError before the draw.
    """
    if trials < 100:
        raise ValueError(f"need at least 100 trials for a meaningful rate, got {trials}")
    _check_source(V, chi_s, m)
    if m < 2:
        raise ValueError(f"need at least 2 monitor samples, got m={m}")
    z = z_from_epsilon(eps_sm)

    rng = np.random.Generator(np.random.PCG64(seed).jumped())
    hats = (V + chi_s) * rng.chisquare(m, trials) / m - V
    failures = int(np.count_nonzero(hats - z * hats * math.sqrt(2.0) / math.sqrt(m) > chi_s))
    mean_hat = float(np.mean(hats))
    return CoverageReport(
        trials=trials,
        failure_rate=failures / trials,
        mean_sigma_hat2=mean_hat,
        std_sigma_hat2=float(np.std(hats, ddof=1)),
        assumed_dispersion=math.sqrt(2.0) * mean_hat / math.sqrt(m),
        moment_dispersion=math.sqrt(2.0) * (V + chi_s) / math.sqrt(m),
    )
