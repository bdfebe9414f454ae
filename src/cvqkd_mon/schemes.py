"""Secret key rates for coherent-state CVQKD with a noisy source.

Three security models for the same physical link are evaluated, all with
reverse reconciliation against collective attacks in the asymptotic limit.
They share one pipeline: the source state [[V, c], [c, V + chi_s]] (c the
EPR correlation) has its signal mode sent through an optional tap
beamsplitter, whose reflected monitor mode M stays at the (trusted)
transmitter, and then the fiber.  I(a:b) always comes from this actual
state.  The scheme fixes three things:

=============  =========  ==============  =========
scheme         tap        Holevo state    duty
=============  =========  ==============  =========
untrusted      none       actual          1
active_switch  none       substitute      1 - r
passive_bs     T          substitute      1
=============  =========  ==============  =========

and K = duty * (beta*I(a:b) - S(E:b)).  Without a monitor the preparation
noise cannot be told apart from channel noise, so Eve is credited with
purifying the actual state.  A monitor pins chi_s down -- the active switch
diverts a fraction r of the pulses to a homodyne, the passive tap measures
M -- so S(E:b) is taken on a substitute state, a two-mode squeezed vacuum
of variance V + chi_s through the same tap and fiber, which bounds Eve
tightly without crediting her with the preparation noise.  Behind the tap
Eve purifies only the channel: S(E:b) = S(A,B,M) - S(A,M|b).

Every evaluation is a pure function of its parameters; sweep drivers may
run grid points in parallel and merge by index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .gaussian import (
    CovarianceMatrix,
    apply_beamsplitter,
    apply_fiber_channel,
    condition_on_homodyne,
    epr_state,
    mutual_info_het_hom,
    noisy_source_state,
    tensor,
    vacuum_state,
    von_neumann_entropy,
)

SCHEME_UNTRUSTED = "untrusted"
SCHEME_ACTIVE = "active_switch"
SCHEME_PASSIVE = "passive_bs"
SCHEMES = (SCHEME_UNTRUSTED, SCHEME_ACTIVE, SCHEME_PASSIVE)

#: Below this transmittance, 60/alpha km of fiber, chi diverges and key rates
#: are meaningless; ChannelParams refuses an opaque span.
ETA_FLOOR = 1e-6

_D_MAX_KM = 100.0  # default secure-distance search cap, km
_COARSE_STEP_KM = 0.5  # grid spacing of the secure-distance scan
_TOL_KM = 0.01  # width at which bisection stops


class ChannelOpaqueError(ValueError):
    """Channel transmittance fell below the evaluable floor."""


@dataclass(frozen=True)
class ChannelParams:
    """Fiber span: length, attenuation and input-referred excess noise.

    A span with eta below ETA_FLOOR raises ChannelOpaqueError.
    """

    distance_km: float
    epsilon: float = 0.1
    alpha_db_per_km: float = 0.2

    def __post_init__(self) -> None:
        if not self.distance_km >= 0.0:
            raise ValueError(f"distance must be >= 0 km, got {self.distance_km}")
        if not 0.0 <= self.epsilon < math.inf:
            raise ValueError(f"excess noise must be >= 0, got {self.epsilon}")
        if not 0.0 < self.alpha_db_per_km < math.inf:
            raise ValueError(f"attenuation must be > 0 dB/km, got {self.alpha_db_per_km}")
        if self.eta < ETA_FLOOR:
            raise ChannelOpaqueError(f"channel opaque: eta={self.eta:.3e} below {ETA_FLOOR} "
                                     f"(distance {self.distance_km} km)")

    @property
    def eta(self) -> float:
        """Transmittance 10^(-alpha*d/10)."""
        return 10.0 ** (-self.alpha_db_per_km * self.distance_km / 10.0)

    @property
    def chi(self) -> float:
        """Total channel noise (1 - eta)/eta + epsilon, referred to the input."""
        eta = self.eta
        return (1.0 - eta) / eta + self.epsilon


@dataclass(frozen=True)
class ProtocolParams:
    """One parameter point driving every scheme.

    V is the EPR-equivalent modulation variance (V = V_A + 1), chi_s the
    preparation-noise variance, beta the reconciliation efficiency, r the
    active-scheme sampling ratio and T the passive-scheme tap
    transmittance toward Bob.  Defaults match the reference comparison
    point used throughout the test suite.
    """

    channel: ChannelParams
    V: float = 40.0
    chi_s: float = 0.1
    beta: float = 0.8
    r: float = 0.5
    T: float = 0.5

    def __post_init__(self) -> None:
        if not 1.0 <= self.V < math.inf:
            raise ValueError(f"modulation variance must be >= 1, got V={self.V}")
        if not 0.0 <= self.chi_s < math.inf:
            raise ValueError(f"source-noise variance must be >= 0, got chi_s={self.chi_s}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"reconciliation efficiency must lie in [0, 1], got beta={self.beta}")
        if not 0.0 <= self.r < 1.0:
            raise ValueError(f"sampling ratio must lie in [0, 1), got r={self.r}")
        if not 0.0 < self.T <= 1.0:
            raise ValueError(f"tap transmittance must lie in (0, 1], got T={self.T}")


@dataclass(frozen=True)
class KeyRateBreakdown:
    """Atomic result of one evaluation: I(a:b), S(E:b) and the key rate."""

    scheme: str
    i_ab: float
    s_eb: float
    key_rate: float

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme tag {self.scheme!r}")
        if self.s_eb < -1e-9 or self.i_ab < -1e-9:
            raise ValueError(f"negative information quantities: i_ab={self.i_ab}, s_eb={self.s_eb}")

    @property
    def secure(self) -> bool:
        return self.key_rate > 0.0


def _transmit(source: CovarianceMatrix, p: ProtocolParams, tap: bool) -> CovarianceMatrix:
    """Signal mode 1 through the optional tap (vacuum enters as mode 2), then the fiber."""
    if tap:
        source = apply_beamsplitter(tensor(source, vacuum_state()), 1, 2, p.T)
    return apply_fiber_channel(source, 1, p.channel.eta, p.channel.epsilon)


def evaluate_keyrate(scheme: str, p: ProtocolParams) -> KeyRateBreakdown:
    """I(a:b), S(E:b) and the key rate of `scheme` (see the module table)."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme tag {scheme!r}; expected one of {SCHEMES}")
    tap = scheme == SCHEME_PASSIVE  # even at T=1: passive stays on its three-mode states
    actual = _transmit(noisy_source_state(p.V, p.chi_s), p, tap)
    m = actual.matrix
    i_ab = mutual_info_het_hom(float(m[0, 0]), float(m[2, 2]), float(m[0, 2]))
    eve = actual if scheme == SCHEME_UNTRUSTED else _transmit(epr_state(p.V + p.chi_s), p, tap)
    # Eve holds the purification of `eve`, so S(E) = S(eve); after Bob's
    # rank-one homodyne the joint conditional state is again pure, so S(E|b)
    # is the entropy of the remaining modes conditioned on Bob's outcome.
    s_eb = von_neumann_entropy(eve) - von_neumann_entropy(condition_on_homodyne(eve, 1))
    duty = 1.0 - p.r if scheme == SCHEME_ACTIVE else 1.0
    return KeyRateBreakdown(scheme, i_ab, s_eb, duty * (p.beta * i_ab - s_eb))


def keyrate_at_distance(scheme: str, p: ProtocolParams, d_km: float) -> KeyRateBreakdown:
    """Evaluate `scheme` at the same parameters but a different span length."""
    return evaluate_keyrate(scheme, replace(p, channel=replace(p.channel, distance_km=d_km)))


def secure_distance(scheme: str, p: ProtocolParams, d_max: float = _D_MAX_KM) -> float | None:
    """Largest distance with a positive key rate, or None if insecure at d=0.

    One walk evaluates d=0, then steps of 0.5 km, then `d_max` itself, and
    never a point past `d_max`.  It stops at the first non-positive point:
    None if that is d=0, and otherwise bisection narrows the boundary
    between it and the point before to 0.01 km.  This relies on the rate
    never becoming positive again once lost.  If every point up to `d_max`
    is positive the cap itself is returned.  A walk that reaches the
    ETA_FLOOR opacity limit (60/alpha km) while the rate is still positive
    raises ChannelOpaqueError from the ChannelParams of the first point
    past it.
    """
    if not d_max < math.inf:
        raise ValueError(f"search cap must be finite, got d_max={d_max}")
    if d_max <= 0.0:
        raise ValueError(f"search cap must be positive, got d_max={d_max}")

    def rate(d: float) -> float:
        return keyrate_at_distance(scheme, p, d).key_rate

    lo, hi = None, 0.0
    while rate(hi) > 0.0:
        if hi == d_max:
            return d_max
        lo, hi = hi, min(hi + _COARSE_STEP_KM, d_max)
    if lo is None:
        return None
    while hi - lo > _TOL_KM:
        mid = 0.5 * (lo + hi)
        if rate(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class TapSweepResult:
    """Outcome of a tap-transmittance sweep for the passive scheme."""

    T_best: float
    d_best: float | None
    table: tuple[tuple[float, float | None], ...]


def optimize_T(p: ProtocolParams, T_grid: list[float], d_max: float = _D_MAX_KM) -> TapSweepResult:
    """Secure distance of the passive scheme over a grid of tap values.

    Exhaustive evaluation; ties break toward the smaller T.  When every
    grid point is insecure, d_best is None and T_best is the smallest T.
    """
    if len(T_grid) == 0:
        raise ValueError("tap grid must not be empty")
    table = tuple((T, secure_distance(SCHEME_PASSIVE, replace(p, T=T), d_max=d_max))
                  for T in T_grid)
    # The longest distance; among equal ones the smaller T, whose negation is larger.
    best_d, neg_T = max(((d, -T) for T, d in table if d is not None),
                        default=(None, -min(T_grid)))
    return TapSweepResult(T_best=-neg_T, d_best=best_d, table=table)
