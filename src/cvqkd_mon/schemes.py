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

#: Below this transmittance the channel-noise parameter chi diverges and
#: key rates are meaningless; evaluations refuse to proceed.
ETA_FLOOR = 1e-6

_D_MAX_KM = 100.0  # default secure-distance search cap, km
_COARSE_STEP_KM = 0.5  # grid spacing of the secure-distance scan
_TOL_KM = 0.01  # width at which bisection stops


class ChannelOpaqueError(ValueError):
    """Channel transmittance fell below the evaluable floor."""


@dataclass(frozen=True)
class ChannelParams:
    """Fiber span: length, attenuation and input-referred excess noise."""

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


def _check_transparent(channel: ChannelParams) -> None:
    if channel.eta < ETA_FLOOR:
        raise ChannelOpaqueError(
            f"channel opaque: eta={channel.eta:.3e} below {ETA_FLOOR} "
            f"(distance {channel.distance_km} km)")


def _transmit(source: CovarianceMatrix, p: ProtocolParams, tap: bool) -> CovarianceMatrix:
    """Signal mode 1 through the optional tap (vacuum enters as mode 2), then the fiber."""
    if tap:
        source = apply_beamsplitter(tensor(source, vacuum_state()), 1, 2, p.T)
    return apply_fiber_channel(source, 1, p.channel.eta, p.channel.epsilon)


def evaluate_keyrate(scheme: str, p: ProtocolParams) -> KeyRateBreakdown:
    """I(a:b), S(E:b) and the key rate of `scheme` (see the module table)."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme tag {scheme!r}; expected one of {SCHEMES}")
    _check_transparent(p.channel)
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


def _coarse_grid(d_max: float):
    """The scan points k * 0.5 km for k >= 1 up to `d_max`, then `d_max` if not on it."""
    k = 1
    while k <= d_max / _COARSE_STEP_KM + 1e-9:
        yield k * _COARSE_STEP_KM
        k += 1
    if (k - 1) * _COARSE_STEP_KM < d_max:
        yield d_max


def secure_distance(scheme: str, p: ProtocolParams, d_max: float = _D_MAX_KM) -> float | None:
    """Largest distance with a positive key rate, or None if insecure at d=0.

    d=0 is evaluated first, so an insecure search returns None after one
    point.  Otherwise a scan in fixed 0.5 km steps up to `d_max` brackets
    the last positive point, then bisection narrows the boundary to
    0.01 km.  If the rate is still positive at `d_max` the cap itself is
    returned.  A scan that passes the ETA_FLOOR opacity limit (about 300 km
    at 0.2 dB/km) raises ChannelOpaqueError there.
    """
    if not d_max < math.inf:
        raise ValueError(f"search cap must be finite, got d_max={d_max}")
    if d_max <= 0.0:
        raise ValueError(f"search cap must be positive, got d_max={d_max}")

    def rate(d: float) -> float:
        return keyrate_at_distance(scheme, p, d).key_rate

    if rate(0.0) <= 0.0:
        return None
    lo = hi = 0.0
    positive = True
    for d in _coarse_grid(d_max):
        was_positive, positive = positive, rate(d) > 0.0
        if positive:
            lo = d
        elif was_positive:
            hi = d
    if positive:
        return d_max
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
    table = []
    best_T: float | None = None
    best_d: float | None = None
    for T in T_grid:
        dist = secure_distance(SCHEME_PASSIVE, replace(p, T=T), d_max=d_max)
        table.append((T, dist))
        better = dist is not None and (best_d is None or dist > best_d
                                       or (dist == best_d and T < best_T))
        if better:
            best_T, best_d = T, dist
    if best_T is None:
        best_T = min(T_grid)
    return TapSweepResult(T_best=best_T, d_best=best_d, table=tuple(table))
