"""Independent reference implementations used as test oracles.

Nothing here imports the package under test: every function recomputes its
quantity through a different route (closed forms, explicit limits, numeric
quadrature, root finding) so agreement is evidence, not tautology.
"""

import math
from typing import Callable

import numpy as np
import scipy.integrate
import scipy.optimize


def two_mode_spectrum_closed_form(a: float, b: float, c: float) -> tuple[float, float]:
    """Symplectic eigenvalues of [[a*I, c*sz], [c*sz, b*I]].

    nu_pm^2 = (Delta +/- sqrt(Delta^2 - 4 D^2)) / 2 with
    Delta = a^2 + b^2 - 2 c^2 and D = a*b - c^2.
    """
    delta = a * a + b * b - 2.0 * c * c
    dd = a * b - c * c
    disc = math.sqrt(max(delta * delta - 4.0 * dd * dd, 0.0))
    nu_plus = math.sqrt((delta + disc) / 2.0)
    nu_minus = math.sqrt((delta - disc) / 2.0)
    return nu_plus, nu_minus


def g_scalar(x: float) -> float:
    """(x+1)log2(x+1) - x log2 x with g(0) = 0, in plain scalar arithmetic."""
    if x <= 0.0:
        return 0.0
    return (x + 1.0) * math.log2(x + 1.0) - x * math.log2(x)


def two_mode_entropy_closed_form(a: float, b: float, c: float) -> float:
    """von Neumann entropy of a standard-form two-mode state, closed form only."""
    nu_plus, nu_minus = two_mode_spectrum_closed_form(a, b, c)
    return g_scalar((nu_plus - 1.0) / 2.0) + g_scalar((nu_minus - 1.0) / 2.0)


def untrusted_keyrate_scalar(V: float, chi_s: float, beta: float,
                             eta: float, eps: float) -> tuple[float, float, float]:
    """Straight-line scalar pipeline for the no-monitor baseline.

    Builds nothing but floats: standard-form entries of the transmitted
    state, mutual information, two-mode entropy via the closed form, and
    the conditional entropy after Bob's x homodyne (single-mode state
    diag(a - c^2/b, a), symplectic eigenvalue sqrt(a(a - c^2/b))).
    Returns (i_ab, s_eb, key_rate).
    """
    chi = (1.0 - eta) / eta + eps
    a = V
    b = eta * (V + chi_s + chi)
    c2 = eta * (V * V - 1.0)
    i_ab = 0.5 * math.log2(b / (b - c2 / (a + 1.0)))
    s_ab = two_mode_entropy_closed_form(a, b, math.sqrt(c2))
    nu_cond = math.sqrt((a - c2 / b) * a)
    s_a_given_b = g_scalar((nu_cond - 1.0) / 2.0)
    s_eb = s_ab - s_a_given_b
    return i_ab, s_eb, beta * i_ab - s_eb


def thermal_input_holevo_scalar(W: float, eta: float, eps: float) -> float:
    """S(E:b) of an entangling-cloner attack on a thermal input of variance W.

    Eve purifies only the channel.  Whatever the trusted side keeps, it
    purifies the thermal input, and every purification of that input
    equals a two-mode squeezed vacuum of variance W up to a unitary on
    the trusted modes, which changes neither S(E) nor S(E|b).  So S(E:b)
    is the Holevo term of the two-mode pipeline at V=W and chi_s=0
    (Weedbrook et al., RMP 84, 621 (2012)).
    """
    return untrusted_keyrate_scalar(W, 0.0, 0.0, eta, eps)[1]


def active_keyrate_scalar(V: float, chi_s: float, beta: float, r: float,
                          eta: float, eps: float) -> tuple[float, float, float]:
    """Switch monitor: the channel input is thermal of variance V + chi_s.

    I(a:b) is the untrusted one (same transmitted state); S(E:b) comes
    from the thermal input alone.  Returns (i_ab, s_eb, key_rate) with
    the (1 - r) duty factor on the key rate.
    """
    i_ab = untrusted_keyrate_scalar(V, chi_s, beta, eta, eps)[0]
    s_eb = thermal_input_holevo_scalar(V + chi_s, eta, eps)
    return i_ab, s_eb, (1.0 - r) * (beta * i_ab - s_eb)


def passive_keyrate_scalar(V: float, chi_s: float, beta: float, T: float,
                           eta: float, eps: float) -> tuple[float, float, float]:
    """Tap monitor: the channel input is thermal of variance T(V+chi_s)+1-T.

    With W that variance and chi = (1-eta)/eta + eps, Bob's variance is
    eta(W + chi) and, given Alice's heterodyne, eta(1 + T chi_s + chi),
    so I(a:b) = 1/2 log2((W + chi)/(1 + T chi_s + chi)).  S(E:b) is the
    two-mode thermal-input term, not the three-mode substitute state.
    Returns (i_ab, s_eb, key_rate).
    """
    W = T * (V + chi_s) + 1.0 - T
    chi = (1.0 - eta) / eta + eps
    i_ab = 0.5 * math.log2((W + chi) / (1.0 + T * chi_s + chi))
    s_eb = thermal_input_holevo_scalar(W, eta, eps)
    return i_ab, s_eb, beta * i_ab - s_eb


def secure_distance_brentq(key_at_eta: Callable[[float], float], d_max: float,
                           alpha_db_per_km: float = 0.2) -> float | None:
    """Zero crossing in distance of a key rate given as a function of eta.

    None if insecure at d=0 and d_max if still secure there, as for the
    package's search; otherwise scipy's brentq on [0, d_max], which needs
    no grid and converges to 1e-9 km.  Assumes one sign change, i.e. the
    rate never becomes positive again once lost.
    """
    def key(d: float) -> float:
        return key_at_eta(10.0 ** (-alpha_db_per_km * d / 10.0))

    if key(0.0) <= 0.0:
        return None
    if key(d_max) > 0.0:
        return d_max
    return scipy.optimize.brentq(key, 0.0, d_max, xtol=1e-9)


def secure_distance_full_scan(rate: Callable[[float], float], d_max: float) -> float | None:
    """Secure distance from a key rate evaluated on the whole search grid.

    The grid is k * 0.5 km up to `d_max`, then `d_max` if not on it.  Every
    grid point is evaluated, and the crossing is bisected to 0.01 km from the
    *last* positive point to the grid point after it, so this agrees with a
    search that stops at the first non-positive point only where the rate
    never becomes positive again.  None if insecure at d=0 and `d_max` if
    positive on the whole grid.  An exception propagates while every point so
    far is positive; after a non-positive point the scan ends at the first
    point that raises (the opacity floor).
    """
    if rate(0.0) <= 0.0:
        return None
    n = math.floor(d_max / 0.5)
    grid = [0.5 * k for k in range(1, n + 1)] + ([d_max] if 0.5 * n < d_max else [])
    values = []
    for d in grid:
        try:
            values.append(rate(d))
        except Exception:
            if min(values, default=1.0) > 0.0:
                raise
            break
    positive = [k for k, v in enumerate(values) if v > 0.0]
    if len(positive) == len(grid):
        return d_max
    k = positive[-1] + 1 if positive else 0
    lo, hi = (grid[k - 1] if k else 0.0), grid[k]
    while hi - lo > 0.01:
        mid = 0.5 * (lo + hi)
        if rate(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def condition_via_meter_limit(matrix: np.ndarray, mode: int,
                              squeeze: float = 1e-10) -> np.ndarray:
    """Homodyne conditioning as the limit of a finite-squeezing meter.

    gamma' = A - C (B + diag(s, 1/s))^-1 C^T with s -> 0 reproduces the
    x-quadrature projective limit through an ordinary matrix inverse,
    avoiding the pseudoinverse route entirely.
    """
    n = matrix.shape[0] // 2
    rest = [k for m in range(n) if m != mode for k in (2 * m, 2 * m + 1)]
    meas = [2 * mode, 2 * mode + 1]
    a = matrix[np.ix_(rest, rest)]
    b = matrix[np.ix_(meas, meas)]
    c = matrix[np.ix_(rest, meas)]
    meter = np.diag([squeeze, 1.0 / squeeze])
    return a - c @ np.linalg.inv(b + meter) @ c.T


def gaussian_mi_quadrature(var_a: float, var_b: float, cov: float) -> float:
    """Mutual information of a bivariate Gaussian by brute-force integration.

    Integrates p(x,y) log2[p(x,y) / (p(x) p(y))] over +/- 8 standard
    deviations with scipy's adaptive quadrature.
    """
    det = var_a * var_b - cov * cov

    def integrand(y: float, x: float) -> float:
        quad = (var_b * x * x - 2.0 * cov * x * y + var_a * y * y) / det
        p_joint = math.exp(-0.5 * quad) / (2.0 * math.pi * math.sqrt(det))
        if p_joint <= 0.0:
            return 0.0
        p_x = math.exp(-0.5 * x * x / var_a) / math.sqrt(2.0 * math.pi * var_a)
        p_y = math.exp(-0.5 * y * y / var_b) / math.sqrt(2.0 * math.pi * var_b)
        return p_joint * math.log2(p_joint / (p_x * p_y))

    lim_x = 8.0 * math.sqrt(var_a)
    lim_y = 8.0 * math.sqrt(var_b)
    value, _ = scipy.integrate.dblquad(integrand, -lim_x, lim_x,
                                       lambda _: -lim_y, lambda _: lim_y,
                                       epsabs=1e-9, epsrel=1e-9)
    return value


def het_hom_mi_oracle(a: float, b: float, c: float) -> float:
    """Quadrature oracle for the heterodyne/homodyne mutual information.

    The heterodyne outcome on side A is a Gaussian of variance (a+1)/2
    with covariance c/sqrt(2) against B's homodyne outcome of variance b.
    """
    return gaussian_mi_quadrature((a + 1.0) / 2.0, b, c / math.sqrt(2.0))
