"""Covariance-matrix algebra for zero-mean Gaussian states.

Conventions used throughout:

* shot-noise units: the vacuum quadrature variance equals 1;
* quadrature ordering (x1, p1, ..., xn, pn), so an n-mode state is a
  2n x 2n real symmetric matrix;
* every state is zero-mean, so the covariance matrix is the whole story.

All operations are pure functions: they never mutate their inputs and the
matrices they return are read-only, so values can be shared freely between
threads.

numpy is imported inside the functions that compute with it, so importing
this module (and the CLI's start-up) does not load it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

_SYMMETRY_RTOL = 1e-12   # constructor gate on |m - m.T|
_NU_CLAMP = 1e-6         # eigenvalues in [1 - _NU_CLAMP, 1) are treated as 1
_RESIDUE_TOL = 1e-9      # tolerated real residue of the eigenvalues of Omega@gamma


def __getattr__(name: str):
    """SIGMA_Z, the Pauli-z block of two-mode correlations, as a new array per access."""
    if name == "SIGMA_Z":
        import numpy as np
        return np.array([[1.0, 0.0], [0.0, -1.0]])
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class UnphysicalStateError(ValueError):
    """The matrix violates the uncertainty principle (some nu < 1)."""


class NumericalInstabilityError(ArithmeticError):
    """An eigen-decomposition left residues above the tolerated noise floor."""


@dataclass(frozen=True)
class CovarianceMatrix:
    """Covariance matrix of a zero-mean Gaussian state.

    The constructor checks squareness, even dimension, finite entries and
    symmetry (to 1e-12 relative), then stores a symmetrized read-only copy.
    Physicality (symplectic spectrum >= 1) is not a constructor gate; it is
    asserted by the consumers that require it, e.g. :func:`von_neumann_entropy`.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        import numpy as np
        m = np.array(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2 or m.shape[0] == 0:
            raise ValueError(f"covariance matrix must be square with even dimension, got shape {m.shape}")
        peak = float(np.abs(m).max())  # nan or inf exactly when some entry is
        if not peak < math.inf:
            raise ValueError("covariance matrix entries must be finite")
        scale = max(1.0, peak)
        if float(np.abs(m - m.T).max()) > _SYMMETRY_RTOL * scale:
            raise ValueError("covariance matrix is not symmetric within 1e-12 relative tolerance")
        m = (m + m.T) / 2.0
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def n_modes(self) -> int:
        return self.matrix.shape[0] // 2

    def _check_mode(self, mode: int) -> None:
        if not 0 <= mode < self.n_modes:
            raise ValueError(f"mode index {mode} out of range for {self.n_modes} modes")


def vacuum_state() -> CovarianceMatrix:
    """Single-mode vacuum: the 2 x 2 identity."""
    import numpy as np
    return CovarianceMatrix(np.eye(2))


def tensor(a: CovarianceMatrix, b: CovarianceMatrix) -> CovarianceMatrix:
    """Product state: block-diagonal stack of two covariance matrices."""
    import numpy as np
    na, nb = a.matrix.shape[0], b.matrix.shape[0]
    m = np.zeros((na + nb, na + nb))
    m[:na, :na] = a.matrix
    m[na:, na:] = b.matrix
    return CovarianceMatrix(m)


def epr_state(V: float) -> CovarianceMatrix:
    """Two-mode squeezed vacuum of variance V.

    Both modes have variance V and the correlation block is
    sqrt(V^2 - 1) * sigma_z; V = 1 is the two-mode vacuum.
    """
    return noisy_source_state(V, 0.0)


def noisy_source_state(V: float, chi_s: float) -> CovarianceMatrix:
    """EPR pair whose second (signal) mode carries extra preparation noise.

    The matrix is [[V*I, c*sigma_z], [c*sigma_z, (V + chi_s)*I]] with
    c = sqrt(V^2 - 1): mode 0 keeps variance V, mode 1 has V + chi_s and the
    correlation is untouched.  chi_s = 0 is :func:`epr_state`.
    """
    if not 1.0 <= V < math.inf:
        raise ValueError(f"EPR variance must be finite and >= 1 shot-noise unit, got V={V}")
    if not 0.0 <= chi_s < math.inf:
        raise ValueError(f"source-noise variance must be finite and >= 0, got chi_s={chi_s}")
    import numpy as np
    c = math.sqrt(V * V - 1.0)
    b = V + chi_s
    return CovarianceMatrix(np.array([[V, 0.0, c, 0.0],
                                      [0.0, V, 0.0, -c],
                                      [c, 0.0, b, 0.0],
                                      [0.0, -c, 0.0, b]]))


def apply_beamsplitter(cm: CovarianceMatrix, i: int, j: int, T: float) -> CovarianceMatrix:
    """Mix modes i and j on a beamsplitter of transmittance T.

    The symplectic matrix is the identity except for the 4x4 block on
    (i, j):

        [[ sqrt(T)*I,   sqrt(1-T)*I ],
         [-sqrt(1-T)*I, sqrt(T)*I   ]]

    applied as gamma -> S^T gamma S.  Mode i keeps the transmitted beam,
    mode j the reflected one.  Being symplectic, the map preserves the
    symplectic spectrum of the full state.
    """
    cm._check_mode(i)
    cm._check_mode(j)
    if i == j:
        raise ValueError("beamsplitter needs two distinct modes")
    if not 0.0 <= T <= 1.0:
        raise ValueError(f"transmittance must lie in [0, 1], got T={T}")
    import numpy as np
    rt, rr = math.sqrt(T), math.sqrt(1.0 - T)
    s = np.eye(2 * cm.n_modes)
    si, sj = slice(2 * i, 2 * i + 2), slice(2 * j, 2 * j + 2)
    s[si, si] = rt * np.eye(2)
    s[si, sj] = rr * np.eye(2)
    s[sj, si] = -rr * np.eye(2)
    s[sj, sj] = rt * np.eye(2)
    return CovarianceMatrix(s.T @ cm.matrix @ s)


def apply_fiber_channel(cm: CovarianceMatrix, mode: int, eta: float, eps: float) -> CovarianceMatrix:
    """Send one mode through a lossy fiber with excess noise.

    The mode's own variance maps as v -> eta*v + (1 - eta) + eta*eps,
    i.e. v -> eta*(v + chi) with chi = (1 - eta)/eta + eps referred to the
    channel input; every cross block touching the mode scales by
    sqrt(eta) and the off-diagonal structure inside the mode's own block
    scales by eta.
    """
    cm._check_mode(mode)
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"transmittance must lie in (0, 1], got eta={eta}")
    if eps < 0.0:
        raise ValueError(f"excess noise must be >= 0, got eps={eps}")
    import numpy as np
    m = cm.matrix.copy()
    sl = slice(2 * mode, 2 * mode + 2)
    root = math.sqrt(eta)
    m[sl, :] *= root
    m[:, sl] *= root
    m[sl, sl] += ((1.0 - eta) + eta * eps) * np.eye(2)
    return CovarianceMatrix(m)


@functools.cache
def _symplectic_form(n_modes: int) -> np.ndarray:
    """Omega for n modes, the direct sum of [[0, 1], [-1, 0]] blocks; read-only, built once per n."""
    import numpy as np
    omega = np.kron(np.eye(n_modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    omega.setflags(write=False)
    return omega


def symplectic_spectrum(cm: CovarianceMatrix) -> np.ndarray:
    """Symplectic eigenvalues, one per mode, sorted descending.

    These are the n positive numbers {nu} such that Omega @ gamma has
    eigenvalues {+/- i nu}, with Omega the symplectic form (a direct sum of
    [[0, 1], [-1, 0]] blocks); they are invariant under symplectic transforms
    and nu >= 1 for every physical state.  Computed for any n from the
    eigenvalues of Omega @ gamma.
    """
    import numpy as np
    evals = np.linalg.eigvals(_symplectic_form(cm.n_modes) @ cm.matrix)
    scale = max(1.0, float(np.abs(evals).max()))
    residue = float(np.abs(evals.real).max())
    if residue > _RESIDUE_TOL * scale:
        raise NumericalInstabilityError(
            f"eigenvalues of Omega@gamma are not purely imaginary: real residue {residue:.3e}")
    # moduli come in equal pairs |+/- i nu|; keep one of each
    return np.sort(np.abs(evals))[::-1][0::2]


def g_entropy(x: float) -> float:
    """Bosonic entropy kernel G(x) = (x+1)log2(x+1) - x log2 x, G(0) = 0.

    G is nonnegative and strictly increasing for x > 0; tiny negative
    arguments from floating-point noise are treated as 0.
    """
    if x <= 0.0:
        return 0.0
    return (x + 1.0) * math.log2(x + 1.0) - x * math.log2(x)


def von_neumann_entropy(cm: CovarianceMatrix) -> float:
    """von Neumann entropy in bits: sum of G((nu - 1)/2) over the spectrum.

    Eigenvalues inside [1 - 1e-6, 1) are clamped to 1 (floating-point
    noise around purity); anything below that margin raises
    :class:`UnphysicalStateError`.
    """
    total = 0.0
    for nu in symplectic_spectrum(cm):
        if nu < 1.0 - _NU_CLAMP:
            raise UnphysicalStateError(f"symplectic eigenvalue {nu} violates the uncertainty principle")
        total += g_entropy((max(float(nu), 1.0) - 1.0) / 2.0)
    return total


def condition_on_homodyne(cm: CovarianceMatrix, mode: int) -> CovarianceMatrix:
    """State of the remaining modes after an x-quadrature homodyne of `mode`.

    Implements the Schur complement with the x projector:
    gamma_rest -> gamma_rest - c_x c_x^T / B_xx, where c_x is the column of
    cross covariances with the measured x and B_xx its variance.  The
    measured mode's p quadrature contributes nothing (pseudoinverse
    convention).  All constructed states are phase-symmetric, so measuring
    x rather than p is a pure convention.
    """
    if cm.n_modes < 2:
        raise ValueError("conditioning needs at least two modes")
    cm._check_mode(mode)
    bxx = float(cm.matrix[2 * mode, 2 * mode])
    if bxx <= 0.0:
        raise ValueError(f"measured x-variance must be positive, got {bxx}")
    import numpy as np
    rest = [k for m in range(cm.n_modes) if m != mode for k in (2 * m, 2 * m + 1)]
    cx = cm.matrix[np.ix_(rest, [2 * mode])]
    reduced = cm.matrix[np.ix_(rest, rest)]
    return CovarianceMatrix(reduced - (cx @ cx.T) / bxx)


def mutual_info_het_hom(a: float, b: float, c: float) -> float:
    """Mutual information (bits) when side A is heterodyned and side B homodyned.

    For a two-mode state [[a*I, c*sigma_z], [c*sigma_z, b*I]] the heterodyne
    outcome on A leaves B with conditional variance b - c^2/(a + 1), so

        I = (1/2) log2[ b / (b - c^2/(a + 1)) ].
    """
    if a < 1.0 - 1e-9 or b < 1.0 - 1e-9:
        raise ValueError(f"own variances must be >= 1 in shot-noise units, got a={a}, b={b}")
    cond = b - c * c / (a + 1.0)
    if cond <= 0.0:
        raise ValueError(f"conditional variance must be positive, got {cond}")
    return 0.5 * math.log2(b / cond)
