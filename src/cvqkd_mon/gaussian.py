"""Covariance-matrix algebra for zero-mean Gaussian states.

Conventions used throughout:

* shot-noise units: the vacuum quadrature variance equals 1;
* quadrature ordering (x1, p1, ..., xn, pn), so an n-mode state is a
  2n x 2n real symmetric matrix;
* every state is zero-mean, so the covariance matrix is the whole story.

All operations are pure functions: they never mutate their inputs and the
matrices they return are read-only, so values can be shared freely between
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Pauli-z block appearing in the correlation blocks of two-mode states.
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])

_SYMMETRY_RTOL = 1e-12   # constructor gate on |m - m.T|
_NU_CLAMP = 1e-6         # eigenvalues in [1 - _NU_CLAMP, 1) are treated as 1
_RESIDUE_TOL = 1e-9      # tolerated real residue of the eigenvalues of Omega@gamma


class UnphysicalStateError(ValueError):
    """The matrix violates the uncertainty principle (some nu < 1)."""


class NumericalInstabilityError(ArithmeticError):
    """An eigen-decomposition left residues above the tolerated noise floor."""


def symplectic_form(n_modes: int) -> np.ndarray:
    """2n x 2n symplectic form: a direct sum of [[0, 1], [-1, 0]] blocks."""
    if n_modes < 1:
        raise ValueError(f"need at least one mode, got {n_modes}")
    return np.kron(np.eye(n_modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))


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

    def mode_block(self, mode: int) -> np.ndarray:
        """Own 2x2 (x, p) block of one mode."""
        self._check_mode(mode)
        return self.matrix[2 * mode:2 * mode + 2, 2 * mode:2 * mode + 2]

    def cross_block(self, i: int, j: int) -> np.ndarray:
        """2x2 correlation block between modes i and j."""
        self._check_mode(i)
        self._check_mode(j)
        return self.matrix[2 * i:2 * i + 2, 2 * j:2 * j + 2]

    def reduced(self, modes: list[int]) -> "CovarianceMatrix":
        """Marginal state of the listed modes, in the listed order."""
        for m in modes:
            self._check_mode(m)
        idx = [k for m in modes for k in (2 * m, 2 * m + 1)]
        return CovarianceMatrix(self.matrix[np.ix_(idx, idx)])


def vacuum_state(n_modes: int = 1) -> CovarianceMatrix:
    """n-mode vacuum: the 2n x 2n identity."""
    if n_modes < 1:
        raise ValueError(f"need at least one mode, got {n_modes}")
    return CovarianceMatrix(np.eye(2 * n_modes))


def tensor(a: CovarianceMatrix, b: CovarianceMatrix) -> CovarianceMatrix:
    """Product state: block-diagonal stack of two covariance matrices."""
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
    c = math.sqrt(V * V - 1.0)
    eye = np.eye(2)
    return CovarianceMatrix(np.block([[V * eye, c * SIGMA_Z], [c * SIGMA_Z, (V + chi_s) * eye]]))


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
    m = cm.matrix.copy()
    sl = slice(2 * mode, 2 * mode + 2)
    root = math.sqrt(eta)
    m[sl, :] *= root
    m[:, sl] *= root
    m[sl, sl] += ((1.0 - eta) + eta * eps) * np.eye(2)
    return CovarianceMatrix(m)


def symplectic_spectrum(cm: CovarianceMatrix) -> np.ndarray:
    """Symplectic eigenvalues, one per mode, sorted descending.

    These are the n positive numbers {nu} such that Omega @ gamma has
    eigenvalues {+/- i nu}; they are invariant under symplectic transforms
    and nu >= 1 for every physical state.  Computed for any n from the
    eigenvalues of Omega @ gamma.
    """
    evals = np.linalg.eigvals(symplectic_form(cm.n_modes) @ cm.matrix)
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
