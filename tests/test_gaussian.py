"""Covariance-matrix algebra: constructors, transforms, spectra, entropy."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvqkd_mon import UnphysicalStateError
from cvqkd_mon.gaussian import (
    CovarianceMatrix,
    apply_beamsplitter,
    apply_fiber_channel,
    condition_on_homodyne,
    epr_state,
    g_entropy,
    mutual_info_het_hom,
    noisy_source_state,
    symplectic_spectrum,
    tensor,
    vacuum_state,
    von_neumann_entropy,
)

from oracles import (
    condition_via_meter_limit,
    het_hom_mi_oracle,
    two_mode_entropy_closed_form,
)

SQRT_1599 = 39.987498046   # sqrt(40^2 - 1), EPR correlation at V = 40


def random_std_form_state(rng):
    """Random physical two-mode state: noisy source through a lossy fiber."""
    V = rng.uniform(1.0, 80.0)
    chi_s = rng.uniform(0.0, 2.0)
    eta = rng.uniform(0.05, 1.0)
    eps = rng.uniform(0.0, 0.5)
    return apply_fiber_channel(noisy_source_state(V, chi_s), 1, eta, eps)


# ---------------------------------------------------------------- matrices

class TestCovarianceMatrix:
    def test_rejects_odd_dimension(self):
        with pytest.raises(ValueError):
            CovarianceMatrix(np.eye(3))

    def test_rejects_asymmetric(self):
        m = np.eye(4)
        m[0, 2] = 1e-3
        with pytest.raises(ValueError, match="symmetric"):
            CovarianceMatrix(m)
        # the gate sits at 1e-12 of the largest entry, here 40
        m = 40.0 * np.eye(4)
        m[0, 2] = 40.0 * 1e-11
        with pytest.raises(ValueError, match="symmetric"):
            CovarianceMatrix(m)
        m[0, 2] = 40.0 * 1e-13
        CovarianceMatrix(m)  # roundoff-sized, accepted

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_entry(self, bad):
        with pytest.raises(ValueError, match="finite"):
            CovarianceMatrix([[bad, 0.0], [0.0, 1.0]])

    def test_symmetrizes_roundoff(self):
        m = np.eye(2)
        m[0, 1] = 1e-15
        cm = CovarianceMatrix(m)
        assert cm.matrix[0, 1] == cm.matrix[1, 0]

    def test_matrix_is_readonly(self):
        cm = vacuum_state()
        with pytest.raises(ValueError):
            cm.matrix[0, 0] = 2.0

    def test_blocks_and_reduction(self):
        # mode k owns rows and columns 2k, 2k+1; a marginal is the diagonal block
        cm = noisy_source_state(3.0, 0.5)
        assert np.allclose(cm.matrix[:2, :2], 3.0 * np.eye(2))
        assert np.allclose(cm.matrix[2:, 2:], 3.5 * np.eye(2))
        assert np.allclose(cm.matrix[:2, 2:], math.sqrt(8.0) * np.diag([1.0, -1.0]))
        sub = CovarianceMatrix(cm.matrix[2:, 2:])
        assert sub.n_modes == 1
        assert np.allclose(sub.matrix, 3.5 * np.eye(2))

    def test_mode_index_validation(self):
        for mode in (-1, 1):
            with pytest.raises(ValueError, match="out of range"):
                apply_fiber_channel(vacuum_state(), mode, 0.5, 0.0)


# ------------------------------------------------------------ constructors

class TestConstructors:
    def test_epr_vacuum_limit(self):
        assert np.array_equal(epr_state(1.0).matrix, np.eye(4))

    def test_epr_reference_entries(self):
        cm = epr_state(40.0)
        assert np.allclose(cm.matrix[:2, :2], 40.0 * np.eye(2))
        assert np.allclose(cm.matrix[2:, 2:], 40.0 * np.eye(2))
        assert math.isclose(cm.matrix[0, 2], SQRT_1599, rel_tol=1e-9)
        assert math.isclose(cm.matrix[1, 3], -SQRT_1599, rel_tol=1e-9)

    def test_epr_is_pure(self):
        nus = symplectic_spectrum(epr_state(3.0))
        assert np.allclose(nus, [1.0, 1.0], atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=1.0, max_value=1e3))
    def test_epr_pure_across_range(self, V):
        assert np.allclose(symplectic_spectrum(epr_state(V)), 1.0, atol=1e-9)

    def test_epr_rejects_unphysical_variance(self):
        with pytest.raises(ValueError):
            epr_state(0.99)

    def test_noisy_source_zero_noise_is_epr(self):
        assert np.array_equal(noisy_source_state(40.0, 0.0).matrix,
                              epr_state(40.0).matrix)

    def test_noisy_source_reference_entries(self):
        cm = noisy_source_state(40.0, 0.1)
        assert np.allclose(cm.matrix[2:, 2:], 40.1 * np.eye(2))
        assert math.isclose(cm.matrix[0, 2], SQRT_1599, rel_tol=1e-9)

    def test_noisy_source_is_mixed_but_physical(self):
        nus = symplectic_spectrum(noisy_source_state(40.0, 0.1))
        # frozen from the closed-form oracle
        assert np.allclose(nus, [2.286626924635, 2.186626924634], atol=1e-9)
        assert nus.min() >= 1.0 - 1e-9
        assert nus.max() > 1.0 + 1e-3

    def test_noisy_source_rejects_negative_noise(self):
        with pytest.raises(ValueError):
            noisy_source_state(40.0, -0.01)

    def test_noisy_source_rejects_infinite_variance(self):
        with pytest.raises(ValueError, match="EPR variance must be finite"):
            noisy_source_state(math.inf, 0.1)

    def test_noisy_source_rejects_nan_noise(self):
        with pytest.raises(ValueError, match="source-noise variance must be finite"):
            noisy_source_state(2.0, math.nan)

    def test_tensor_block_structure(self):
        prod = tensor(epr_state(2.0), vacuum_state())
        assert prod.n_modes == 3
        assert np.allclose(prod.matrix[4:, 4:], np.eye(2))
        assert np.allclose(prod.matrix[:4, 4:], 0.0)


# ------------------------------------------------------------- beamsplitter

class TestBeamsplitter:
    def test_transparent_is_identity(self):
        cm = noisy_source_state(10.0, 0.3)
        st3 = tensor(cm, vacuum_state())
        out = apply_beamsplitter(st3, 1, 2, 1.0)
        assert np.allclose(out.matrix, st3.matrix, atol=1e-12)

    def test_full_reflection_swaps_modes(self):
        thermal = CovarianceMatrix(3.0 * np.eye(2))
        st2 = tensor(vacuum_state(), thermal)
        out = apply_beamsplitter(st2, 0, 1, 0.0)
        assert np.allclose(out.matrix[:2, :2], 3.0 * np.eye(2))
        assert np.allclose(out.matrix[2:, 2:], np.eye(2))
        assert np.allclose(symplectic_spectrum(out), symplectic_spectrum(st2), atol=1e-12)

    def test_half_tap_output_variance(self):
        # substitute three-mode input: TMSV(V + chi_s) beside a vacuum mode
        V, chi_s = 40.0, 0.1
        st3 = tensor(epr_state(V + chi_s), vacuum_state())
        out = apply_beamsplitter(st3, 1, 2, 0.5)
        assert np.allclose(out.matrix[2:4, 2:4], (V + chi_s + 1.0) / 2.0 * np.eye(2))

    def test_spectrum_invariance_random(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            st3 = tensor(random_std_form_state(rng), vacuum_state())
            i, j = rng.choice(3, size=2, replace=False)
            T = rng.uniform(0.0, 1.0)
            before = symplectic_spectrum(st3)
            after = symplectic_spectrum(apply_beamsplitter(st3, int(i), int(j), T))
            assert np.allclose(before, after, atol=1e-9)

    def test_symplectic_condition(self):
        # S^T Omega S = Omega for the embedded beamsplitter matrix
        n = 3
        T = 0.37
        rt, rr = math.sqrt(T), math.sqrt(1.0 - T)
        s = np.eye(2 * n)
        s[2:4, 2:4] = rt * np.eye(2)
        s[2:4, 4:6] = rr * np.eye(2)
        s[4:6, 2:4] = -rr * np.eye(2)
        s[4:6, 4:6] = rt * np.eye(2)
        omega = np.kron(np.eye(n), np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert np.allclose(s.T @ omega @ s, omega, atol=1e-12)

    @pytest.mark.parametrize("T", [-0.1, 1.1])
    def test_rejects_bad_transmittance(self, T):
        st2 = tensor(vacuum_state(), vacuum_state())
        with pytest.raises(ValueError):
            apply_beamsplitter(st2, 0, 1, T)

    def test_rejects_equal_modes(self):
        with pytest.raises(ValueError):
            apply_beamsplitter(tensor(vacuum_state(), vacuum_state()), 1, 1, 0.5)


# ------------------------------------------------------------ fiber channel

class TestFiberChannel:
    def test_identity_channel(self):
        cm = noisy_source_state(10.0, 0.3)
        out = apply_fiber_channel(cm, 1, 1.0, 0.0)
        assert np.allclose(out.matrix, cm.matrix, atol=1e-12)

    def test_reproduces_transmitted_state_blocks(self):
        V, chi_s, eta, eps = 40.0, 0.1, 0.63, 0.1
        chi = (1.0 - eta) / eta + eps
        out = apply_fiber_channel(noisy_source_state(V, chi_s), 1, eta, eps)
        assert np.allclose(out.matrix[:2, :2], V * np.eye(2))
        assert np.allclose(out.matrix[2:, 2:], eta * (V + chi_s + chi) * np.eye(2))
        assert math.isclose(out.matrix[0, 2], math.sqrt(eta * (V * V - 1.0)), rel_tol=1e-12)

    @pytest.mark.parametrize("eta", [0.1, 0.5, 1.0])
    def test_vacuum_maps_to_vacuum(self, eta):
        out = apply_fiber_channel(vacuum_state(), 0, eta, 0.0)
        assert np.allclose(out.matrix, np.eye(2), atol=1e-12)

    def test_rejects_bad_parameters(self):
        cm = vacuum_state()
        with pytest.raises(ValueError):
            apply_fiber_channel(cm, 0, 0.0, 0.0)
        with pytest.raises(ValueError):
            apply_fiber_channel(cm, 0, 1.2, 0.0)
        with pytest.raises(ValueError):
            apply_fiber_channel(cm, 0, 0.5, -0.1)


# ---------------------------------------------------------------- spectrum

class TestSymplecticSpectrum:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_vacuum_spectrum(self, n):
        assert np.allclose(symplectic_spectrum(CovarianceMatrix(np.eye(2 * n))), 1.0, atol=1e-12)

    def test_single_mode_thermal(self):
        cm = CovarianceMatrix(3.0 * np.eye(2))
        assert np.allclose(symplectic_spectrum(cm), [3.0], atol=1e-12)

    def test_descending_order(self):
        st3 = tensor(noisy_source_state(40.0, 0.1), CovarianceMatrix(7.0 * np.eye(2)))
        nus = symplectic_spectrum(st3)
        assert list(nus) == sorted(nus, reverse=True)

    def test_pre_measurement_states_stay_above_shot_noise(self):
        # constructors and channel/tap transforms never squeeze a diagonal
        # below the vacuum variance (conditioning intentionally can)
        rng = np.random.default_rng(13)
        for _ in range(50):
            st = tensor(random_std_form_state(rng), vacuum_state())
            st = apply_beamsplitter(st, 1, 2, rng.uniform(0.0, 1.0))
            assert st.matrix.diagonal().min() >= 1.0 - 1e-9
            assert symplectic_spectrum(st).min() >= 1.0 - 1e-9

    def test_unstable_decomposition_raises(self):
        # diag(1, -1) is symmetric but Omega@gamma has real eigenvalues
        from cvqkd_mon import NumericalInstabilityError
        cm = CovarianceMatrix(np.diag([1.0, -1.0]))
        with pytest.raises(NumericalInstabilityError):
            symplectic_spectrum(cm)


# ----------------------------------------------------------------- entropy

class TestEntropy:
    def test_g_reference_points(self):
        assert g_entropy(0.0) == 0.0
        assert math.isclose(g_entropy(1.0), 2.0, rel_tol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=1e-9, max_value=1e6))
    def test_g_positive_and_increasing(self, x):
        assert g_entropy(x) > 0.0
        assert g_entropy(x * 1.01 + 1e-9) > g_entropy(x)

    def test_single_mode_thermal_value(self):
        cm = CovarianceMatrix(3.0 * np.eye(2))
        assert math.isclose(von_neumann_entropy(cm), 2.0, rel_tol=1e-12)

    def test_lossy_channel_entropy_matches_closed_form(self):
        out = apply_fiber_channel(epr_state(40.0), 1, 0.5, 0.1)
        got = von_neumann_entropy(out)
        # frozen from the scalar closed-form oracle
        assert math.isclose(got, 5.082120340726, rel_tol=1e-9)
        a, b, c = out.matrix[0, 0], out.matrix[2, 2], out.matrix[0, 2]
        assert math.isclose(got, two_mode_entropy_closed_form(a, b, c), rel_tol=1e-11)

    def test_entropy_zero_without_noise_positive_with(self):
        clean = apply_fiber_channel(epr_state(40.0), 1, 1.0, 0.0)
        assert von_neumann_entropy(clean) <= 1e-9
        for eps in [1e-3, 0.05, 0.2]:
            noisy = apply_fiber_channel(epr_state(40.0), 1, 1.0, eps)
            assert von_neumann_entropy(noisy) > 0.0

    def test_rejects_unphysical_state(self):
        cm = CovarianceMatrix(0.5 * np.eye(2))
        with pytest.raises(UnphysicalStateError):
            von_neumann_entropy(cm)

    def test_clamps_roundoff_below_purity(self):
        cm = CovarianceMatrix((1.0 - 1e-7) * np.eye(2))
        assert von_neumann_entropy(cm) == 0.0


# ------------------------------------------------------------- conditioning

class TestHomodyneConditioning:
    @pytest.mark.parametrize("V", [1.5, 3.0, 40.0])
    def test_epr_conditional(self, V):
        out = condition_on_homodyne(epr_state(V), 1)
        assert np.allclose(out.matrix, np.diag([1.0 / V, V]), atol=1e-12)

    def test_product_state_spectator_untouched(self):
        st2 = tensor(CovarianceMatrix(5.0 * np.eye(2)), CovarianceMatrix(2.0 * np.eye(2)))
        out = condition_on_homodyne(st2, 1)
        assert np.allclose(out.matrix, 5.0 * np.eye(2), atol=1e-12)

    def test_three_mode_matches_meter_limit_oracle(self):
        st3 = tensor(epr_state(40.1), vacuum_state())
        st3 = apply_beamsplitter(st3, 1, 2, 0.5)
        st3 = apply_fiber_channel(st3, 1, 0.63, 0.1)
        got = condition_on_homodyne(st3, 1)
        oracle = condition_via_meter_limit(st3.matrix, 1, squeeze=1e-10)
        assert got.n_modes == 2
        assert np.abs(got.matrix - oracle).max() <= 1e-6
        assert symplectic_spectrum(got).min() >= 1.0 - 1e-9

    def test_dimension_drops_by_one_mode_and_stays_physical(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            st3 = tensor(random_std_form_state(rng), vacuum_state())
            st3 = apply_beamsplitter(st3, 1, 2, rng.uniform(0.05, 0.95))
            mode = int(rng.integers(0, 3))
            out = condition_on_homodyne(st3, mode)
            assert out.n_modes == 2
            assert symplectic_spectrum(out).min() >= 1.0 - 1e-9

    def test_rejects_single_mode(self):
        with pytest.raises(ValueError):
            condition_on_homodyne(vacuum_state(), 0)

    def test_rejects_degenerate_x_variance(self):
        cm = CovarianceMatrix(np.zeros((4, 4)))
        with pytest.raises(ValueError, match="x-variance"):
            condition_on_homodyne(cm, 1)


# -------------------------------------------------------- mutual information

class TestMutualInformation:
    def test_uncorrelated_is_zero(self):
        assert mutual_info_het_hom(3.0, 5.0, 0.0) == 0.0

    def test_reference_point(self):
        got = mutual_info_het_hom(40.0, 40.2, math.sqrt(1599.0))
        # frozen from the bivariate-Gaussian quadrature oracle
        assert math.isclose(got, 2.533044595229, rel_tol=1e-9)

    def test_matches_quadrature_oracle(self):
        for a, b, c in [(40.0, 40.2, math.sqrt(1599.0)), (5.0, 3.0, 2.0), (2.0, 2.0, 1.0)]:
            got = mutual_info_het_hom(a, b, c)
            assert math.isclose(got, het_hom_mi_oracle(a, b, c), abs_tol=1e-6)

    @pytest.mark.parametrize("V", [2.0, 10.0, 40.0])
    def test_lossless_noiseless_value(self, V):
        got = mutual_info_het_hom(V, V, math.sqrt(V * V - 1.0))
        assert math.isclose(got, 0.5 * math.log2(V), rel_tol=1e-12)

    def test_rejects_nonpositive_conditional_variance(self):
        with pytest.raises(ValueError, match="conditional variance"):
            mutual_info_het_hom(1.0, 1.0, math.sqrt(2.0))

    def test_rejects_sub_vacuum_inputs(self):
        with pytest.raises(ValueError):
            mutual_info_het_hom(0.5, 2.0, 0.1)
