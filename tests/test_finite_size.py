"""Finite-sample noise-variance estimation and its Monte Carlo diagnostics."""

import math
import sys

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

import cvqkd_mon.finite_size as finite_size
from cvqkd_mon import (
    CoverageReport,
    MonitorBatch,
    confidence_bound,
    coverage_diagnostic,
    mle_sigma2,
    simulate_monitor,
    z_from_epsilon,
)


class TestMonitorBatch:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            MonitorBatch(samples=np.array([]), V=1.0)

    def test_rejects_sub_vacuum_modulation(self):
        with pytest.raises(ValueError):
            MonitorBatch(samples=np.array([1.0, 2.0]), V=0.5)

    def test_samples_are_readonly(self):
        batch = MonitorBatch(samples=np.array([1.0, 2.0]), V=1.0)
        with pytest.raises(ValueError):
            batch.samples[0] = 0.0


class TestMleSigma2:
    def test_degenerate_zero_batch(self):
        batch = MonitorBatch(samples=np.zeros(8), V=1.0)
        assert mle_sigma2(batch) == -1.0
        assert confidence_bound(mle_sigma2(batch), batch.m).negative_estimate

    def test_two_sample_arithmetic(self):
        batch = MonitorBatch(samples=np.array([2.0, -2.0]), V=1.0)
        assert mle_sigma2(batch) == 3.0

    def test_single_sample_rejected(self):
        batch = MonitorBatch(samples=np.array([1.0]), V=1.0)
        with pytest.raises(ValueError):
            mle_sigma2(batch)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=0.1, max_value=10.0))
    def test_scale_consistency(self, s):
        # scaling every outcome by s scales (estimate + V) by s^2
        rng = np.random.default_rng(3)
        y = rng.standard_normal(64)
        base = mle_sigma2(MonitorBatch(samples=y, V=1.0)) + 1.0
        scaled = mle_sigma2(MonitorBatch(samples=s * y, V=1.0)) + 1.0
        assert math.isclose(scaled, s * s * base, rel_tol=1e-9)

    def test_large_sample_accuracy(self):
        batch = simulate_monitor(40.0, 0.1, 10 ** 6, seed=314159)
        hat = mle_sigma2(batch)
        three_se = 3.0 * math.sqrt(2.0) * 40.1 / math.sqrt(10 ** 6)
        assert abs(hat - 0.1) < three_se


class TestZFromEpsilon:
    def test_reference_quantile(self):
        z = z_from_epsilon(1e-10)
        # frozen from the scipy inverse-erfc oracle
        assert math.isclose(z, 6.466951087241, abs_tol=1e-9)

    def test_matches_inverse_erfc_oracle(self):
        for eps in [1e-12, 1e-10, 1e-6, 1e-3, 0.1, 0.4]:
            oracle = math.sqrt(2.0) * float(scipy.special.erfcinv(eps))
            assert math.isclose(z_from_epsilon(eps), oracle, abs_tol=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=-11.9, max_value=-0.4))
    def test_round_trip(self, log10_eps):
        eps = 10.0 ** log10_eps
        z = z_from_epsilon(eps)
        assert z > 0.0
        assert math.isclose(math.erfc(z / math.sqrt(2.0)), eps, rel_tol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=-11.0, max_value=-1.0))
    def test_strictly_decreasing(self, log10_eps):
        eps = 10.0 ** log10_eps
        assert z_from_epsilon(eps) > z_from_epsilon(eps * 2.0)

    @pytest.mark.parametrize("eps", [0.0, 0.5, 0.9, -0.1])
    def test_domain_errors(self, eps):
        with pytest.raises(ValueError):
            z_from_epsilon(eps)


class TestConfidenceBound:
    def test_zero_estimate_has_zero_penalty(self):
        est = confidence_bound(0.0, 1000, 1e-10)
        assert est.delta_chi_s == 0.0
        assert est.sigma_min2 == 0.0

    def test_reference_penalty(self):
        est = confidence_bound(0.1, 10 ** 8, 1e-10)
        # frozen: z * 0.1 * sqrt(2) / 1e4 with z = 6.466951087241
        assert math.isclose(est.delta_chi_s, 9.1456499348e-05, rel_tol=1e-9)
        assert math.isclose(est.z, 6.466951087241, abs_tol=1e-9)

    def test_quadrupling_m_halves_penalty(self):
        base = confidence_bound(0.1, 10 ** 6, 1e-10)
        finer = confidence_bound(0.1, 4 * 10 ** 6, 1e-10)
        assert math.isclose(base.delta_chi_s, 2.0 * finer.delta_chi_s, rel_tol=1e-12)

    def test_bound_identity_is_exact(self):
        est = confidence_bound(0.07, 12345, 1e-8)
        assert est.sigma_min2 == est.sigma_hat2 - est.delta_chi_s

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=1e-4, max_value=10.0),
           st.integers(min_value=2, max_value=10 ** 9),
           st.floats(min_value=-11.0, max_value=-1.0))
    def test_penalty_scaling_invariant(self, sigma_hat2, m, log10_eps):
        est = confidence_bound(sigma_hat2, m, 10.0 ** log10_eps)
        ratio = est.delta_chi_s * math.sqrt(m) / (est.z * est.sigma_hat2)
        assert math.isclose(ratio, math.sqrt(2.0), rel_tol=1e-12)

    def test_rejects_tiny_sample(self):
        with pytest.raises(ValueError):
            confidence_bound(0.1, 1, 1e-10)


class TestSimulateMonitor:
    def test_deterministic_for_fixed_seed(self):
        a = simulate_monitor(40.0, 0.1, 512, seed=99)
        b = simulate_monitor(40.0, 0.1, 512, seed=99)
        assert np.array_equal(a.samples, b.samples)
        assert confidence_bound(mle_sigma2(a), a.m) == confidence_bound(mle_sigma2(b), b.m)

    def test_different_seeds_differ(self):
        a = simulate_monitor(40.0, 0.1, 512, seed=99)
        b = simulate_monitor(40.0, 0.1, 512, seed=100)
        assert not np.array_equal(a.samples, b.samples)

    def test_vacuum_statistics(self):
        batch = simulate_monitor(1.0, 0.0, 10 ** 5, seed=7)
        sample_var = float(np.mean(batch.samples ** 2))
        assert abs(sample_var - 1.0) < 3.0 * math.sqrt(2.0 / 10 ** 5)

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_monitor(0.5, 0.1, 10, seed=1)
        with pytest.raises(ValueError):
            simulate_monitor(2.0, -0.1, 10, seed=1)
        with pytest.raises(ValueError):
            simulate_monitor(2.0, 0.1, 0, seed=1)


def serial_coverage(V, chi_s, m, eps_sm, trials, seed) -> CoverageReport:
    """Reference: one simulate -> estimate -> bound pipeline per trial."""
    hats, failures = [], 0
    for k in range(trials):
        est = confidence_bound(mle_sigma2(simulate_monitor(V, chi_s, m, seed + k)), m, eps_sm)
        hats.append(est.sigma_hat2)
        failures += est.sigma_min2 > chi_s
    mean_hat = float(np.mean(hats))
    return CoverageReport(
        trials=trials,
        failure_rate=failures / trials,
        mean_sigma_hat2=mean_hat,
        std_sigma_hat2=float(np.std(hats, ddof=1)),
        assumed_dispersion=math.sqrt(2.0) * mean_hat / math.sqrt(m),
        moment_dispersion=math.sqrt(2.0) * (V + chi_s) / math.sqrt(m),
    )


class TestCoverageDiagnostic:
    @pytest.mark.parametrize("cpus", [1, 2, 8])
    @pytest.mark.parametrize("trials", [100, 101])
    def test_equals_serial_pipeline(self, monkeypatch, cpus, trials):
        # the blocked, buffer-reusing trials repeat the serial arithmetic
        # exactly, however the blocks split and the threads interleave
        monkeypatch.setattr(finite_size, "_available_cpus", lambda: cpus)
        args = dict(V=3.0, chi_s=0.4, m=1001, eps_sm=0.2, trials=trials, seed=77)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            report = coverage_diagnostic(**args)
        finally:
            sys.setswitchinterval(interval)
        assert report == serial_coverage(**args)
        assert report.failure_rate > 0.0

    @pytest.mark.parametrize("bad", [
        {"V": 0.5}, {"chi_s": -0.1}, {"m": 0}, {"m": 1}, {"eps_sm": 0.0}, {"eps_sm": 0.5},
    ])
    def test_rejects_bad_arguments_before_any_trial(self, monkeypatch, bad):
        started = []
        monkeypatch.setattr(finite_size, "_estimate_block",
                            lambda *args: started.append(args))
        args = dict(V=2.0, chi_s=0.05, m=64, eps_sm=0.01, trials=100, seed=5) | bad
        with pytest.raises(ValueError):
            coverage_diagnostic(**args)
        assert started == []

    def test_dispersion_matches_moment_calculation(self):
        # strongly noisy source with small modulation: the empirical spread
        # of the estimate follows sqrt(2)(V + chi_s)/sqrt(m), not the
        # bound's assumed sqrt(2)*sigma_hat2/sqrt(m)
        report = coverage_diagnostic(V=1.0, chi_s=0.1, m=400, eps_sm=0.01,
                                     trials=2000, seed=11)
        assert abs(report.std_sigma_hat2 - report.moment_dispersion) \
            < 0.1 * report.moment_dispersion
        assert report.std_sigma_hat2 > 3.0 * report.assumed_dispersion

    def test_report_totality(self):
        report = coverage_diagnostic(V=2.0, chi_s=0.05, m=50, eps_sm=0.05,
                                     trials=100, seed=4)
        assert report.trials == 100
        assert 0.0 <= report.failure_rate <= 1.0
        assert report.std_sigma_hat2 > 0.0
        assert report.moment_dispersion > 0.0

    def test_estimator_unbiased(self):
        report = coverage_diagnostic(V=2.0, chi_s=0.05, m=200, eps_sm=0.01,
                                     trials=10 ** 4, seed=21)
        se_of_mean = math.sqrt(2.0) * 2.05 / math.sqrt(200) / math.sqrt(10 ** 4)
        assert abs(report.mean_sigma_hat2 - 0.05) < 4.0 * se_of_mean

    def test_deterministic_aggregate(self):
        a = coverage_diagnostic(V=2.0, chi_s=0.05, m=64, eps_sm=0.01,
                                trials=150, seed=5)
        b = coverage_diagnostic(V=2.0, chi_s=0.05, m=64, eps_sm=0.01,
                                trials=150, seed=5)
        assert a == b

    def test_rejects_too_few_trials(self):
        with pytest.raises(ValueError):
            coverage_diagnostic(V=2.0, chi_s=0.05, m=64, eps_sm=0.01,
                                trials=50, seed=5)
