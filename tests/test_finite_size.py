"""Finite-sample noise-variance estimation and its Monte Carlo diagnostics."""

import math

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from cvqkd_mon import (
    CoverageReport,
    MonitorBatch,
    confidence_bound,
    coverage_diagnostic,
    mle_sigma2,
    simulate_monitor,
    simulated_sigma2,
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

    @pytest.mark.parametrize("sigma_hat2", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_estimate(self, sigma_hat2):
        with pytest.raises(ValueError, match="must be finite"):
            confidence_bound(sigma_hat2, 1000, 1e-10)


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


class TestSimulatedSigma2:
    @pytest.mark.parametrize("V, chi_s, m, seed", [
        (40.0, 0.1, 1000, 7), (3.0, 0.4, 1001, 77), (1.0, 0.0, 2, 5),
        (2.5, 1.7, 4097, 12345), (1e6, 3.0, 131073, 1),
    ])
    def test_equals_raw_batch_pipeline(self, V, chi_s, m, seed):
        # the single in-place buffer repeats the raw-batch arithmetic exactly
        assert simulated_sigma2(V, chi_s, m, seed) \
            == mle_sigma2(simulate_monitor(V, chi_s, m, seed))

    @pytest.mark.parametrize("bad", [{"V": 0.5}, {"chi_s": -0.1}, {"m": 0}, {"m": 1}])
    def test_validation(self, bad):
        args = dict(V=2.0, chi_s=0.05, m=64, seed=5) | bad
        with pytest.raises(ValueError):
            simulated_sigma2(**args)


@pytest.mark.parametrize("bad", [
    {"V": math.nan}, {"V": math.inf}, {"chi_s": math.nan}, {"chi_s": math.inf},
], ids=["V=nan", "V=inf", "chi_s=nan", "chi_s=inf"])
@pytest.mark.parametrize("entry", [simulate_monitor, simulated_sigma2, coverage_diagnostic],
                         ids=lambda fn: fn.__name__)
def test_source_rejects_non_finite(entry, bad):
    args = dict(V=2.0, chi_s=0.05, m=64, seed=5)
    if entry is coverage_diagnostic:
        args |= dict(eps_sm=0.01, trials=100)
    with pytest.raises(ValueError, match="variance must be"):
        entry(**(args | bad))


def looped_coverage(V, chi_s, m, eps_sm, trials, seed) -> CoverageReport:
    """Reference: the documented chi-squared draw, one confidence_bound per trial."""
    draws = np.random.Generator(np.random.PCG64(seed).jumped()).chisquare(m, trials)
    hats, failures = [], 0
    for x in draws:
        est = confidence_bound(float((V + chi_s) * x / m - V), m, eps_sm)
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
    @pytest.mark.parametrize("trials", [100, 101])
    def test_equals_per_trial_confidence_bound_loop(self, trials):
        # the one-expression failure count bounds every trial exactly as
        # confidence_bound does
        args = dict(V=3.0, chi_s=0.4, m=1001, eps_sm=0.2, trials=trials, seed=77)
        report = coverage_diagnostic(**args)
        assert report == looped_coverage(**args)
        assert report.failure_rate > 0.0

    @pytest.mark.parametrize("V, chi_s, m, eps_sm, rate", [
        (3.0, 0.4, 1001, 0.2, 0.4308),
        (40.0, 0.1, 10 ** 6, 1e-10, None),
    ])
    def test_failure_rate_matches_exact_chi2_law(self, V, chi_s, m, eps_sm, rate):
        # a trial fails when sigma_hat2 * (1 - k) > chi_s, k = z sqrt(2)/sqrt(m),
        # and m (sigma_hat2 + V)/(V + chi_s) is chi-squared with m degrees of freedom
        trials = 10 ** 5
        z = math.sqrt(2.0) * float(scipy.special.erfcinv(eps_sm))
        k = z * math.sqrt(2.0) / math.sqrt(m)
        exact = float(scipy.stats.chi2.sf(m * (chi_s / (1.0 - k) + V) / (V + chi_s), m))
        if rate is not None:
            assert math.isclose(exact, rate, abs_tol=5e-5)
        report = coverage_diagnostic(V, chi_s, m, eps_sm, trials, seed=2026)
        assert abs(report.failure_rate - exact) <= 5.0 * math.sqrt(exact * (1.0 - exact) / trials)

    @pytest.mark.parametrize("bad", [
        {"V": 0.5}, {"chi_s": -0.1}, {"m": 0}, {"m": 1}, {"eps_sm": 0.0}, {"eps_sm": 0.5},
    ])
    def test_rejects_bad_arguments_before_any_trial(self, monkeypatch, bad):
        started = []

        class Recording(np.random.Generator):
            def chisquare(self, *args, **kwargs):
                started.append(args)
                return super().chisquare(*args, **kwargs)

        monkeypatch.setattr(np.random, "Generator", Recording)
        args = dict(V=2.0, chi_s=0.05, m=64, eps_sm=0.01, trials=100, seed=5)
        coverage_diagnostic(**args)
        assert started == [(64, 100)]  # the hook sees the draw of a valid call
        started.clear()
        with pytest.raises(ValueError):
            coverage_diagnostic(**(args | bad))
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
