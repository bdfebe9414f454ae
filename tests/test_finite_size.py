"""Finite-sample noise-variance estimation and its Monte Carlo diagnostics."""

import math

import mpmath
import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from cvqkd_mon import (
    CoverageReport,
    confidence_bound,
    coverage_diagnostic,
    mle_sigma2,
    simulated_sigma2,
    z_from_epsilon,
)


def monitor_outcomes(V, chi_s, m, seed):
    """The documented draw: PCG64(seed).standard_normal(m) * sqrt(V + chi_s)."""
    return np.random.Generator(np.random.PCG64(seed)).standard_normal(m) * math.sqrt(V + chi_s)


class TestMleSigma2Input:
    """The batch mle_sigma2 takes: a 1-D array of outcomes and the modulation variance V."""

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            mle_sigma2(np.array([]), V=1.0)

    def test_rejects_sub_vacuum_modulation(self):
        with pytest.raises(ValueError):
            mle_sigma2(np.array([1.0, 2.0]), V=0.5)

    def test_samples_are_readonly(self):
        # the caller's outcomes are read, never written
        samples = np.array([2.0, -2.0])
        mle_sigma2(samples, V=1.0)
        assert samples.tolist() == [2.0, -2.0]


class TestMleSigma2:
    def test_degenerate_zero_batch(self):
        assert mle_sigma2(np.zeros(8), V=1.0) == -1.0
        assert confidence_bound(mle_sigma2(np.zeros(8), V=1.0), 8).negative_estimate

    def test_two_sample_arithmetic(self):
        assert mle_sigma2(np.array([2.0, -2.0]), V=1.0) == 3.0

    def test_single_sample_rejected(self):
        with pytest.raises(ValueError):
            mle_sigma2(np.array([1.0]), V=1.0)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=0.1, max_value=10.0))
    def test_scale_consistency(self, s):
        # scaling every outcome by s scales (estimate + V) by s^2
        rng = np.random.default_rng(3)
        y = rng.standard_normal(64)
        base = mle_sigma2(y, V=1.0) + 1.0
        scaled = mle_sigma2(s * y, V=1.0) + 1.0
        assert math.isclose(scaled, s * s * base, rel_tol=1e-9)

    def test_large_sample_accuracy(self):
        hat = mle_sigma2(monitor_outcomes(40.0, 0.1, 10 ** 6, seed=314159), V=40.0)
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

    @pytest.mark.parametrize("eps", [1e-323, 1e-300, 1e-200, 1e-100, 1e-50, 1e-20, 1e-10,
                                     1e-5, 1e-3, 0.01, 0.1, 0.2, 0.3, 0.4, 0.45, 0.49])
    def test_matches_mpmath_root_to_float_precision(self, eps):
        # a 50-digit root of log erfc(z/sqrt(2)) = log eps, started from the
        # leading term of the tail asymptotics rather than from the package
        with mpmath.workdps(50):
            target = mpmath.log(mpmath.mpf(eps))
            root = mpmath.findroot(lambda z: mpmath.log(mpmath.erfc(z / mpmath.sqrt(2))) - target,
                                   mpmath.sqrt(-2 * target))
            assert math.isclose(z_from_epsilon(eps), float(root), rel_tol=1e-14)

    @pytest.mark.parametrize("eps", [0.0, 0.5, 0.9, -0.1, 5e-324])
    def test_domain_errors(self, eps):
        with pytest.raises(ValueError, match="failure probability"):
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


class TestSimulatedDraw:
    """The simulated monitor outcomes, as simulated_sigma2 estimates them."""

    def test_deterministic_for_fixed_seed(self):
        a = simulated_sigma2(40.0, 0.1, 512, seed=99)
        b = simulated_sigma2(40.0, 0.1, 512, seed=99)
        assert a == b
        assert confidence_bound(a, 512) == confidence_bound(b, 512)

    def test_different_seeds_differ(self):
        assert simulated_sigma2(40.0, 0.1, 512, seed=99) \
            != simulated_sigma2(40.0, 0.1, 512, seed=100)

    def test_vacuum_statistics(self):
        hat = simulated_sigma2(1.0, 0.0, 10 ** 5, seed=7)
        assert abs(hat) < 3.0 * math.sqrt(2.0 / 10 ** 5)

    def test_validation(self, monkeypatch):
        # invalid arguments raise before any outcome is drawn
        drawn = []

        class Recording(np.random.Generator):
            def standard_normal(self, *args, **kwargs):
                drawn.append(args)
                return super().standard_normal(*args, **kwargs)

        monkeypatch.setattr(np.random, "Generator", Recording)
        simulated_sigma2(2.0, 0.1, 10, seed=1)
        assert drawn == [(10,)]  # the hook sees the draw of a valid call
        drawn.clear()
        for V, chi_s, m in [(0.5, 0.1, 10), (2.0, -0.1, 10), (2.0, 0.1, 1), (2.0, 0.1, 0)]:
            with pytest.raises(ValueError):
                simulated_sigma2(V, chi_s, m, seed=1)
        assert drawn == []


class TestSimulatedSigma2:
    @pytest.mark.parametrize("V, chi_s, m, seed", [
        (40.0, 0.1, 1000, 7), (3.0, 0.4, 1001, 77), (1.0, 0.0, 2, 5),
        (2.5, 1.7, 4097, 12345), (1e6, 3.0, 131073, 1),
    ])
    def test_equals_raw_batch_pipeline(self, V, chi_s, m, seed):
        # the single in-place buffer repeats the arithmetic on the raw draw exactly
        y = monitor_outcomes(V, chi_s, m, seed)
        assert simulated_sigma2(V, chi_s, m, seed) == float(np.mean(y ** 2) - V)

    @pytest.mark.parametrize("bad", [{"V": 0.5}, {"chi_s": -0.1}, {"m": 0}, {"m": 1}])
    def test_validation(self, bad):
        args = dict(V=2.0, chi_s=0.05, m=64, seed=5) | bad
        with pytest.raises(ValueError):
            simulated_sigma2(**args)


@pytest.mark.parametrize("bad", [
    {"V": math.nan}, {"V": math.inf}, {"chi_s": math.nan}, {"chi_s": math.inf},
], ids=["V=nan", "V=inf", "chi_s=nan", "chi_s=inf"])
@pytest.mark.parametrize("entry", [mle_sigma2, simulated_sigma2, coverage_diagnostic],
                         ids=lambda fn: fn.__name__)
def test_source_rejects_non_finite(entry, bad):
    args = dict(V=2.0, chi_s=0.05, m=64, seed=5) | bad
    if entry is mle_sigma2:
        # that source's outcomes: a non-finite chi_s makes the samples non-finite
        args = dict(samples=monitor_outcomes(**args), V=args["V"])
    elif entry is coverage_diagnostic:
        args |= dict(eps_sm=0.01, trials=100)
    with pytest.raises(ValueError, match="variance must be"):
        entry(**args)


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
