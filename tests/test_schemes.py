"""Scheme key rates, secure-distance search and tap optimization."""

import inspect
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvqkd_mon import (
    SCHEME_ACTIVE,
    SCHEME_PASSIVE,
    SCHEME_UNTRUSTED,
    SCHEMES,
    ChannelOpaqueError,
    ChannelParams,
    KeyRateBreakdown,
    ProtocolParams,
    apply_beamsplitter,
    distance_to_eta,
    evaluate_keyrate,
    keyrate_at_distance,
    noisy_source_state,
    optimize_T,
    secure_distance,
    tensor,
    vacuum_state,
)

from oracles import (
    active_keyrate_scalar,
    passive_keyrate_scalar,
    untrusted_keyrate_scalar,
)


def params(d_km=10.0, eps=0.1, alpha=0.2, **kw) -> ProtocolParams:
    return ProtocolParams(channel=ChannelParams(distance_km=d_km, epsilon=eps,
                                                alpha_db_per_km=alpha), **kw)


# ------------------------------------------------------------- channel maps

class TestDistanceToEta:
    def test_zero_distance(self):
        assert distance_to_eta(0.0) == 1.0

    def test_fifty_km_is_ten_percent(self):
        assert math.isclose(distance_to_eta(50.0, 0.2), 0.1, rel_tol=1e-12)

    def test_fifteen_km(self):
        assert math.isclose(distance_to_eta(15.0, 0.2), 10.0 ** -0.3, rel_tol=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            distance_to_eta(-1.0)
        with pytest.raises(ValueError):
            distance_to_eta(10.0, 0.0)


class TestChannelParams:
    def test_derived_quantities(self):
        ch = ChannelParams(distance_km=50.0, epsilon=0.1)
        assert math.isclose(ch.eta, 0.1, rel_tol=1e-12)
        assert math.isclose(ch.chi, 9.0 + 0.1, rel_tol=1e-12)
        assert ch.chi >= ch.epsilon

    def test_zero_distance_is_transparent(self):
        assert ChannelParams(distance_km=0.0, epsilon=0.0).eta == 1.0

    def test_from_transmittance_roundtrip(self):
        ch = ChannelParams.from_transmittance(0.25, epsilon=0.05)
        assert math.isclose(ch.eta, 0.25, rel_tol=1e-12)

    def test_entry_points_share_defaults(self):
        # distance_to_eta, ChannelParams and from_transmittance default to the
        # same attenuation, and the last two to the same excess noise
        ch = ChannelParams(distance_km=15.0)
        assert ch.eta == distance_to_eta(15.0)
        back = ChannelParams.from_transmittance(ch.eta)
        assert (back.epsilon, back.alpha_db_per_km) == (ch.epsilon, ch.alpha_db_per_km)

    @pytest.mark.parametrize("kw, message", [
        ({"distance_km": math.nan}, "distance"), ({"epsilon": math.nan}, "excess noise"),
        ({"epsilon": math.inf}, "excess noise"), ({"alpha_db_per_km": math.nan}, "attenuation"),
        ({"alpha_db_per_km": math.inf}, "attenuation"),
    ], ids=["distance=nan", "epsilon=nan", "epsilon=inf", "alpha=nan", "alpha=inf"])
    def test_rejects_non_finite(self, kw, message):
        with pytest.raises(ValueError, match=message):
            ChannelParams(**({"distance_km": 1.0} | kw))

    def test_infinite_distance_is_opaque(self):
        with pytest.raises(ChannelOpaqueError):
            evaluate_keyrate(SCHEME_PASSIVE, params(d_km=math.inf))

    def test_validation(self):
        with pytest.raises(ValueError):
            ChannelParams(distance_km=-1.0, epsilon=0.1)
        with pytest.raises(ValueError):
            ChannelParams(distance_km=1.0, epsilon=-0.1)
        with pytest.raises(ValueError):
            ChannelParams(distance_km=1.0, epsilon=0.1, alpha_db_per_km=0.0)
        with pytest.raises(ValueError):
            ChannelParams.from_transmittance(0.0)


class TestProtocolParams:
    @pytest.mark.parametrize("kw", [
        {"V": 0.5}, {"chi_s": -0.1}, {"beta": 1.5}, {"beta": -0.1},
        {"r": 1.0}, {"r": -0.2}, {"T": 0.0}, {"T": 1.5},
        {"V": math.nan}, {"V": math.inf}, {"chi_s": math.nan}, {"chi_s": math.inf},
    ])
    def test_rejects_out_of_range(self, kw):
        with pytest.raises(ValueError):
            params(**kw)


class TestKeyRateBreakdown:
    def test_secure_flag_tracks_sign(self):
        assert KeyRateBreakdown(SCHEME_PASSIVE, 1.0, 0.5, 0.3).secure
        assert not KeyRateBreakdown(SCHEME_PASSIVE, 1.0, 1.5, -0.1).secure
        assert not KeyRateBreakdown(SCHEME_PASSIVE, 1.0, 1.0, 0.0).secure

    def test_rejects_unknown_tag(self):
        with pytest.raises(ValueError):
            KeyRateBreakdown("bogus", 1.0, 0.5, 0.3)

    def test_rejects_negative_holevo(self):
        with pytest.raises(ValueError):
            KeyRateBreakdown(SCHEME_PASSIVE, 1.0, -1.0, 0.3)


# ------------------------------------------------------------ scheme values

class TestUntrusted:
    def test_clean_lossless_limit(self):
        p = params(d_km=0.0, eps=0.0, chi_s=0.0, V=40.0, beta=0.8)
        bd = evaluate_keyrate(SCHEME_UNTRUSTED, p)
        assert abs(bd.s_eb) <= 1e-9
        assert math.isclose(bd.key_rate, 0.8 * 0.5 * math.log2(40.0), rel_tol=1e-9)
        assert bd.secure

    def test_matches_scalar_oracle_at_reference_point(self):
        p = params(d_km=10.0)
        bd = evaluate_keyrate(SCHEME_UNTRUSTED, p)
        i_ab, s_eb, key = untrusted_keyrate_scalar(40.0, 0.1, 0.8,
                                                   distance_to_eta(10.0), 0.1)
        assert math.isclose(bd.i_ab, i_ab, rel_tol=1e-12)
        assert math.isclose(bd.s_eb, s_eb, rel_tol=1e-12)
        assert math.isclose(bd.key_rate, key, rel_tol=1e-12, abs_tol=1e-12)
        # frozen oracle values: this reference point is insecure
        assert math.isclose(bd.i_ab, 2.257062611249, rel_tol=1e-9)
        assert math.isclose(bd.s_eb, 2.133313366071, rel_tol=1e-9)
        assert math.isclose(bd.key_rate, -0.327663277072, rel_tol=1e-9)

    def test_scalar_oracle_agreement_across_grid(self):
        for d in [0.0, 1.0, 5.0, 20.0]:
            bd = evaluate_keyrate(SCHEME_UNTRUSTED, params(d_km=d))
            _, _, key = untrusted_keyrate_scalar(40.0, 0.1, 0.8, distance_to_eta(d), 0.1)
            assert math.isclose(bd.key_rate, key, rel_tol=1e-11, abs_tol=1e-12)


class TestActive:
    def test_zero_source_noise_equals_untrusted(self):
        for d in [0.0, 5.0, 15.0]:
            p = params(d_km=d, chi_s=0.0, r=0.0)
            a = evaluate_keyrate(SCHEME_ACTIVE, p)
            u = evaluate_keyrate(SCHEME_UNTRUSTED, p)
            assert math.isclose(a.i_ab, u.i_ab, abs_tol=1e-9)
            assert math.isclose(a.s_eb, u.s_eb, abs_tol=1e-9)
            assert math.isclose(a.key_rate, u.key_rate, abs_tol=1e-9)

    def test_duty_cycle_scaling(self):
        rates = []
        for r in [0.0, 0.3, 0.5, 0.9]:
            bd = evaluate_keyrate(SCHEME_ACTIVE, params(d_km=2.0, r=r))
            rates.append(bd.key_rate / (1.0 - r))
        assert np.allclose(rates, rates[0], atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=0.0, max_value=0.9),
           st.floats(min_value=0.0, max_value=0.9))
    def test_duty_cycle_linearity(self, r1, r2):
        k1 = evaluate_keyrate(SCHEME_ACTIVE, params(d_km=3.0, r=r1)).key_rate
        k2 = evaluate_keyrate(SCHEME_ACTIVE, params(d_km=3.0, r=r2)).key_rate
        assert math.isclose(k1 * (1.0 - r2), k2 * (1.0 - r1), abs_tol=1e-9)

    def test_closed_form_route_agreement_across_grid(self):
        # independent route: S(E:b) of a thermal input of variance V + chi_s
        for chi_s in [0.0, 0.1, 2.0]:
            for r in [0.0, 0.5]:
                for d in [0.0, 1.0, 5.0, 20.0, 50.0]:
                    bd = evaluate_keyrate(SCHEME_ACTIVE, params(d_km=d, chi_s=chi_s, r=r))
                    ref = active_keyrate_scalar(40.0, chi_s, 0.8, r, distance_to_eta(d), 0.1)
                    for got, want in zip((bd.i_ab, bd.s_eb, bd.key_rate), ref):
                        assert math.isclose(got, want, rel_tol=1e-11, abs_tol=1e-12)

    def test_secure_distance_below_thirty(self):
        d = secure_distance(SCHEME_ACTIVE, params())
        assert d is not None
        assert d < 30.0


class TestPassive:
    def test_transparent_tap_reduces_to_active_without_sampling(self):
        for d in [0.0, 5.0, 15.0]:
            p = params(d_km=d, T=1.0)
            pas = evaluate_keyrate(SCHEME_PASSIVE, p)
            act = evaluate_keyrate(SCHEME_ACTIVE, replace(p, r=0.0))
            assert math.isclose(pas.i_ab, act.i_ab, abs_tol=1e-9)
            assert math.isclose(pas.s_eb, act.s_eb, abs_tol=1e-9)
            assert math.isclose(pas.key_rate, act.key_rate, abs_tol=1e-9)

    @pytest.mark.parametrize("T", [0.3, 0.7])
    def test_clean_lossless_limit(self, T):
        p = params(d_km=0.0, eps=0.0, chi_s=0.0, T=T)
        bd = evaluate_keyrate(SCHEME_PASSIVE, p)
        assert abs(bd.s_eb) <= 1e-9
        assert math.isclose(bd.key_rate, p.beta * bd.i_ab, abs_tol=1e-9)
        assert bd.key_rate >= 0.0

    def test_closed_form_route_agreement_across_grid(self):
        # independent two-mode route against the three-mode substitute state:
        # S(E:b) depends only on the thermal input variance T(V+chi_s)+1-T.
        # The 6x6 spectra carry up to 2.3e-12 bit of roundoff on this grid
        # (at chi_s=2, T=0.05, d=1; the closed form is within 1e-15 of a
        # 60-digit evaluation there), hence abs_tol=1e-11.
        for chi_s in [0.0, 0.1, 2.0]:
            for T in [0.05, 0.1, 0.5, 0.9, 1.0]:
                for d in [0.0, 1.0, 5.0, 20.0, 50.0]:
                    bd = evaluate_keyrate(SCHEME_PASSIVE, params(d_km=d, chi_s=chi_s, T=T))
                    ref = passive_keyrate_scalar(40.0, chi_s, 0.8, T, distance_to_eta(d), 0.1)
                    for got, want in zip((bd.i_ab, bd.s_eb, bd.key_rate), ref):
                        assert math.isclose(got, want, rel_tol=1e-11, abs_tol=1e-11)

    def test_tap_output_variance(self):
        # at zero distance the transmitted mode carries T(V+chi_s) + (1-T)
        V, chi_s, T = 40.0, 0.1, 0.37
        st3 = tensor(noisy_source_state(V, chi_s), vacuum_state())
        out = apply_beamsplitter(st3, 1, 2, T)
        expected = T * (V + chi_s) + (1.0 - T)
        assert np.allclose(out.mode_block(1), expected * np.eye(2), atol=1e-12)


class TestSchemeRelations:
    def test_information_quantities_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            p = params(d_km=rng.uniform(0.0, 40.0), eps=rng.uniform(0.0, 0.3),
                       V=rng.uniform(1.5, 60.0), chi_s=rng.uniform(0.0, 0.5),
                       beta=rng.uniform(0.5, 1.0), r=rng.uniform(0.0, 0.9),
                       T=rng.uniform(0.05, 1.0))
            for scheme in SCHEMES:
                bd = evaluate_keyrate(scheme, p)
                assert bd.i_ab >= -1e-9
                assert bd.s_eb >= -1e-9

    def test_ordering_where_schemes_are_secure(self):
        # pointwise rate ordering holds in the jointly-secure region; the
        # zero-crossing (secure-distance) ordering is checked in acceptance
        p = params()
        for d in np.arange(0.0, 30.01, 0.5):
            ku = keyrate_at_distance(SCHEME_UNTRUSTED, p, d).key_rate
            ka = keyrate_at_distance(SCHEME_ACTIVE, p, d).key_rate
            kp = keyrate_at_distance(SCHEME_PASSIVE, p, d).key_rate
            if ka > 0.0 and kp > 0.0:
                assert kp >= ka - 1e-9
            if ku > 0.0 and ka > 0.0:
                assert ka >= ku - 1e-9

    def test_secure_distance_ordering(self):
        p = params()
        d_unt = secure_distance(SCHEME_UNTRUSTED, p)
        d_act = secure_distance(SCHEME_ACTIVE, p)
        d_pas = secure_distance(SCHEME_PASSIVE, p)
        assert d_unt is not None and d_act is not None and d_pas is not None
        assert d_unt < d_act < d_pas

    @staticmethod
    def _assert_monotone_security(rates):
        # the rate decreases while positive and never becomes positive again
        # once lost; deep in the insecure region the raw rate creeps back
        # toward zero from below, so literal monotonicity would be false
        for earlier, later in zip(rates, rates[1:]):
            if earlier > 0.0:
                assert later <= earlier + 1e-12
            else:
                assert later <= 1e-12

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_monotone_security_in_distance(self, scheme):
        p = params()
        rates = [keyrate_at_distance(scheme, p, d).key_rate
                 for d in np.arange(0.0, 50.01, 2.5)]
        self._assert_monotone_security(rates)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_monotone_security_in_excess_noise(self, scheme):
        rates = []
        for eps in np.arange(0.0, 0.301, 0.03):
            rates.append(evaluate_keyrate(scheme, params(d_km=5.0, eps=eps)).key_rate)
        self._assert_monotone_security(rates)

    def test_channel_opaque_guard(self):
        with pytest.raises(ChannelOpaqueError, match="channel opaque"):
            evaluate_keyrate(SCHEME_UNTRUSTED, params(d_km=320.0))

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            evaluate_keyrate("bogus", params())


# --------------------------------------------------------- distance search

class TestSecureDistance:
    def test_lossless_limit_hits_the_cap(self):
        # perfect reconciliation, clean source, no excess noise: positive at
        # every transmittance, so the search reports the cap itself
        p = params(eps=0.0, chi_s=0.0, beta=1.0)
        assert secure_distance(SCHEME_UNTRUSTED, p, d_max=100.0) == 100.0

    def test_insecure_at_zero_returns_none(self):
        p = params(beta=0.0)
        assert secure_distance(SCHEME_UNTRUSTED, p) is None

    def test_insecure_search_decided_in_one_point(self, monkeypatch):
        # d=0 is evaluated first, so an insecure search never scans the grid
        import cvqkd_mon.schemes as schemes

        calls = []

        def counting(scheme, p, d_km):
            calls.append(d_km)
            return keyrate_at_distance(scheme, p, d_km)

        monkeypatch.setattr(schemes, "keyrate_at_distance", counting)
        assert secure_distance(SCHEME_UNTRUSTED, params(beta=0.0), d_max=100.0) is None
        assert calls == [0.0]

    def test_bisection_matches_fine_grid_scan(self):
        rng = np.random.default_rng(2024)
        checked = 0
        while checked < 10:
            p = params(d_km=0.0,
                       eps=float(rng.uniform(0.02, 0.3)),
                       V=float(rng.uniform(5.0, 60.0)),
                       chi_s=float(rng.uniform(0.0, 0.3)),
                       beta=float(rng.uniform(0.7, 0.95)),
                       r=float(rng.uniform(0.0, 0.8)),
                       T=float(rng.uniform(0.1, 1.0)))
            scheme = SCHEMES[int(rng.integers(0, 3))]
            d_star = secure_distance(scheme, p, d_max=40.0)
            if d_star is None or d_star >= 39.5:
                continue
            # rates are monotone in d (asserted elsewhere), so a fine scan
            # around the reported boundary is an exhaustive 1 m grid scan
            lo = max(0.0, d_star - 0.6)
            fine = np.arange(lo, min(40.0, d_star + 0.6), 0.001)
            positives = [d for d in fine
                         if keyrate_at_distance(scheme, p, float(d)).key_rate > 0.0]
            assert positives, f"no positive rate near reported boundary {d_star}"
            assert abs(d_star - positives[-1]) <= 0.01
            checked += 1

    def test_rejects_bad_cap(self):
        with pytest.raises(ValueError):
            secure_distance(SCHEME_PASSIVE, params(), d_max=0.0)


class TestOptimizeT:
    def test_table_is_total_and_consistent(self):
        p = params()
        grid = [round(0.05 * k, 2) for k in range(1, 20)]
        result = optimize_T(p, grid, d_max=20.0)
        assert len(result.table) == len(grid)
        assert [t for t, _ in result.table] == grid
        dists = {t: d for t, d in result.table}
        assert all(d is None or d >= 0.0 for d in dists.values())
        assert result.d_best == max(d for d in dists.values() if d is not None)
        assert math.isclose(result.T_best, 0.10, abs_tol=1e-12)

    def test_all_insecure_grid(self):
        p = params(beta=0.0)
        result = optimize_T(p, [0.2, 0.5, 0.8], d_max=10.0)
        assert result.d_best is None
        assert result.T_best == 0.2
        assert all(d is None for _, d in result.table)

    def test_noiseless_grid_is_total_and_ties_break_small(self):
        # perfect reconciliation without noise is secure at any loss, so the
        # distances tie at the cap and the smaller tap must win
        p = params(eps=0.0, chi_s=0.0, beta=1.0)
        result = optimize_T(p, [0.7, 0.3], d_max=20.0)
        assert len(result.table) == 2
        assert all(d == 20.0 for _, d in result.table)
        assert result.T_best == 0.3
        assert result.d_best == 20.0

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            optimize_T(params(), [])

    def test_search_cap_default_matches_secure_distance(self):
        caps = {inspect.signature(fn).parameters["d_max"].default
                for fn in (secure_distance, optimize_T)}
        assert len(caps) == 1
