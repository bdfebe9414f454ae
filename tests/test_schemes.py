"""Scheme key rates, secure-distance search and tap optimization."""

import functools
import inspect
import math
import os
import subprocess
import sys
import textwrap
from itertools import product
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
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
    NumericalInstabilityError,
    ProtocolParams,
    UnphysicalStateError,
    evaluate_keyrate,
    keyrate_at_distance,
    optimize_T,
    secure_distance,
)
from cvqkd_mon.gaussian import apply_beamsplitter, noisy_source_state, tensor, vacuum_state

from oracles import (
    active_keyrate_scalar,
    passive_keyrate_scalar,
    secure_distance_full_scan,
    thermal_input_holevo_scalar,
    untrusted_keyrate_scalar,
)


def params(d_km=10.0, eps=0.1, alpha=0.2, **kw) -> ProtocolParams:
    return ProtocolParams(channel=ChannelParams(distance_km=d_km, epsilon=eps,
                                                alpha_db_per_km=alpha), **kw)


# ------------------------------------------------------------- channel maps

class TestChannelParams:
    """The one transmittance route: ChannelParams(d, alpha_db_per_km=...).eta."""

    def test_fifteen_km(self):
        # also pins the default attenuation of 0.2 dB/km
        assert math.isclose(ChannelParams(15.0).eta, 10.0 ** -0.3, rel_tol=1e-12)

    def test_derived_quantities(self):
        ch = ChannelParams(distance_km=50.0, epsilon=0.1)
        assert math.isclose(ch.eta, 0.1, rel_tol=1e-12)
        assert math.isclose(ch.chi, 9.0 + 0.1, rel_tol=1e-12)
        assert ch.chi >= ch.epsilon

    def test_zero_distance_is_transparent(self):
        assert ChannelParams(distance_km=0.0, epsilon=0.0).eta == 1.0

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

    def test_opaque_span_does_not_construct(self):
        with pytest.raises(ChannelOpaqueError, match=r"eta=1\.000e-08 .*\(distance 400\.0 km\)"):
            ChannelParams(400.0)

    @pytest.mark.parametrize("alpha", [0.15, 0.2, 0.3])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_domain_ends_at_the_opacity_floor(self, scheme, alpha):
        # eta = 1e-6 at 60/alpha km: a point just inside evaluates, one just past it raises
        edge = 60.0 / alpha
        p = params(alpha=alpha)
        assert math.isfinite(keyrate_at_distance(scheme, p, 0.999 * edge).key_rate)
        with pytest.raises(ChannelOpaqueError):
            keyrate_at_distance(scheme, p, 1.001 * edge)

    def test_validation(self):
        with pytest.raises(ValueError, match="distance"):
            ChannelParams(distance_km=-1.0, epsilon=0.1)
        with pytest.raises(ValueError, match="excess noise"):
            ChannelParams(distance_km=1.0, epsilon=-0.1)
        with pytest.raises(ValueError, match="attenuation"):
            ChannelParams(distance_km=1.0, epsilon=0.1, alpha_db_per_km=0.0)


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
                                                   ChannelParams(10.0).eta, 0.1)
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
            _, _, key = untrusted_keyrate_scalar(40.0, 0.1, 0.8, ChannelParams(d).eta, 0.1)
            assert math.isclose(bd.key_rate, key, rel_tol=1e-11, abs_tol=1e-12)


class TestActive:
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
                    ref = active_keyrate_scalar(40.0, chi_s, 0.8, r, ChannelParams(d).eta, 0.1)
                    for got, want in zip((bd.i_ab, bd.s_eb, bd.key_rate), ref):
                        assert math.isclose(got, want, rel_tol=1e-11, abs_tol=1e-12)

    def test_secure_distance_below_thirty(self):
        d = secure_distance(SCHEME_ACTIVE, params())
        assert d is not None
        assert d < 30.0


class TestPassive:
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
                    ref = passive_keyrate_scalar(40.0, chi_s, 0.8, T, ChannelParams(d).eta, 0.1)
                    for got, want in zip((bd.i_ab, bd.s_eb, bd.key_rate), ref):
                        assert math.isclose(got, want, rel_tol=1e-11, abs_tol=1e-11)

    def test_tap_output_variance(self):
        # at zero distance the transmitted mode carries T(V+chi_s) + (1-T)
        V, chi_s, T = 40.0, 0.1, 0.37
        st3 = tensor(noisy_source_state(V, chi_s), vacuum_state())
        out = apply_beamsplitter(st3, 1, 2, T)
        expected = T * (V + chi_s) + (1.0 - T)
        assert np.allclose(out.matrix[2:4, 2:4], expected * np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("chi_s", [0.0, 0.1, 2.0])
    @pytest.mark.parametrize("V", [1.5, 10.0, 40.0, 1e3])
    def test_tap_is_an_attenuator_in_front_of_the_active_scheme(self, V, chi_s):
        # passive(V, chi_s, T) has the I(a:b) and S(E:b) of active at
        # V' = T(V-1)+1, chi_s' = T chi_s: c^2/(a+1) = T(V-1) = V'-1, and the
        # thermal channel input T(V+chi_s)+1-T = V'+chi_s'.  Only the duty
        # differs.  The S(E:b) tolerance covers eig noise at pure corners.
        for T in (0.01, 0.1, 0.5, 0.9, 1.0):
            for d in (0.0, 5.0, 30.0, 100.0):
                for eps in (0.0, 0.1):
                    pas = evaluate_keyrate(SCHEME_PASSIVE, params(d_km=d, eps=eps, V=V,
                                                                  chi_s=chi_s, T=T))
                    act = evaluate_keyrate(SCHEME_ACTIVE, params(
                        d_km=d, eps=eps, V=T * (V - 1.0) + 1.0, chi_s=T * chi_s))
                    at = f"T={T}, d={d}, eps={eps}"
                    assert math.isclose(pas.i_ab, act.i_ab, rel_tol=0.0, abs_tol=1e-12), at
                    assert math.isclose(pas.s_eb, act.s_eb, rel_tol=0.0, abs_tol=1e-8), at


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


# Physical states at pure-state corners (d=0, eps=0) on which the key-rate
# path raises today, as (scheme, V, chi_s, T): the eigen-solver's
# UnphysicalStateError (a ValueError) or the breakdown's "negative
# information quantities" check.  ROADMAP item 3 mends them.
PURE_CORNERS = [
    *((scheme, 1e5, 0.0, 0.5) for scheme in SCHEMES),
    (SCHEME_ACTIVE, 1e6, 0.1, 0.5), (SCHEME_PASSIVE, 1e6, 0.1, 0.5),
    (SCHEME_PASSIVE, 1e4, 0.0, 0.5),
    (SCHEME_ACTIVE, 1e5, 2.0, 1.0), (SCHEME_PASSIVE, 1e5, 2.0, 1.0),
    (SCHEME_PASSIVE, 1e3, 0.5, 0.5),
]


class TestPureStateCorners:
    @pytest.mark.xfail(strict=True, raises=ValueError,
                       reason="eigen-solver noise at pure-state corners (ROADMAP item 3)")
    @pytest.mark.parametrize("scheme, V, chi_s, T", PURE_CORNERS,
                             ids=[f"{s}-V={V:g}-chi_s={c}-T={T}" for s, V, c, T in PURE_CORNERS])
    def test_evaluates(self, scheme, V, chi_s, T):
        bd = evaluate_keyrate(scheme, params(d_km=0.0, eps=0.0, V=V, chi_s=chi_s, T=T))
        assert bd.s_eb >= 0.0


# A pure-state corner where the eigen-solver fails its own residue check
# instead ("real residue 6.900e+00"); NumericalInstabilityError is an
# ArithmeticError, so the ValueError marker above does not cover it.
@pytest.mark.xfail(strict=True, raises=NumericalInstabilityError,
                   reason="eigen-solver noise at pure-state corners (ROADMAP item 3)")
def test_instability_corner_is_evaluated():
    bd = evaluate_keyrate(SCHEME_ACTIVE, params(d_km=0.0, eps=0.0, V=584894239.886, chi_s=0.0))
    assert bd.s_eb >= 0.0


class TestHolevoInSourceNoise:
    """Sign of S(E:b) in the monitored chi_s, which decides the conservative bound.

    S(E:b) depends only on the channel-input variance W = T(V+chi_s)+1-T
    (V+chi_s for active, here T=1).  It grows with W from W = 1.2 on, but
    not near the vacuum.
    """

    CHI_S = (0.0, 0.01, 0.1, 0.5, 2.0)

    def test_nondecreasing_from_input_variance_one_point_two(self):
        @functools.cache
        def s_eb(scheme, V, chi_s, T, d, eps):
            return evaluate_keyrate(scheme, params(d_km=d, eps=eps, V=V, chi_s=chi_s, T=T)).s_eb

        V_D_EPS = ((1.2, 1.5, 2.0, 10.0, 40.0, 1e3), (0.0, 5.0, 30.0, 100.0), (0.0, 0.1))
        cases = [*product([SCHEME_ACTIVE], [1.0], *V_D_EPS),
                 *product([SCHEME_PASSIVE], (0.01, 0.1, 0.5, 0.9, 1.0), *V_D_EPS)]
        pairs = 0
        for scheme, T, V, d, eps in cases:
            for lo, hi in zip(self.CHI_S, self.CHI_S[1:]):
                corner = d == eps == 0.0 and any(
                    (scheme, V, chi_s, T) in PURE_CORNERS for chi_s in (lo, hi))
                if T * (V + lo) + 1.0 - T < 1.2 or corner:
                    continue
                step = s_eb(scheme, V, hi, T, d, eps) - s_eb(scheme, V, lo, T, d, eps)
                assert step >= -1e-8, (scheme, V, T, d, eps, lo, hi)
                pairs += 1
        assert pairs == 886

    @pytest.mark.parametrize("scheme, V, T, drop", [(SCHEME_PASSIVE, 2.0, 0.1, 1.67e-4),
                                                    (SCHEME_ACTIVE, 1.05, 1.0, 2.08e-3)])
    def test_falls_near_the_vacuum(self, scheme, V, T, drop):
        # chi_s from 0 to 0.1 at d=0, eps=0.1 takes W from 1.1 (passive) or
        # 1.05 (active) up by 0.01 or 0.1, and S(E:b) down: here the lower
        # bound on chi_s, not the upper one, is the conservative input.
        s = [evaluate_keyrate(scheme, params(d_km=0.0, eps=0.1, V=V, chi_s=chi_s, T=T)).s_eb
             for chi_s in (0.0, 0.1)]
        route = [thermal_input_holevo_scalar(T * (V + chi_s) + 1.0 - T, 1.0, 0.1)
                 for chi_s in (0.0, 0.1)]
        assert math.isclose(s[0] - s[1], drop, rel_tol=0.01)
        assert math.isclose(route[0] - route[1], drop, rel_tol=0.01)


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
        # a vacuum source over a lossless, noiseless channel: I(a:b) = S(E:b)
        # = 0, so K is exactly 0.0 at d=0, which is not secure
        vacuum = params(d_km=0.0, eps=0.0, V=1.0, chi_s=0.0)
        for scheme in SCHEMES:
            assert keyrate_at_distance(scheme, vacuum, 0.0).key_rate == 0.0
            assert secure_distance(scheme, vacuum) is None, scheme

    @pytest.mark.parametrize("case", ["insecure", "normal", "capped", "capped_below_grid"])
    def test_scan_stops_at_first_insecure_point(self, case, monkeypatch):
        # d=0 is evaluated first, so an insecure search never scans the grid;
        # otherwise the 0.5 km scan ends at the first non-positive point, or
        # walks the whole grid when the rate stays positive up to the cap.
        # A cap a hair below a grid point ends the walk; the point after it
        # is never evaluated.
        import cvqkd_mon.schemes as schemes

        calls = []

        def counting(scheme, p, d_km):
            calls.append(d_km)
            return keyrate_at_distance(scheme, p, d_km)

        scheme, p, d_max = {
            "insecure": (SCHEME_UNTRUSTED, params(beta=0.0), 100.0),
            "normal": (SCHEME_PASSIVE, params(), 100.0),
            "capped": (SCHEME_UNTRUSTED, params(eps=0.0, chi_s=0.0, beta=1.0), 10.2),
            "capped_below_grid": (SCHEME_UNTRUSTED, params(eps=0.0, chi_s=0.0, beta=1.0),
                                  10.5 - 1e-10),
        }[case]
        monkeypatch.setattr(schemes, "keyrate_at_distance", counting)
        d_star = secure_distance(scheme, p, d_max=d_max)
        if case == "insecure":
            assert d_star is None
            assert calls == [0.0]
        elif case.startswith("capped"):
            assert d_star == d_max
            assert calls == [0.5 * k for k in range(21)] + [d_max]
        else:
            # the scan is the leading run of grid points; bisection midpoints
            # lie off the grid
            last = calls[next(k for k, d in enumerate(calls) if d != 0.5 * k) - 1]
            assert keyrate_at_distance(scheme, p, last).key_rate <= 0.0
            assert keyrate_at_distance(scheme, p, last - 0.5).key_rate > 0.0
            assert last - 0.5 < d_star < last
            assert len(calls) <= math.ceil(d_star / 0.5) + 8

    def test_cap_just_inside_the_opacity_floor_is_returned(self):
        # At alpha = 60/(250 - 2e-10) dB/km the floor lies at 250 - 2e-10 km,
        # so a cap of 250 - 4e-10 km is inside the domain but the grid point
        # 250.0 km is not; a lossless point is secure all the way to the cap.
        p = params(eps=0.0, chi_s=0.0, beta=1.0, alpha=60.0 / (250.0 - 2e-10))
        d_max = 250.0 - 4e-10
        assert keyrate_at_distance(SCHEME_UNTRUSTED, p, d_max).key_rate > 0.0
        with pytest.raises(ChannelOpaqueError):
            keyrate_at_distance(SCHEME_UNTRUSTED, p, 250.0)
        assert secure_distance(SCHEME_UNTRUSTED, p, d_max=d_max) == d_max

    def test_matches_full_scan_reference(self):
        # the early stop relies on the rate never turning positive again;
        # the reference evaluates every grid point up to the cap instead
        rng = np.random.default_rng(1)
        outcomes = set()
        for _ in range(30):
            scheme = SCHEMES[int(rng.integers(0, 3))]
            lossless = rng.random() < 0.2
            p = params(d_km=0.0,
                       eps=0.0 if lossless else float(rng.uniform(0.0, 0.1)),
                       alpha=float(10 ** rng.uniform(math.log10(0.15), math.log10(2.0))),
                       V=float(10 ** rng.uniform(0.0, 6.0)),
                       chi_s=0.0 if lossless else float(rng.uniform(0.0, 0.3)),
                       beta=1.0 if lossless else float(rng.uniform(0.8, 1.0)),
                       r=float(rng.uniform(0.0, 0.9)),
                       T=float(rng.uniform(0.05, 1.0)))
            d_max = float(10 ** rng.uniform(math.log10(0.3), math.log10(400.0)))

            def rate(d, scheme=scheme, p=p):
                return keyrate_at_distance(scheme, p, d).key_rate

            results = []
            for search in (functools.partial(secure_distance, scheme, p, d_max),
                           functools.partial(secure_distance_full_scan, rate, d_max)):
                try:
                    results.append(search())
                except ValueError as exc:
                    results.append(type(exc))
            assert results[0] == results[1], (scheme, p, d_max)
            d_star = results[0]
            outcomes.add("normal" if isinstance(d_star, float) and d_star < d_max
                         else "capped" if d_star == d_max else d_star)
        # every way a search can end is among the cases
        assert outcomes == {None, "normal", "capped", ChannelOpaqueError, UnphysicalStateError}

    def test_bisection_matches_brentq_root(self):
        # The search returns the midpoint of a bracket at most 0.01 km wide,
        # so it lies within 0.005 km of the rate's zero crossing, found here
        # by scipy's brentq on the same rate (oracles.secure_distance_brentq's
        # route); rates are monotone in d (asserted elsewhere), so there is
        # one crossing in the window.
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

            def rate(d, scheme=scheme, p=p):
                return keyrate_at_distance(scheme, p, d).key_rate

            root = scipy.optimize.brentq(rate, max(0.0, d_star - 0.6),
                                         min(40.0, d_star + 0.6), xtol=1e-9)
            assert abs(d_star - root) <= 0.005, (scheme, p, d_star, root)
            checked += 1

    def test_rejects_bad_cap(self):
        with pytest.raises(ValueError):
            secure_distance(SCHEME_PASSIVE, params(), d_max=0.0)

    @pytest.mark.parametrize("d_max", [math.nan, math.inf])
    def test_rejects_non_finite_cap_before_any_point(self, d_max, monkeypatch):
        import cvqkd_mon.schemes as schemes

        calls = []
        monkeypatch.setattr(schemes, "keyrate_at_distance", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="search cap must be finite"):
            secure_distance(SCHEME_PASSIVE, params(), d_max=d_max)
        with pytest.raises(ValueError, match="search cap must be finite"):
            optimize_T(params(), [0.1, 0.5], d_max=d_max)
        assert calls == []

    def test_huge_cap_runs_in_bounded_memory(self):
        # The coarse grid is walked, never materialised: with a cap of 1e300
        # an insecure point stops at d=0, the reference point (insecure from
        # 0.22 km) at its first non-positive point, 0.5 km, and a lossless
        # point, still secure at the opacity floor, raises at the first scan
        # point past it.
        # The child's address space is capped at 1 GiB, so a grid that is
        # built as a list fails fast.
        script = textwrap.dedent("""
            import resource
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
            from cvqkd_mon import ChannelOpaqueError, ChannelParams, ProtocolParams, secure_distance
            print(secure_distance("untrusted", ProtocolParams(ChannelParams(0.0), beta=0.0), 1e300))
            print(secure_distance("untrusted", ProtocolParams(ChannelParams(0.0)), 1e300))
            lossless = ProtocolParams(ChannelParams(0.0, epsilon=0.0), chi_s=0.0, beta=1.0)
            try:
                secure_distance("untrusted", lossless, 1e300)
            except ChannelOpaqueError as exc:
                print(exc)
        """)
        import cvqkd_mon.schemes as schemes

        src = Path(schemes.__file__).parents[1]
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=120, env=os.environ | {"PYTHONPATH": str(src)})
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == [
            "None", repr(secure_distance(SCHEME_UNTRUSTED, params(d_km=0.0), 100.0)),
            "channel opaque: eta=9.772e-07 below 1e-06 (distance 300.5 km)"]


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
