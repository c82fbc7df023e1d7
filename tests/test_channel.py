import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from uavrelay import (
    HopEnvironment,
    LinkBudget,
    LinkGeometry,
    RadioConfig,
    RicianEndpoints,
    elevation_angle,
    link_budget,
    p_los,
    path_gain_excess,
    rician_k,
)
from uavrelay.channel import SPEED_OF_LIGHT

from conftest import TABLE1, make_radio

# Frozen 50-digit evaluations of the composed gain/K model at the reference
# parameters (h_u = 1000 m, r_s = r_d = 1000 m), one pair per excess-loss
# convention.
FROZEN_BUDGET = {
    "standard": {"g_su": 3.9873051773759334e-14, "g_ud": 3.4800997767991099e-14},
    "paper": {"g_su": 5.1400670383654208e-11, "g_ud": 3.8285068928104415e-12},
}
FROZEN_K = 10.0  # elevation pi/4 lands exactly on the geometric midpoint
P_LOS_SU_PI_2 = 0.99999883712081953368  # sigmoid at zenith, (a, b) = (0.28, 9.6)
P_LOS_SU_PI_4 = 0.99781682187684027326  # sigmoid at the default geometry elevation


class TestElevationAngle:
    def test_equal_legs(self):
        assert elevation_angle(1000.0, 1000.0) == pytest.approx(math.pi / 4, rel=1e-15)

    def test_overhead(self):
        assert elevation_angle(1000.0, 0.0) == math.pi / 2

    def test_thirty_degrees(self):
        assert abs(elevation_angle(1000.0, 1732.05) - math.pi / 6) <= 1e-6

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            elevation_angle(0.0, 100.0)
        with pytest.raises(ValueError):
            elevation_angle(100.0, -1.0)


class TestPathGain:
    def test_unit_excess_gives_kernel(self, radio):
        d = 1500.0
        kernel = SPEED_OF_LIGHT**2 * d ** (-radio.n) / (4.0 * math.pi * radio.f_c) ** 2
        assert path_gain_excess(d, 0.0, radio, "standard") == pytest.approx(kernel, rel=1e-15)

    def test_standard_twenty_db(self, radio):
        base = path_gain_excess(1500.0, 0.0, radio, "standard")
        assert path_gain_excess(1500.0, 20.0, radio, "standard") == pytest.approx(
            base * 0.01, rel=1e-14
        )

    def test_paper_twenty_db(self, radio):
        base = path_gain_excess(1500.0, 0.0, radio, "standard")
        assert path_gain_excess(1500.0, 20.0, radio, "paper") == pytest.approx(
            base * math.sqrt(2.0), rel=1e-14
        )

    def test_strictly_decreasing_in_distance(self, radio):
        distances = [100.0 + 49.0 * i for i in range(101)]
        gains = [path_gain_excess(d, 10.0, radio) for d in distances]
        assert all(b < a for a, b in zip(gains, gains[1:]))

    def test_rejects_nonpositive_distance(self, radio):
        with pytest.raises(ValueError):
            path_gain_excess(0.0, 10.0, radio)

    def test_rejects_unknown_convention(self, radio):
        with pytest.raises(ValueError):
            path_gain_excess(1000.0, 10.0, radio, "bogus")


class TestPLos:
    def test_theta_equals_a(self):
        for a in [0.1, 0.28, 0.7]:
            assert p_los(a, a, 9.6) == pytest.approx(1.0 / (1.0 + a), rel=1e-15)

    def test_zenith_value(self):
        assert p_los(math.pi / 2, 0.28, 9.6) == pytest.approx(P_LOS_SU_PI_2, rel=1e-12)

    def test_default_geometry_value(self):
        value = p_los(math.pi / 4, 0.28, 9.6)
        assert value == pytest.approx(P_LOS_SU_PI_4, rel=1e-12)
        assert abs(value - 0.997) <= 0.001

    def test_monotone_increasing(self):
        assert p_los(0.3, 0.28, 9.6) < p_los(0.6, 0.28, 9.6)

    def test_open_interval(self):
        for theta in [0.0, 0.4, math.pi / 2]:
            assert 0.0 < p_los(theta, 0.28, 9.6) < 1.0


class TestRicianK:
    ENDPOINTS = RicianEndpoints(k0_db=5.0, kpi2_db=15.0)

    def test_endpoints(self):
        assert rician_k(0.0, self.ENDPOINTS) == pytest.approx(10.0**0.5, rel=1e-14)
        assert rician_k(math.pi / 2, self.ENDPOINTS) == pytest.approx(10.0**1.5, rel=1e-14)

    def test_geometric_midpoint(self):
        assert rician_k(math.pi / 4, self.ENDPOINTS) == pytest.approx(10.0, rel=1e-12)

    def test_bounded_by_endpoints(self):
        lo, hi = 10.0**0.5, 10.0**1.5
        for i in range(51):
            theta = math.pi / 2 * i / 50
            assert lo * (1 - 1e-12) <= rician_k(theta, self.ENDPOINTS) <= hi * (1 + 1e-12)

    def test_flat_when_endpoints_match(self):
        flat = RicianEndpoints(k0_db=7.0, kpi2_db=7.0)
        assert rician_k(0.9, flat) == pytest.approx(10.0**0.7, rel=1e-14)


class TestLinkBudget:
    def test_symmetric_hops_identical(self, radio):
        geom = LinkGeometry.midpoint(1000.0, 2000.0)
        budget = link_budget(
            geom, TABLE1["env_su"], TABLE1["env_su"], TABLE1["rician"], TABLE1["rician"], radio
        )
        assert budget.g_su == budget.g_ud
        assert budget.k_su == budget.k_ud

    @pytest.mark.parametrize("convention", ["standard", "paper"])
    def test_frozen_reference_values(self, radio, convention):
        geom = LinkGeometry.midpoint(1000.0, 2000.0)
        budget = link_budget(
            geom,
            TABLE1["env_su"],
            TABLE1["env_ud"],
            TABLE1["rician"],
            TABLE1["rician"],
            radio,
            convention,
        )
        frozen = FROZEN_BUDGET[convention]
        assert budget.g_su == pytest.approx(frozen["g_su"], rel=1e-12)
        assert budget.g_ud == pytest.approx(frozen["g_ud"], rel=1e-12)
        assert budget.k_su == pytest.approx(FROZEN_K, rel=1e-12)
        assert budget.k_ud == pytest.approx(FROZEN_K, rel=1e-12)

    def test_altitude_raises_k(self, radio):
        def k_at(h_u):
            geom = LinkGeometry(h_u=h_u, r_s=1000.0, L=2000.0)
            return link_budget(
                geom, TABLE1["env_su"], TABLE1["env_ud"], TABLE1["rician"], TABLE1["rician"], radio
            ).k_su

        assert k_at(500.0) < k_at(1000.0) < k_at(2000.0)

    def test_mean_gain_between_los_and_nlos(self, radio):
        env = TABLE1["env_su"]
        geom = LinkGeometry.midpoint(800.0, 2400.0)
        budget = link_budget(
            geom, env, env, TABLE1["rician"], TABLE1["rician"], radio, "paper"
        )
        d = math.hypot(geom.h_u, geom.r_s)
        g_los = path_gain_excess(d, env.eta_los_db, radio, "paper")
        g_nlos = path_gain_excess(d, env.eta_nlos_db, radio, "paper")
        assert min(g_los, g_nlos) <= budget.g_su <= max(g_los, g_nlos)


class TestTypeInvariants:
    def test_geometry_consistency(self):
        bad = [(1000.0, 2100.0), (1000.0, -1.0), (1000.0, math.nan), (-5.0, 1000.0), (math.nan, 1000.0)]
        for h_u, r_s in bad:
            with pytest.raises(ValueError):
                LinkGeometry(h_u=h_u, r_s=r_s, L=2000.0)
        geom = LinkGeometry(h_u=1000.0, r_s=600.0, L=2000.0)
        assert geom.r_d == pytest.approx(1400.0)

    @given(h_u=st.floats(1e-3, 1e5), L=st.floats(1e-300, 1e7), share=st.floats(0.0, 1.0))
    def test_leg_to_the_user_is_derived_from_L(self, h_u, L, share):
        # Halving a normal float is exact, and so is L - 0.5 * L (Sterbenz),
        # so the midpoint legs are equal bit for bit.
        assert LinkGeometry.midpoint(h_u, L).r_d == 0.5 * L
        r_s = share * L
        assert LinkGeometry(h_u, r_s, L).r_d == L - r_s

    def test_environment_ordering(self):
        with pytest.raises(ValueError):
            HopEnvironment(a=0.28, b=9.6, eta_los_db=20.0, eta_nlos_db=1.0)
        with pytest.raises(ValueError):
            HopEnvironment(a=-0.1, b=9.6, eta_los_db=1.0, eta_nlos_db=20.0)

    def test_link_budget_rejects_nonpositive_k(self):
        # The Monte Carlo sampler takes its K from a LinkBudget and does not
        # check it again.
        for k in (0.0, -1.0):
            with pytest.raises(ValueError):
                LinkBudget(1e-10, 1e-10, k, 10.0)
            with pytest.raises(ValueError):
                LinkBudget(1e-10, 1e-10, 10.0, k)

    def test_link_budget_bounds_k(self):
        # Up to 1e150 (1500 dB), K (K + 1) and the Marcum a b stay finite;
        # from 1e-150 up, the ratio of the two hops' K is a positive double.
        assert LinkBudget(1e-10, 1e-10, 1e150, 1e150).k_ud == 1e150
        assert LinkBudget(1e-10, 1e-10, 1e-150, 1e150).k_su == 1e-150
        for k in (math.nextafter(1e150, math.inf), 1e300, math.inf, math.nan, math.nextafter(1e-150, 0.0)):
            with pytest.raises(ValueError):
                LinkBudget(1e-10, 1e-10, k, 10.0)
            with pytest.raises(ValueError):
                LinkBudget(1e-10, 1e-10, 10.0, k)

    def test_rician_endpoints_ordering(self):
        with pytest.raises(ValueError):
            RicianEndpoints(k0_db=15.0, kpi2_db=5.0)

    def test_radio_invariants(self):
        with pytest.raises(ValueError):
            RadioConfig(f_c=-1.0, n=3.0, noise_power_dbm=-110.0, rate=1.0, total_power_w=0.25)
        with pytest.raises(ValueError):
            RadioConfig(f_c=2e9, n=1.5, noise_power_dbm=-110.0, rate=1.0, total_power_w=0.25)
        with pytest.raises(ValueError):
            RadioConfig(f_c=2e9, n=3.0, noise_power_dbm=-110.0, rate=1.0, total_power_w=0.0)

    def test_radio_ranges(self):
        def radio(**fields):
            values = dict(f_c=2e9, n=3.0, noise_power_dbm=-110.0, rate=1.0, total_power_w=0.25)
            return RadioConfig(**{**values, **fields})

        # rate 0 has no outage threshold, and below ~8e-17 it rounds to 0; from
        # 512 on, 2^(2R) overflows.
        for rate in (0.0, -1.0, math.nan, 1e-17, 512.0, 600.0):
            with pytest.raises(ValueError):
                radio(rate=rate)
        # The noise power in watts overflows, underflows to 0, or is NaN.
        for dbm in (4000.0, -4000.0, math.nan):
            with pytest.raises(ValueError):
                radio(noise_power_dbm=dbm)
        assert radio(rate=511.9).rate == 511.9

    def test_noise_conversion(self):
        radio = make_radio()
        assert radio.noise_power_w == pytest.approx(1e-14, rel=1e-12)
