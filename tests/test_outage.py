import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ncx2

from uavrelay import (
    LinkBudget,
    PowerSplit,
    end_to_end_outage,
    end_to_end_outage_grid,
    estimate_outage,
    hop_capacity,
    hop_outage,
    snr_threshold,
    SimSpec,
)

from uavrelay.mcsim import _hop_events

from conftest import count_sign_changes, make_radio

# Frozen quadrature value of Q_1(2, sqrt(1.8)), the survival term for
# (k = 2, mean_snr = 10, rate = 1).
Q1_HOP_POINT = 0.83843906758775034213


class TestSnrThreshold:
    @pytest.mark.parametrize("rate,expected", [(0.5, 1.0), (1.0, 3.0), (2.0, 15.0)])
    def test_values(self, rate, expected):
        assert snr_threshold(rate) == pytest.approx(expected, rel=1e-15)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            snr_threshold(0.0)


class TestHopCapacity:
    def test_zero_fading(self):
        assert hop_capacity(1.0, 1e-10, 0.0, 1e-14) == 0.0

    def test_snr_three(self):
        # P*G*|h|^2/N0 = 3 -> half log2(4) = 1 bit/s/Hz
        assert hop_capacity(3.0, 1.0, 1.0, 1.0) == pytest.approx(1.0, rel=1e-15)

    def test_snr_fifteen(self):
        assert hop_capacity(15.0, 1.0, 1.0, 1.0) == pytest.approx(2.0, rel=1e-15)

    def test_vectorized(self):
        fading = np.array([0.0, 3.0, 15.0])
        caps = hop_capacity(1.0, 1.0, fading, 1.0)
        assert caps == pytest.approx([0.0, 1.0, 2.0], rel=1e-14)

    def test_rejects_bad_noise(self):
        with pytest.raises(ValueError):
            hop_capacity(1.0, 1.0, 1.0, 0.0)

    @pytest.mark.parametrize(
        "power, gain, fading, message",
        [
            (-1.0, 1.0, 1.0, "power and gain must be non-negative"),
            (1.0, -1.0, 1.0, "power and gain must be non-negative"),
            (1.0, 1.0, np.array([1.0, -1.0]), "fading power must be non-negative"),
        ],
        ids=["negative-power", "negative-gain", "negative-fading"],
    )
    def test_rejects_negative_inputs(self, power, gain, fading, message):
        with pytest.raises(ValueError, match=message):
            hop_capacity(power, gain, fading, 1.0)


class TestHopOutage:
    def test_high_snr_limit(self):
        assert hop_outage(2.0, 1e12, 1.0) < 1e-6

    def test_low_snr_limit(self):
        assert hop_outage(2.0, 1e-12, 1.0) > 1.0 - 1e-12

    def test_frozen_quadrature_point(self):
        assert hop_outage(2.0, 10.0, 1.0) == pytest.approx(1.0 - Q1_HOP_POINT, abs=1e-10)

    def test_against_monte_carlo(self):
        # 1e7 Rician draws with mean SNR 10 against the closed form
        rng = np.random.Generator(np.random.Philox(20240817))
        threshold = snr_threshold(1.0) / 10.0
        p_mc = sum(_hop_events(2.0, threshold, 1_000_000, rng) for _ in range(10)) / 10_000_000
        std_err = math.sqrt(p_mc * (1.0 - p_mc) / 10_000_000)
        assert abs(hop_outage(2.0, 10.0, 1.0) - p_mc) <= 3.0 * std_err

    @given(
        st.floats(min_value=-10.0, max_value=45.0),
        st.floats(min_value=0.05, max_value=4.0),
        st.floats(min_value=-3.0, max_value=9.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_against_noncentral_chi_square(self, k_db, rate, log_snr):
        # 1 - Q_1(a, b) is the cdf of a noncentral chi-square with 2 degrees
        # of freedom and noncentrality a^2, at b^2; same tolerance as the
        # benchmark's oracle.
        k, mean_snr = 10.0 ** (k_db / 10.0), 10.0**log_snr
        a = math.sqrt(2.0 * k)
        b = math.sqrt(2.0 * (k + 1.0) * (snr_threshold(rate) / mean_snr))
        value = hop_outage(k, mean_snr, rate)
        expected = ncx2.cdf(b * b, 2.0, a * a)
        assert abs(value - expected) <= 1e-7 * abs(expected) + 2e-15

    def test_domain(self):
        with pytest.raises(ValueError):
            hop_outage(0.0, 10.0, 1.0)
        with pytest.raises(ValueError):
            hop_outage(2.0, 0.0, 1.0)


class TestEndToEndOutage:
    def test_zero_power_is_full_outage(self, radio, table1_budget):
        assert end_to_end_outage(table1_budget, PowerSplit(0.0, 0.125), radio) == 1.0
        assert end_to_end_outage(table1_budget, PowerSplit(0.125, 0.0), radio) == 1.0

    def test_underflowing_snr_is_full_outage(self, radio, table1_budget):
        # At 1e-320 p_s is positive, but p_s * G / N0 underflows to 0.
        for alpha in (1e-320, 5e-324):
            split = PowerSplit.from_alpha(alpha, radio.total_power_w)
            assert end_to_end_outage(table1_budget, split, radio) == 1.0

    def test_identical_hops_compose(self, radio, symmetric_budget):
        split = PowerSplit.from_alpha(0.5, radio.total_power_w)
        noise = radio.noise_power_w
        q = hop_outage(symmetric_budget.k_su, split.p_s * symmetric_budget.g_su / noise, radio.rate)
        expected = 1.0 - (1.0 - q) ** 2
        assert end_to_end_outage(symmetric_budget, split, radio) == pytest.approx(
            expected, rel=1e-12
        )

    def test_against_monte_carlo(self, radio, table1_budget):
        split = PowerSplit.from_alpha(0.5, radio.total_power_w)
        closed = end_to_end_outage(table1_budget, split, radio)
        estimate = estimate_outage(
            table1_budget, split, radio, SimSpec(trials=1_000_000, seed=422)
        )
        assert abs(estimate.p_hat - closed) <= 3.0 * estimate.std_err

    def test_decreasing_in_each_power(self, radio, table1_budget):
        powers = [0.02, 0.05, 0.1, 0.2, 0.4]
        for p_u in [0.05, 0.2]:
            outages = [
                end_to_end_outage(table1_budget, PowerSplit(p_s, p_u), radio)
                for p_s in powers
            ]
            assert all(b < a for a, b in zip(outages, outages[1:]))
        for p_s in [0.05, 0.2]:
            outages = [
                end_to_end_outage(table1_budget, PowerSplit(p_s, p_u), radio)
                for p_u in powers
            ]
            assert all(b < a for a, b in zip(outages, outages[1:]))

    def test_union_bounds(self, radio, table1_budget):
        noise = radio.noise_power_w
        for alpha in [0.1, 0.3, 0.5, 0.7, 0.9]:
            split = PowerSplit.from_alpha(alpha, radio.total_power_w)
            out_su = hop_outage(table1_budget.k_su, split.p_s * table1_budget.g_su / noise, radio.rate)
            out_ud = hop_outage(table1_budget.k_ud, split.p_u * table1_budget.g_ud / noise, radio.rate)
            total = end_to_end_outage(table1_budget, split, radio)
            assert total >= max(out_su, out_ud) - 1e-15
            assert total <= out_su + out_ud + 1e-15

    def test_unimodal_in_alpha(self, radio, table1_budget):
        alphas = [0.005 + 0.99 * i / 198 for i in range(199)]
        outages = [
            end_to_end_outage(table1_budget, PowerSplit.from_alpha(a, 0.25), radio)
            for a in alphas
        ]
        assert count_sign_changes(outages) == 1


class TestEndToEndOutageGrid:
    @given(
        st.floats(min_value=-12.0, max_value=-6.0),
        st.floats(min_value=-12.0, max_value=-6.0),
        st.floats(min_value=-10.0, max_value=45.0),
        st.floats(min_value=-10.0, max_value=45.0),
        st.floats(min_value=-3.0, max_value=1.0),
        st.floats(min_value=0.1, max_value=4.0),
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=40),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_per_alpha_outage(self, g_su, g_ud, k_su, k_ud, pt, rate, alphas):
        # The grid's numpy quadrature and the per-split scalar evaluation of
        # the same rule agree to summation order wherever the outage is at
        # least 1e-8.
        budget = LinkBudget(10.0**g_su, 10.0**g_ud, 10.0 ** (k_su / 10.0), 10.0 ** (k_ud / 10.0))
        radio = make_radio(total_power_w=10.0**pt, rate=rate)
        grid = end_to_end_outage_grid(budget, alphas, radio)
        for alpha, value in zip(alphas, grid):
            split = PowerSplit.from_alpha(alpha, radio.total_power_w)
            if split.p_s * budget.g_su / radio.noise_power_w == 0.0 or split.p_u * budget.g_ud / radio.noise_power_w == 0.0:
                assert value == 1.0  # a split whose mean SNR underflows is a full outage
                continue
            expected = end_to_end_outage(budget, split, radio)
            assert 0.0 <= value <= 1.0
            if expected >= 1e-8:
                assert abs(value - expected) <= 1e-12 * expected, (alpha, value, expected)

    def test_rejects_alpha_outside_unit_interval(self, radio, table1_budget):
        for bad in (-0.1, 1.5, math.nan):
            with pytest.raises(ValueError):
                end_to_end_outage_grid(table1_budget, [0.5, bad], radio)


class TestPowerSplit:
    def test_from_alpha(self):
        split = PowerSplit.from_alpha(0.3, 0.5)
        assert split.p_s == pytest.approx(0.15, rel=1e-15)
        assert split.p_u == pytest.approx(0.35, rel=1e-15)
        assert split.total == pytest.approx(0.5, rel=1e-15)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            PowerSplit.from_alpha(1.5, 0.25)
        with pytest.raises(ValueError):
            PowerSplit.from_alpha(0.5, 0.0)

    def test_rejects_negative_power(self):
        with pytest.raises(ValueError):
            PowerSplit(-0.1, 0.2)
