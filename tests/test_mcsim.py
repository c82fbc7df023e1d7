import math

import numpy as np
import pytest

from uavrelay import (
    OutageEstimate,
    PowerSplit,
    SimSpec,
    end_to_end_outage,
    estimate_outage,
    hop_capacity,
    sample_rician_power,
)
from uavrelay.mcsim import _chunk_events, _chunk_rng
from uavrelay.specfun import _marcum_q1_complement

from conftest import make_radio


class TestSampleRicianPower:
    def test_unit_mean(self):
        rng = np.random.Generator(np.random.Philox(7))
        draws = sample_rician_power(10.0, rng, 1_000_000)
        assert abs(float(np.mean(draws)) - 1.0) <= 0.004

    def test_strong_los_limit_collapses_variance(self):
        rng = np.random.Generator(np.random.Philox(8))
        draws = sample_rician_power(1e6, rng, 100_000)
        assert float(np.var(draws)) < 1e-5

    def test_cdf_matches_closed_form(self):
        # Empirical CDF of |h|^2 against 1 - Q_1(sqrt(2k), sqrt(2(k+1)x))
        k = 10.0
        rng = np.random.Generator(np.random.Philox(9))
        draws = np.sort(sample_rician_power(k, rng, 1_000_000))
        xs = np.linspace(0.05, 3.0, 60)
        worst = 0.0
        for x in xs:
            empirical = float(np.searchsorted(draws, x, side="right")) / draws.size
            closed = _marcum_q1_complement(
                math.sqrt(2.0 * k), math.sqrt(2.0 * (k + 1.0) * x)
            )
            worst = max(worst, abs(empirical - closed))
        assert worst <= 0.005

    def test_rejects_bad_k(self):
        rng = np.random.Generator(np.random.Philox(1))
        with pytest.raises(ValueError):
            sample_rician_power(0.0, rng)


class TestEstimateOutage:
    def test_deterministic_for_same_spec(self, radio, table1_budget):
        split = PowerSplit.from_alpha(0.5, radio.total_power_w)
        spec = SimSpec(trials=250_000, seed=31, chunk_size=64_000)
        first = estimate_outage(table1_budget, split, radio, spec)
        second = estimate_outage(table1_budget, split, radio, spec)
        assert first.p_hat == second.p_hat
        assert first.std_err == second.std_err

    def test_chunk_order_invariance(self, radio, table1_budget):
        # Threaded chunks against a serial tally in another order; the
        # uneven split leaves a partial last chunk.
        split = PowerSplit.from_alpha(0.3, radio.total_power_w)
        for spec in (
            SimSpec(trials=300_000, seed=77, chunk_size=100_000),
            SimSpec(trials=250_001, seed=78, chunk_size=64_000),
        ):
            estimate = estimate_outage(table1_budget, split, radio, spec)
            starts = range(0, spec.trials, spec.chunk_size)
            counts = [
                _chunk_events(
                    table1_budget, split, radio, spec.seed, index,
                    min(spec.chunk_size, spec.trials - start),
                )
                for index, start in reversed(list(enumerate(starts)))
            ]
            assert sum(counts) / spec.trials == estimate.p_hat

    def test_zero_bs_power_is_certain_outage(self, radio, table1_budget):
        estimate = estimate_outage(
            table1_budget,
            PowerSplit(0.0, 0.25),
            radio,
            SimSpec(trials=20_000, seed=5),
        )
        assert estimate.p_hat == 1.0
        assert estimate.std_err == 0.0

    def test_agrees_with_closed_form(self, radio, table1_budget):
        split = PowerSplit.from_alpha(0.5, radio.total_power_w)
        closed = end_to_end_outage(table1_budget, split, radio)
        estimate = estimate_outage(
            table1_budget, split, radio, SimSpec(trials=1_000_000, seed=101)
        )
        assert abs(estimate.p_hat - closed) <= 3.0 * estimate.std_err

    def test_std_err_scaling(self, table1_budget):
        # A config with moderate outage so p_hat is stable across sizes.
        radio = make_radio(total_power_w=0.02)
        split = PowerSplit.from_alpha(0.5, 0.02)
        errs = [
            estimate_outage(
                table1_budget, split, radio, SimSpec(trials=n, seed=55)
            ).std_err
            for n in (10_000, 100_000, 1_000_000)
        ]
        assert errs[0] / errs[1] == pytest.approx(math.sqrt(10.0), rel=0.15)
        assert errs[1] / errs[2] == pytest.approx(math.sqrt(10.0), rel=0.15)

    @pytest.mark.parametrize("rate", [0.5, 1.0, 2.0])
    def test_threshold_event_equals_capacity_shortfall(self, table1_budget, rate):
        # hop_capacity is the reference definition of the outage event; the
        # chunk tally compares fading power with the SNR threshold instead.
        # alpha 0 and 1 leave one hop without power.
        radio = make_radio(rate=rate)
        noise = radio.noise_power_w
        for alpha in (0.0, 0.3, 0.7, 1.0):
            split = PowerSplit.from_alpha(alpha, radio.total_power_w)
            for seed in (3, 4, 5):
                rng = _chunk_rng(seed, 1)
                su = sample_rician_power(table1_budget.k_su, rng, 50_000)
                ud = sample_rician_power(table1_budget.k_ud, rng, 50_000)
                capacity = np.minimum(
                    hop_capacity(split.p_s, table1_budget.g_su, su, noise),
                    hop_capacity(split.p_u, table1_budget.g_ud, ud, noise),
                )
                expected = int(np.count_nonzero(capacity < rate))
                got = _chunk_events(table1_budget, split, radio, seed, 1, 50_000)
                assert got == expected

    def test_hop_draws_uncorrelated(self, table1_budget):
        rng = _chunk_rng(123, 0)
        su = sample_rician_power(table1_budget.k_su, rng, 1_000_000)
        ud = sample_rician_power(table1_budget.k_ud, rng, 1_000_000)
        rho = float(np.corrcoef(su, ud)[0, 1])
        assert abs(rho) < 0.01

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SimSpec(trials=0, seed=1)
        with pytest.raises(ValueError):
            SimSpec(trials=100, seed=-1)
        with pytest.raises(ValueError):
            SimSpec(trials=100, seed=2**64)
        with pytest.raises(ValueError):
            OutageEstimate(p_hat=1.2, std_err=0.0, trials=10)
