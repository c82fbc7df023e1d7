import math

import numpy as np
import pytest
from scipy.stats import ncx2

from uavrelay import (
    OutageEstimate,
    PowerSplit,
    SimSpec,
    end_to_end_outage,
    estimate_outage,
    hop_capacity,
    snr_threshold,
)
from uavrelay import mcsim
from uavrelay.mcsim import _chunk_events, _chunk_rng, _hop_outages

from conftest import make_radio


class RecordingGenerator:
    """A chunk stream that keeps every block of normals it hands out."""

    def __init__(self, rng):
        self.rng = rng
        self.blocks = []

    def standard_normal(self, size=None, out=None):
        block = self.rng.standard_normal(size, out=out)
        self.blocks.append(block.copy())
        return block


@pytest.fixture
def streams(monkeypatch):
    """The chunk streams that ``_chunk_events`` creates, each recording its draws."""
    created = []

    def recording_rng(seed, chunk_index):
        created.append(RecordingGenerator(_chunk_rng(seed, chunk_index)))
        return created[-1]

    monkeypatch.setattr(mcsim, "_chunk_rng", recording_rng)
    return created


class TestHopOutages:
    @pytest.mark.parametrize(
        "k,threshold",
        # Rare candidates (the reference regime), a threshold near the LoS
        # power at K = 20 dB, and one above the LoS power at K = -3 dB.
        [(10.0, 0.1), (100.0, 0.8), (0.5, 1.5)],
    )
    def test_frequency_matches_noncentral_chi_square(self, k, threshold):
        # |h|^2 (2 (k+1)) is noncentral chi-square with 2 degrees of freedom
        # and noncentrality 2k. 2e7 draws in blocks of 1e6 from one stream;
        # the gate |z| <= 5 was set before the first run.
        rng = np.random.Generator(np.random.Philox(20241018))
        blocks, size = 20, 1_000_000
        power = np.empty(size)
        events = sum(_hop_outages(k, threshold, rng, power).size for _ in range(blocks))
        p = ncx2.cdf(2.0 * (k + 1.0) * threshold, 2, 2.0 * k)
        n = blocks * size
        assert abs(events - n * p) / math.sqrt(n * p * (1.0 - p)) <= 5.0

    def test_strong_los_limit_is_a_step(self):
        # At K = 60 dB the fading power stays within ~0.5% of 1.
        rng = np.random.Generator(np.random.Philox(8))
        power = np.empty(100_000)
        assert _hop_outages(1e6, 0.99, rng, power).size == 0
        assert _hop_outages(1e6, 1.01, rng, power).size == 100_000


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

    @pytest.mark.parametrize(
        "p_s,p_u,sizes",
        [
            (0.0, 0.25, []),
            (0.25, 0.0, []),
            (5e-324, 0.25, []),
            (0.25, 5e-324, []),
            (1e-300, 0.25, [20_000, 20_000, 20_000, 4]),
        ],
        ids=["zero-bs", "zero-uav", "underflow-bs", "underflow-uav", "tiny-bs"],
    )
    def test_powerless_hop_is_full_outage(self, radio, table1_budget, streams, p_s, p_u, sizes):
        # A hop whose P * G is 0 (here also from an underflowing product) is
        # in outage in every trial without a draw. A tiny positive P * G
        # gives a threshold near 1e296: every trial a candidate and an event.
        assert _chunk_events(table1_budget, PowerSplit(p_s, p_u), radio, 5, 0, 20_000) == 20_000
        assert [block.size for block in streams[0].blocks] == sizes

    def test_reference_draw_counts(self, radio, table1_budget, streams):
        # Reference scenario at alpha = 0.5, seed 2024: per hop, 1e5 in-phase
        # normals, then one quadrature normal per candidate, where the
        # in-phase power alone is below the hop's threshold.
        split = PowerSplit.from_alpha(0.5, radio.total_power_w)
        events = _chunk_events(table1_budget, split, radio, 2024, 0, 100_000)
        x_su, y_su, x_ud, y_ud = streams[0].blocks
        threshold = snr_threshold(radio.rate) * radio.noise_power_w
        candidates = []
        for k, received, x in (
            (table1_budget.k_su, split.p_s * table1_budget.g_su, x_su),
            (table1_budget.k_ud, split.p_u * table1_budget.g_ud, x_ud),
        ):
            in_phase = (math.sqrt(k / (k + 1.0)) + math.sqrt(0.5 / (k + 1.0)) * x) ** 2
            candidates.append(int(np.count_nonzero(in_phase < threshold / received)))
        assert (x_su.size, x_ud.size) == (100_000, 100_000)
        assert [y_su.size, y_ud.size] == candidates == [1, 56]
        assert events == 27
        assert max(candidates) < 100  # below 0.1% of the trials on each hop

    @pytest.mark.parametrize("rate", [0.5, 1.0, 2.0])
    def test_threshold_event_equals_capacity_shortfall(self, table1_budget, rate):
        # hop_capacity is the reference definition of the outage event; the
        # chunk tally compares fading power with the SNR threshold instead.
        # The same draws are rebuilt here: per hop, the in-phase block, then a
        # quadrature normal wherever the in-phase part alone falls short.
        # alpha 0 and 1 leave one hop without power.
        radio = make_radio(rate=rate)
        noise = radio.noise_power_w
        for alpha in (0.0, 0.3, 0.7, 1.0):
            split = PowerSplit.from_alpha(alpha, radio.total_power_w)
            for seed in (3, 4, 5):
                rng = _chunk_rng(seed, 1)
                capacities = []
                for k, power, gain in (
                    (table1_budget.k_su, split.p_s, table1_budget.g_su),
                    (table1_budget.k_ud, split.p_u, table1_budget.g_ud),
                ):
                    los, sigma = math.sqrt(k / (k + 1.0)), math.sqrt(0.5 / (k + 1.0))
                    fading = (los + sigma * rng.standard_normal(50_000)) ** 2
                    short = hop_capacity(power, gain, fading, noise) < rate
                    fading[short] += (sigma * rng.standard_normal(int(np.count_nonzero(short)))) ** 2
                    capacities.append(hop_capacity(power, gain, fading, noise))
                expected = int(np.count_nonzero(np.minimum(*capacities) < rate))
                got = _chunk_events(table1_budget, split, radio, seed, 1, 50_000)
                assert got == expected

    def test_hop_draws_uncorrelated(self):
        # Both hops draw from one chunk stream; their outage indicators must
        # be uncorrelated (standard error of the estimate ~1e-3).
        rng = _chunk_rng(123, 0)
        su, ud = np.zeros((2, 1_000_000), dtype=bool)
        power = np.empty(1_000_000)
        su[_hop_outages(1.0, 0.5, rng, power)] = True
        ud[_hop_outages(1.0, 0.5, rng, power)] = True
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
