import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
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
    """A chunk stream that keeps every block of uniforms it hands out."""

    def __init__(self, rng):
        self.rng = rng
        self.blocks = []

    def random(self, size=None, out=None):
        block = self.rng.random(size, out=out)
        self.blocks.append(block.copy())
        return block


def polar_screen(k, threshold):
    """(los, sigma, cut) of one hop: a trial is a candidate where its radius
    uniform U >= cut, the widened U at which the Rayleigh radius
    sigma sqrt(-2 log(1 - U)) reaches los - sqrt(threshold) - 2^-50."""
    los, sigma = math.sqrt(k / (k + 1.0)), math.sqrt(0.5 / (k + 1.0))
    near = max(los - math.sqrt(threshold) - 2.0**-50, 0.0) / sigma
    return los, sigma, -math.expm1(-0.5 * near * near) * (1.0 - 1e-9)


class ScriptedGenerator:
    """Fills the first block with fixed radius uniforms ``u`` and each later
    block with phase uniforms of 0.5, where cos(pi W) is within 1e-16 of 0."""

    def __init__(self, u):
        self.u = u
        self.phase_sizes = None

    def random(self, out):
        if self.phase_sizes is None:
            out[:] = self.u
            self.phase_sizes = []
        else:
            out[:] = 0.5
            self.phase_sizes.append(out.size)
        return out


def polar_power(los, sigma, u, w):
    """|h|^2 = (r - los)^2 + 4 los r cos^2(pi W) of candidates with radius
    uniforms ``u`` and phase uniforms ``w``, in the sampler's operation order."""
    r = sigma * np.sqrt(-2.0 * np.log1p(-u))
    c = np.cos(math.pi * w)
    return (r - los) ** 2 + c * c * (4.0 * los) * r


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

    @pytest.mark.parametrize("k", [0.1, 1.0, 10.0, 1e3, 1e6])
    @pytest.mark.parametrize("share", [1e-300, 1e-3, 0.5, 1.0 - 1e-9, 1.0 - 1e-13])
    def test_screen_keeps_every_float_event(self, k, share):
        # Radius uniforms at the cut and its 16 neighbouring doubles, with a
        # phase of pi / 2, where |h|^2 = (r - los)^2. The thresholds run from
        # far below the LoS power to ~500 units in the last place below it.
        threshold = share * (k / (k + 1.0))
        los, sigma, cut = polar_screen(k, threshold)
        assert cut > 0.0
        u = [cut]
        for _ in range(8):
            u = [np.nextafter(u[0], 0.0), *u, np.nextafter(u[-1], 1.0)]
        u = np.array(u)
        rng = ScriptedGenerator(u)
        _hop_outages(k, threshold, rng, np.empty(u.size))
        screened = u.size - rng.phase_sizes[0]
        assert screened == 8  # every double below the cut, and none from it
        r = sigma * np.sqrt(-2.0 * np.log1p(-u[:screened]))
        assert np.all((r - los) ** 2 >= threshold)

    @pytest.mark.parametrize("k", [0.1, 10.0, 1e6])
    def test_threshold_next_to_los_power_screens_nothing(self, k):
        # Within 2^-50 of the LoS amplitude no trial is screened out.
        threshold = np.nextafter(k / (k + 1.0), 0.0)
        assert polar_screen(k, threshold)[2] == 0.0
        rng = ScriptedGenerator(np.zeros(5))
        _hop_outages(k, threshold, rng, np.empty(5))
        assert rng.phase_sizes == [5]

    @given(
        k_db=st.floats(min_value=-10.0, max_value=60.0),
        threshold=st.one_of(
            st.floats(min_value=1e-300, max_value=1e300),
            st.floats(min_value=1e-3, max_value=1.5),
            st.just(math.inf),
        ),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @example(k_db=60.0, threshold=1e-300, seed=0)
    @example(k_db=-10.0, threshold=math.inf, seed=1)
    @settings(max_examples=300, deadline=None)
    def test_screen_properties(self, k_db, threshold, seed):
        # Over the whole K range and thresholds from 1e-300 to infinity: the
        # indices are strictly increasing trials, no floating-point warning
        # is raised, and the returned trials are exactly the candidates whose
        # power, rebuilt from the recorded draws, is below the threshold.
        k = 10.0 ** (k_db / 10.0)
        rng = RecordingGenerator(np.random.Generator(np.random.PCG64(seed)))
        power = np.empty(2_000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _hop_outages(k, threshold, rng, power)
        assert np.all(np.diff(got) > 0)
        assert got.size == 0 or (got[0] >= 0 and got[-1] < power.size)
        u, w = rng.blocks
        los, sigma, cut = polar_screen(k, threshold)
        candidates = np.flatnonzero(u >= cut)
        assert w.size == candidates.size
        assert np.array_equal(got, candidates[polar_power(los, sigma, u[candidates], w) < threshold])


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
            (1e-300, 0.25, [20_000, 20_000, 20_000, 27]),
        ],
        ids=["zero-bs", "zero-uav", "underflow-bs", "underflow-uav", "tiny-bs"],
    )
    def test_powerless_hop_is_full_outage(self, radio, table1_budget, streams, p_s, p_u, sizes):
        # A hop whose P * G is 0 (here also from an underflowing product) is
        # in outage in every trial without a draw. A tiny positive P * G
        # gives a threshold near 1e296: every trial a candidate and an event.
        # Hop ud then draws its 2e4 radius uniforms and 27 phase uniforms.
        assert _chunk_events(table1_budget, PowerSplit(p_s, p_u), radio, 5, 0, 20_000) == 20_000
        assert [block.size for block in streams[0].blocks] == sizes

    def test_reference_draw_counts(self, radio, table1_budget, streams):
        # Reference scenario at alpha = 0.5, seed 2024: per hop, 1e5 radius
        # uniforms, then one phase uniform per candidate, where the radius
        # alone can reach below the hop's threshold.
        split = PowerSplit.from_alpha(0.5, radio.total_power_w)
        events = _chunk_events(table1_budget, split, radio, 2024, 0, 100_000)
        u_su, w_su, u_ud, w_ud = streams[0].blocks
        threshold = snr_threshold(radio.rate) * radio.noise_power_w
        candidates = []
        for k, received, u in (
            (table1_budget.k_su, split.p_s * table1_budget.g_su, u_su),
            (table1_budget.k_ud, split.p_u * table1_budget.g_ud, u_ud),
        ):
            _, _, cut = polar_screen(k, threshold / received)
            candidates.append(int(np.count_nonzero(u >= cut)))
        assert (u_su.size, u_ud.size) == (100_000, 100_000)
        assert [w_su.size, w_ud.size] == candidates == [16, 415]
        assert events == 23
        assert max(candidates) < 500  # below 0.5% of the trials on each hop

    @pytest.mark.parametrize("rate", [0.5, 1.0, 2.0])
    def test_threshold_event_equals_capacity_shortfall(self, table1_budget, rate):
        # hop_capacity is the reference definition of the outage event; the
        # chunk tally compares fading power with the SNR threshold instead.
        # The same draws are rebuilt here: per hop, the radius uniforms, then
        # a phase uniform per candidate. A non-candidate keeps the lower bound
        # (r - los)^2 of its power, which must not fall short on its own.
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
                    received = power * gain
                    threshold = snr_threshold(rate) * noise / received if received else math.inf
                    los, sigma, cut = polar_screen(k, threshold)
                    u = rng.random(50_000)
                    candidate = u >= cut
                    fading = (sigma * np.sqrt(-2.0 * np.log1p(-u)) - los) ** 2
                    w = rng.random(int(np.count_nonzero(candidate)))
                    fading[candidate] = polar_power(los, sigma, u[candidate], w)
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
