import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import ncx2

from uavrelay import (
    LinkBudget,
    OutageEstimate,
    PowerSplit,
    SimSpec,
    end_to_end_outage,
    estimate_outage,
    snr_threshold,
)
from uavrelay import _arrays, cli
from uavrelay._arrays import _chunk_events, _chunk_rng, _hop_events

from conftest import make_radio


class RecordingGenerator:
    """A chunk stream that keeps every draw it hands out, as (method, arguments, result)."""

    def __init__(self, rng):
        self.rng = rng
        self.draws = []

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def record(*args):
            result = method(*args)
            self.draws.append((name, args, np.copy(result)))
            return result

        return record


def polar_screen(k, threshold):
    """(los, sigma, near) of one hop: a trial is a candidate where its
    Rayleigh radius reaches sigma * near, the line-of-sight amplitude's
    distance to the threshold amplitude shortened by 2^-50."""
    los, sigma = math.sqrt(k / (k + 1.0)), math.sqrt(0.5 / (k + 1.0))
    return los, sigma, max(los - math.sqrt(threshold) - 2.0**-50, 0.0) / sigma


def candidate_radius(sigma, near, e):
    """Radii sigma sqrt(near^2 + 2 E) of candidates with exponentials ``e``,
    in the sampler's operation order."""
    return sigma * np.sqrt(near * near + 2.0 * e)


def polar_power(los, sigma, r, w):
    """|h|^2 = (r - los)^2 + 4 los r cos^2(pi W) of candidates with radii
    ``r`` and phase uniforms ``w``, in the sampler's operation order."""
    c = np.cos(math.pi * w)
    return (r - los) ** 2 + c * c * (4.0 * los) * r


def capacity(power, gain, fading, noise):
    """Instantaneous hop capacity 0.5 log2(1 + P G |h|^2 / N0) in bits/s/Hz,
    the reference definition of the outage event C < R."""
    return 0.5 * np.log2(1.0 + power * gain * fading / noise)


def hop_draws(draws):
    """(candidate count, exponentials, phases) of each hop in recorded ``draws``."""
    return [tuple(result for _, _, result in draws[i : i + 3]) for i in range(0, len(draws) - 1, 3)]


@pytest.fixture
def streams(monkeypatch):
    """The chunk streams that ``_chunk_events`` creates, each recording its draws."""
    created = []

    def recording_rng(seed, chunk_index):
        created.append(RecordingGenerator(_chunk_rng(seed, chunk_index)))
        return created[-1]

    monkeypatch.setattr(_arrays, "_chunk_rng", recording_rng)
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
        # and noncentrality 2k. 2e7 trials in blocks of 1e6 from one stream;
        # the gate |z| <= 5 was set before the first run.
        rng = np.random.Generator(np.random.Philox(20241018))
        blocks, size = 20, 1_000_000
        events = sum(_hop_events(k, threshold, size, rng) for _ in range(blocks))
        p = ncx2.cdf(2.0 * (k + 1.0) * threshold, 2, 2.0 * k)
        n = blocks * size
        assert abs(events - n * p) / math.sqrt(n * p * (1.0 - p)) <= 5.0

    def test_strong_los_limit_is_a_step(self):
        # At K = 60 dB the fading power stays within ~0.5% of 1.
        rng = np.random.Generator(np.random.Philox(8))
        assert _hop_events(1e6, 0.99, 100_000, rng) == 0
        assert _hop_events(1e6, 1.01, 100_000, rng) == 100_000

    @pytest.mark.parametrize("k", [0.1, 1.0, 10.0, 1e3, 1e6])
    @pytest.mark.parametrize("share", [1e-300, 1e-3, 0.5, 1.0 - 1e-9, 1.0 - 1e-13])
    def test_screen_keeps_every_float_event(self, k, share):
        # A trial is left out when its radius is below sigma * near. The
        # largest radii it can round to, sigma * near and its 8 neighbouring
        # doubles below, at a phase of pi / 2, where |h|^2 = (r - los)^2,
        # must not be events. The thresholds run from far below the LoS power
        # to ~500 units in the last place below it.
        threshold = share * (k / (k + 1.0))
        los, sigma, near = polar_screen(k, threshold)
        assert near > 0.0
        r = [sigma * near]
        for _ in range(8):
            r.append(np.nextafter(r[-1], 0.0))
        assert np.all((np.array(r) - los) ** 2 >= threshold)

    @pytest.mark.parametrize("k", [0.1, 10.0, 1e6])
    def test_threshold_next_to_los_power_screens_nothing(self, k):
        # Within 2^-50 of the LoS amplitude every trial is a candidate.
        threshold = np.nextafter(k / (k + 1.0), 0.0)
        assert polar_screen(k, threshold)[2] == 0.0
        rng = RecordingGenerator(np.random.Generator(np.random.PCG64(7)))
        _hop_events(k, threshold, 5, rng)
        assert [(name, args) for name, args, _ in rng.draws[:2]] == [
            ("binomial", (5, 1.0)),
            ("standard_exponential", (5,)),
        ]

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
        # Over the whole K range and thresholds from 1e-300 to infinity: no
        # floating-point warning is raised, the candidates' exponentials and
        # phases are as many as the binomial draw, their radii are never
        # below sigma * near, and the count is exactly the candidates whose
        # power, rebuilt from the recorded draws, is below the threshold.
        k = 10.0 ** (k_db / 10.0)
        rng = RecordingGenerator(np.random.Generator(np.random.PCG64(seed)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _hop_events(k, threshold, 2_000, rng)
        los, sigma, near = polar_screen(k, threshold)
        ((m, e, w),) = hop_draws(rng.draws)
        assert rng.draws[0][1] == (2_000, math.exp(-0.5 * near * near))
        assert e.size == w.size == m
        r = candidate_radius(sigma, near, e)
        assert np.all(r >= sigma * near)
        assert got == np.count_nonzero(polar_power(los, sigma, r, w) < threshold)


class TestEstimateOutage:
    def test_deterministic_for_same_spec(self, radio, table1_budget):
        split = PowerSplit.from_alpha(0.5, radio.total_power_w)
        spec = SimSpec(trials=250_000, seed=31, chunk_size=64_000)
        first = estimate_outage(table1_budget, split, radio, spec)
        second = estimate_outage(table1_budget, split, radio, spec)
        assert first.p_hat == second.p_hat
        assert first.std_err == second.std_err

    def test_chunk_order_invariance(self, radio, table1_budget):
        # The estimate against a tally of its chunks in reverse order; the
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
            (1e-300, 0.25, [1, 20_000, 20_000, 1, 21, 21, 1]),
        ],
        ids=["zero-bs", "zero-uav", "underflow-bs", "underflow-uav", "tiny-bs"],
    )
    def test_powerless_hop_is_full_outage(self, radio, table1_budget, streams, p_s, p_u, sizes):
        # A hop whose P * G is 0 (here also from an underflowing product) is
        # in outage in every trial without a draw. A tiny positive P * G
        # gives a threshold near 1e296: every trial a candidate and an event.
        # Hop ud then draws its 21 candidates, and the overlap is drawn last.
        assert _chunk_events(table1_budget, PowerSplit(p_s, p_u), radio, 5, 0, 20_000) == 20_000
        assert [result.size for _, _, result in streams[0].draws] == sizes

    def test_reference_draw_counts(self, radio, table1_budget, streams):
        # Reference scenario at alpha = 0.5, seed 2024, one chunk of 1e5: per
        # hop, the candidate count, where the radius alone can reach below
        # the hop's threshold, then one exponential and one phase uniform per
        # candidate; then one overlap draw. No draw has one value per trial.
        count = 100_000
        split = PowerSplit.from_alpha(0.5, radio.total_power_w)
        events = _chunk_events(table1_budget, split, radio, 2024, 0, count)
        draws = streams[0].draws
        assert [name for name, _, _ in draws] == [
            "binomial", "standard_exponential", "random",
        ] * 2 + ["hypergeometric"]
        assert all(result.size < count for _, _, result in draws)
        threshold = snr_threshold(radio.rate) * radio.noise_power_w
        hops = (
            (table1_budget.k_su, split.p_s * table1_budget.g_su),
            (table1_budget.k_ud, split.p_u * table1_budget.g_ud),
        )
        candidates = []
        for i, ((k, received), (m, e, w)) in enumerate(zip(hops, hop_draws(draws))):
            near = polar_screen(k, threshold / received)[2]
            assert draws[3 * i][1] == (count, math.exp(-0.5 * near * near))
            assert e.size == w.size == m
            candidates.append(int(m))
        assert candidates == [20, 441]
        assert events == 21
        assert max(candidates) < 500  # below 0.5% of the trials on each hop

    @pytest.mark.parametrize("rate", [0.5, 1.0, 2.0])
    def test_threshold_event_equals_capacity_shortfall(self, table1_budget, rate):
        # capacity() is the reference definition of the outage event; the
        # chunk tally compares fading power with the SNR threshold instead.
        # The same draws are rebuilt here: per hop, the candidate count, then
        # an exponential and a phase uniform per candidate; then the overlap.
        # A trial left out has a radius below sigma * near, so its power is
        # above (sigma * near - los)^2, which must not fall short on its own.
        # alpha 0 and 1 leave one hop without power.
        radio = make_radio(rate=rate)
        noise = radio.noise_power_w
        count = 50_000
        for alpha in (0.0, 0.3, 0.7, 1.0):
            split = PowerSplit.from_alpha(alpha, radio.total_power_w)
            for seed in (3, 4, 5):
                rng = _chunk_rng(seed, 1)
                events = []
                for k, power, gain in (
                    (table1_budget.k_su, split.p_s, table1_budget.g_su),
                    (table1_budget.k_ud, split.p_u, table1_budget.g_ud),
                ):
                    received = power * gain
                    threshold = snr_threshold(rate) * noise / received if received else math.inf
                    los, sigma, near = polar_screen(k, threshold)
                    if near > 0.0:
                        assert capacity(power, gain, (sigma * near - los) ** 2, noise) >= rate
                    m = rng.binomial(count, math.exp(-0.5 * near * near))
                    r = candidate_radius(sigma, near, rng.standard_exponential(m))
                    fading = polar_power(los, sigma, r, rng.random(m))
                    events.append(int(np.count_nonzero(capacity(power, gain, fading, noise) < rate)))
                k_su, k_ud = events
                expected = k_su + k_ud - rng.hypergeometric(k_su, count - k_su, k_ud)
                got = _chunk_events(table1_budget, split, radio, seed, 1, count)
                assert got == expected

    def test_chunk_tally_law(self, radio):
        # The chunk tally against Binomial(count, 1 - (1 - p_su)(1 - p_ud)),
        # with each hop's p from ncx2: the total over 400 chunks of 1e4, and
        # the chunks' dispersion about the binomial mean (chi-square with 400
        # degrees of freedom). Hop su (K = 0 dB) has p ~ 0.35 with every
        # trial a candidate, and hop ud (K = 10 dB) p ~ 0.02 behind a screen
        # that keeps ~16% of the trials, so a wrong overlap moves the mean by
        # ~0.007 per trial. The gate |z| <= 5 on both was set before the
        # first run.
        threshold = snr_threshold(radio.rate) * radio.noise_power_w
        split = PowerSplit.from_alpha(0.5, radio.total_power_w)
        budget = LinkBudget(
            g_su=threshold / (split.p_s * 0.5), g_ud=threshold / (split.p_u * 0.3), k_su=1.0, k_ud=10.0
        )
        p_su, p_ud = (
            ncx2.cdf(2.0 * (k + 1.0) * threshold / (power * gain), 2, 2.0 * k)
            for k, power, gain in ((1.0, split.p_s, budget.g_su), (10.0, split.p_u, budget.g_ud))
        )
        p = 1.0 - (1.0 - p_su) * (1.0 - p_ud)
        chunks, count = 400, 10_000
        tallies = np.array([_chunk_events(budget, split, radio, 2718, i, count) for i in range(chunks)])
        variance = count * p * (1.0 - p)
        assert abs(tallies.sum() - chunks * count * p) / math.sqrt(chunks * variance) <= 5.0
        dispersion = np.sum((tallies - count * p) ** 2) / variance
        assert abs(dispersion - chunks) / math.sqrt(2.0 * chunks) <= 5.0

    def test_chunks_past_the_overlap_limit(self, table1_budget, tmp_path, capsys):
        # numpy draws the hypergeometric overlap of a chunk only below 1e9
        # trials, so a chunk of 2e9 is refused: by SimSpec, and through the
        # CLI as exit 2 with one line and no output. 2e9 trials still run in
        # chunks just below the limit, on a split where each hop fails about
        # once in 1e8 trials, in memory for their ~5e-5 candidates per trial
        # (~0.9 MB here), far from one byte per trial of a chunk.
        trials = 2 * 10**9
        with pytest.raises(ValueError):
            SimSpec(trials=trials, seed=1, chunk_size=trials)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"sim": {"trials": 10, "seed": 1, "chunk_size": trials}}))
        assert cli.main(["validate", "--scenario", str(path), "--trials", str(trials)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        radio = make_radio(total_power_w=300.0)
        split = PowerSplit.from_alpha(0.1, radio.total_power_w)
        spec = SimSpec(trials=trials, seed=3, chunk_size=10**9 - 1)
        tracemalloc.start()
        try:
            estimate = estimate_outage(table1_budget, split, radio, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**24
        assert 0.0 < estimate.p_hat < 1e-7

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SimSpec(trials=0, seed=1)
        with pytest.raises(ValueError):
            SimSpec(trials=100, seed=1, chunk_size=0)
        with pytest.raises(ValueError):
            SimSpec(trials=100, seed=1, chunk_size=10**9)
        SimSpec(trials=100, seed=1, chunk_size=10**9 - 1)
        with pytest.raises(ValueError):
            SimSpec(trials=100, seed=-1)
        with pytest.raises(ValueError):
            SimSpec(trials=100, seed=2**64)
        with pytest.raises(ValueError):
            OutageEstimate(p_hat=1.2, std_err=0.0, trials=10)

    def test_estimate_rejects_negative_std_err(self):
        with pytest.raises(ValueError, match="standard error must be non-negative"):
            OutageEstimate(p_hat=0.5, std_err=-1e-3, trials=10)
