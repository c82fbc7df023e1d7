"""Seeded Monte Carlo estimator of the relay outage probability.

The simulator draws Rician fading directly from the line-of-sight plus
scatter decomposition rather than inverting any closed-form distribution, so
it stays independent of the Marcum-Q code it validates. The scatter is drawn
in polar form (Box & Muller, Ann. Math. Stat. 29(2), 1958): a Rayleigh radius
from one uniform and a phase from another. A hop can be in outage only where
the radius alone reaches past the line-of-sight amplitude's distance to the
threshold, which is a cut on the radius uniform with no logarithm, so a hop
draws the phase uniform only there: about 2 uniforms per trial over both
hops, with the event and the binomial estimate of the full draw.

Trials are split into fixed-size chunks, each driven by its own PCG64 stream
derived only from (seed, chunk index); the event tally is an integer sum, so
the estimate is bit-identical no matter how the chunks are scheduled. Chunks
run on up to one thread per usable CPU: numpy releases the interpreter lock
while it fills the uniforms, so the threads sample concurrently.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .channel import LinkBudget, RadioConfig
from .outage import PowerSplit, snr_threshold

__all__ = ["SimSpec", "OutageEstimate", "estimate_outage"]


@dataclass(frozen=True)
class SimSpec:
    """Trial count, stream seed, and trials per deterministic sub-stream.

    Acceptance-grade runs should use at least 10_000 trials; smaller counts
    are allowed for smoke tests.
    """

    trials: int
    seed: int
    chunk_size: int = 100_000

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")


@dataclass(frozen=True)
class OutageEstimate:
    """Outage frequency with its binomial standard error."""

    p_hat: float
    std_err: float
    trials: int

    def __post_init__(self):
        if not 0.0 <= self.p_hat <= 1.0:
            raise ValueError("estimate must be a probability")
        if self.std_err < 0.0:
            raise ValueError("standard error must be non-negative")


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    """Stream for one chunk, a pure function of (seed, chunk_index)."""
    sequence = np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,))
    return np.random.Generator(np.random.PCG64(sequence))


def _chunk_events(
    budget: LinkBudget,
    split: PowerSplit,
    radio: RadioConfig,
    seed: int,
    chunk_index: int,
    count: int,
) -> int:
    """Outage event count for one chunk of ``count`` trials.

    A hop is in outage when P * G * |h|^2 < snr_threshold(R) * N0, the
    capacity shortfall 0.5 * log2(1 + P * G * |h|^2 / N0) < R without the
    logarithm. A hop whose P * G is 0, or underflows to 0, is in outage in
    every trial, and then the chunk draws nothing. Otherwise hop su draws
    from the chunk's stream before hop ud, both in one scratch array: one
    large allocation per chunk, where an array per hop lets the allocator's
    heap creep up over a run of chunks.
    """
    rng = _chunk_rng(seed, chunk_index)
    threshold = snr_threshold(radio.rate) * radio.noise_power_w
    hops = ((budget.k_su, split.p_s * budget.g_su), (budget.k_ud, split.p_u * budget.g_ud))
    if any(received == 0.0 for _, received in hops):
        return count
    outage = np.zeros(count, dtype=bool)
    power = np.empty(count)
    for k, received in hops:
        outage[_hop_outages(k, threshold / received, rng, power)] = True
    return int(np.count_nonzero(outage))


def _hop_outages(k: float, threshold: float, rng: np.random.Generator, power: np.ndarray) -> np.ndarray:
    """Trial indices, one trial per element of the scratch array ``power``,
    where one hop's unit-mean Rician fading power |h|^2 falls below
    ``threshold``.

    h = los + r e^{i theta}, with los = sqrt(k / (k+1)), a Rayleigh radius
    r = sigma sqrt(-2 log(1 - U)), 2 sigma^2 = 1 / (k+1) and theta = 2 pi W
    for uniforms U and W, so E[|h|^2] = 1. As
    |h|^2 = (r - los)^2 + 4 los r cos^2(pi W) >= (r - los)^2, only trials whose
    radius exceeds los - sqrt(threshold) can be in outage, which is U >= cut
    for cut = 1 - exp(-near^2 / 2) with near = (los - sqrt(threshold)) / sigma.
    So that rounding cannot screen out a trial that the float event would
    count, the distance is shortened by 2^-50, at least 8 units in the last
    place of los < 1, and the cut is lowered by a relative 1e-9.

    The hop draws one U per trial into ``power``, then one W per candidate
    into the head of ``power``, whose U are spent by then. U lies on a
    lattice of 2^-53, so a hop whose outage probability is below about
    1.1e-16 per trial shows no events.
    """
    los = math.sqrt(k / (k + 1.0))
    sigma = math.sqrt(0.5 / (k + 1.0))
    near = max(los - math.sqrt(threshold) - 2.0**-50, 0.0) / sigma
    cut = -math.expm1(-0.5 * near * near) * (1.0 - 1e-9)
    rng.random(out=power)
    candidates = np.flatnonzero(power >= cut)
    radius = power[candidates]
    np.negative(radius, out=radius)
    np.log1p(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    radius *= sigma
    cosine = rng.random(out=power[: candidates.size])
    cosine *= math.pi
    np.cos(cosine, out=cosine)
    cosine *= cosine
    cosine *= 4.0 * los
    cosine *= radius
    radius -= los
    radius *= radius
    radius += cosine
    return candidates[radius < threshold]


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def estimate_outage(
    budget: LinkBudget, split: PowerSplit, radio: RadioConfig, spec: SimSpec
) -> OutageEstimate:
    """Estimate the end-to-end outage by counting per-hop threshold shortfalls.

    Per trial, both hops draw independent fading and the outage event is
    either hop's received SNR falling strictly below snr_threshold(rate),
    which is the capacity shortfall min(C_su, C_ud) < rate. Worker w of W
    tallies chunks w, w + W, ...; the result depends only on
    (seed, trials, chunk_size), not on W.
    """
    from concurrent.futures import ThreadPoolExecutor  # only validation pays for the import

    chunks = -(-spec.trials // spec.chunk_size)
    workers = min(chunks, _usable_cpus())

    def worker_events(first: int) -> int:
        events = 0
        for index in range(first, chunks, workers):
            count = min(spec.chunk_size, spec.trials - index * spec.chunk_size)
            events += _chunk_events(budget, split, radio, spec.seed, index, count)
        return events

    with ThreadPoolExecutor(max_workers=workers) as pool:
        events = sum(pool.map(worker_events, range(workers)))
    p_hat = events / spec.trials
    std_err = math.sqrt(p_hat * (1.0 - p_hat) / spec.trials)
    return OutageEstimate(p_hat=p_hat, std_err=std_err, trials=spec.trials)
