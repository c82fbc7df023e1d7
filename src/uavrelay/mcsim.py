"""Seeded Monte Carlo estimator of the relay outage probability.

The simulator draws Rician fading directly from the line-of-sight plus
scatter decomposition rather than inverting any closed-form distribution, so
it stays independent of the Marcum-Q code it validates. The scatter is drawn
in polar form (Box & Muller, Ann. Math. Stat. 29(2), 1958): a Rayleigh radius
and a uniform phase. A hop can be in outage only where the radius alone
reaches past the line-of-sight amplitude's distance to the threshold, so a
hop draws only those candidate trials: their count from a binomial, and
their radius exactly from the memoryless exponential r^2 / 2 sigma^2
(Devroye, Non-Uniform Random Variate Generation, 1986). The cost follows the
candidates, not the trials, and the estimate has the law of the full draw.

Trials are split into fixed-size chunks, each driven by its own PCG64 stream
derived only from (seed, chunk index); the event tally is an integer sum, so
the estimate is bit-identical no matter the order the chunks are tallied in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import LinkBudget, RadioConfig
from .outage import PowerSplit, snr_threshold

__all__ = ["SimSpec", "OutageEstimate", "estimate_outage"]

# numpy's hypergeometric draw, which places one hop's events among the
# other's, takes populations below 10**9 only.
_MAX_CHUNK = 10**9


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
        if not 1 <= self.chunk_size < _MAX_CHUNK:
            raise ValueError(f"chunk_size must lie in [1, {_MAX_CHUNK})")
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
    from the chunk's stream before hop ud. Each hop's events fall on a
    uniformly random set of the chunk's trials, independent of the other
    hop's, so the trials in outage on both hops are a hypergeometric overlap
    H and the tally k_su + k_ud - H is Binomial(count, 1 - (1 - p_su)(1 - p_ud)).
    """
    rng = _chunk_rng(seed, chunk_index)
    threshold = snr_threshold(radio.rate) * radio.noise_power_w
    hops = ((budget.k_su, split.p_s * budget.g_su), (budget.k_ud, split.p_u * budget.g_ud))
    if any(received == 0.0 for _, received in hops):
        return count
    k_su, k_ud = (_hop_events(k, threshold / received, count, rng) for k, received in hops)
    return k_su + k_ud - int(rng.hypergeometric(k_su, count - k_su, k_ud))


def _hop_events(k: float, threshold: float, count: int, rng: np.random.Generator) -> int:
    """Number of ``count`` trials in which one hop's unit-mean Rician fading
    power |h|^2 falls below ``threshold``.

    h = los + r e^{i theta}, with los = sqrt(k / (k+1)), r^2 / 2 sigma^2
    standard exponential, 2 sigma^2 = 1 / (k+1) and theta = 2 pi W for a
    uniform W, so E[|h|^2] = 1. As |h|^2 = (r - los)^2 + 4 los r cos^2(pi W)
    >= (r - los)^2, only trials whose radius reaches sigma * near, with
    near = (los - sqrt(threshold)) / sigma, can be in outage. So that
    rounding cannot screen out a trial that the float event would count,
    the distance is shortened by 2^-50, at least 8 units in the last place
    of los < 1.

    The hop draws the number of such candidates, Binomial(count,
    exp(-near^2 / 2)), then for each candidate an exponential E, which gives
    the radius sigma sqrt(near^2 + 2 E) of a trial conditioned on reaching
    sigma * near, and a phase uniform W.
    """
    los = math.sqrt(k / (k + 1.0))
    sigma = math.sqrt(0.5 / (k + 1.0))
    near = max(los - math.sqrt(threshold) - 2.0**-50, 0.0) / sigma
    radius = rng.standard_exponential(rng.binomial(count, math.exp(-0.5 * near * near)))
    radius *= 2.0
    radius += near * near
    np.sqrt(radius, out=radius)
    radius *= sigma
    cosine = rng.random(radius.size)
    cosine *= math.pi
    np.cos(cosine, out=cosine)
    cosine *= cosine
    cosine *= 4.0 * los
    cosine *= radius
    radius -= los
    radius *= radius
    radius += cosine
    return int(np.count_nonzero(radius < threshold))


def estimate_outage(
    budget: LinkBudget, split: PowerSplit, radio: RadioConfig, spec: SimSpec
) -> OutageEstimate:
    """Estimate the end-to-end outage by counting per-hop threshold shortfalls.

    Per trial, both hops draw independent fading and the outage event is
    either hop's received SNR falling strictly below snr_threshold(rate),
    which is the capacity shortfall min(C_su, C_ud) < rate. Chunks are
    tallied one after another; the result depends only on
    (seed, trials, chunk_size).
    """
    events = sum(
        _chunk_events(budget, split, radio, spec.seed, index, min(spec.chunk_size, spec.trials - start))
        for index, start in enumerate(range(0, spec.trials, spec.chunk_size))
    )
    p_hat = events / spec.trials
    std_err = math.sqrt(p_hat * (1.0 - p_hat) / spec.trials)
    return OutageEstimate(p_hat=p_hat, std_err=std_err, trials=spec.trials)
