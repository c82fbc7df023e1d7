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
The sampler itself, which draws with numpy, lives in ``_arrays``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channel import LinkBudget, RadioConfig
from .outage import PowerSplit

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
    from ._arrays import _chunk_events

    events = sum(
        _chunk_events(budget, split, radio, spec.seed, index, min(spec.chunk_size, spec.trials - start))
        for index, start in enumerate(range(0, spec.trials, spec.chunk_size))
    )
    p_hat = events / spec.trials
    std_err = math.sqrt(p_hat * (1.0 - p_hat) / spec.trials)
    return OutageEstimate(p_hat=p_hat, std_err=std_err, trials=spec.trials)
