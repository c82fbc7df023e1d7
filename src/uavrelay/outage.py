"""Closed-form outage probability of the two-hop decode-and-forward link.

A hop is in outage when its instantaneous capacity falls below the target
rate; with decode-and-forward the end-to-end capacity is the minimum of the
hop capacities, so under independent fading the link survival probability is
the product of the per-hop Marcum Q terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .channel import LinkBudget, RadioConfig
from .specfun import _marcum_q1_complement

__all__ = [
    "PowerSplit",
    "snr_threshold",
    "hop_outage",
    "end_to_end_outage",
    "end_to_end_outage_grid",
    "hop_capacity",
]


@dataclass(frozen=True)
class PowerSplit:
    """Transmit powers in watts: p_s at the base station, p_u at the relay."""

    p_s: float
    p_u: float

    def __post_init__(self):
        if self.p_s < 0.0 or self.p_u < 0.0:
            raise ValueError("transmit powers must be non-negative")

    @classmethod
    def from_alpha(cls, alpha: float, total_power_w: float) -> "PowerSplit":
        """Budget-constrained split: p_s = alpha * P_t, p_u = (1 - alpha) * P_t."""
        if not 0.0 <= alpha <= 1.0:
            raise ValueError("allocation factor must lie in [0, 1]")
        if total_power_w <= 0.0:
            raise ValueError("total power must be positive")
        return cls(p_s=alpha * total_power_w, p_u=(1.0 - alpha) * total_power_w)

    @property
    def total(self) -> float:
        return self.p_s + self.p_u

    @property
    def alpha(self) -> float:
        if self.total == 0.0:
            raise ValueError("allocation factor undefined for an all-zero split")
        return self.p_s / self.total


def snr_threshold(rate: float) -> float:
    """Outage SNR threshold 2^(2R) - 1 for rate R in bits/s/Hz.

    The exponent carries the half pre-log of the two-phase relay protocol.
    """
    if rate <= 0.0:
        raise ValueError("rate must be positive")
    return 2.0 ** (2.0 * rate) - 1.0


def hop_outage(k: float, mean_snr: float, rate: float) -> float:
    """Outage probability of a single Rician hop.

    Returns 1 - Q_1(sqrt(2K), sqrt(2(K+1) * gamma_th / mean_snr)) where
    gamma_th = snr_threshold(rate) and mean_snr is the average received SNR
    (linear). The complement is evaluated directly by its own positive
    series, so small outages keep full relative accuracy instead of dying in
    the subtraction from 1.

    ``mean_snr`` may be a 1-D numpy array; the outages, one per entry, are
    then evaluated in one batched Marcum call and equal the scalar results
    bit for bit.
    """
    if k <= 0.0:
        raise ValueError("Rician factor must be positive")
    if isinstance(mean_snr, np.ndarray):
        if np.any(mean_snr <= 0.0):
            raise ValueError("mean SNR must be positive")
        with np.errstate(over="ignore"):  # an overflow is inf, as in the scalar arithmetic
            b = np.sqrt(2.0 * (k + 1.0) * (snr_threshold(rate) / mean_snr))
        # Called through the module attribute, which per-call instrumentation
        # of the scalar entry points leaves alone; the kernel already clamps.
        return specfun._marcum_q1_complement(math.sqrt(2.0 * k), b)
    if mean_snr <= 0.0:
        raise ValueError("mean SNR must be positive")
    gamma = snr_threshold(rate) / mean_snr
    return _marcum_q1_complement(math.sqrt(2.0 * k), math.sqrt(2.0 * (k + 1.0) * gamma))


def end_to_end_outage(budget: LinkBudget, split: PowerSplit, radio: RadioConfig) -> float:
    """Outage probability of the relay link: 1 - (1 - out_su)(1 - out_ud).

    Hop fading is independent, so this equals the probability that the
    smaller of the two hop capacities drops below the rate. A zero mean SNR
    on either hop, from a zero power or one so small that the SNR underflows,
    is a degenerate full outage (returned as 1, not an error) so optimizer
    line searches can probe the boundary safely.
    """
    noise = radio.noise_power_w
    snr_su = split.p_s * budget.g_su / noise
    snr_ud = split.p_u * budget.g_ud / noise
    if snr_su == 0.0 or snr_ud == 0.0:
        return 1.0
    out_su = hop_outage(budget.k_su, snr_su, radio.rate)
    out_ud = hop_outage(budget.k_ud, snr_ud, radio.rate)
    # Same quantity as 1 - (1 - out_su)(1 - out_ud), arranged so small
    # outages are not rounded away against the leading 1.
    return out_su + out_ud - out_su * out_ud


def end_to_end_outage_grid(budget: LinkBudget, alphas: list[float], radio: RadioConfig) -> list[float]:
    """``end_to_end_outage`` at the split ``PowerSplit.from_alpha(alpha, P_t)``
    of each allocation factor in ``alphas``, bit for bit, with each hop
    evaluated in one batched call.

    The factors must lie in [0, 1]; the total power is ``radio.total_power_w``.
    """
    alpha = np.asarray(alphas, dtype=float)
    if not np.all((alpha >= 0.0) & (alpha <= 1.0)):
        raise ValueError("allocation factor must lie in [0, 1]")
    total = radio.total_power_w
    p_s = alpha * total
    p_u = (1.0 - alpha) * total
    noise = radio.noise_power_w
    with np.errstate(over="ignore"):
        snr_su = p_s * budget.g_su / noise
        snr_ud = p_u * budget.g_ud / noise
    live = (snr_su != 0.0) & (snr_ud != 0.0)
    out = np.ones(alpha.shape)
    out_su = hop_outage(budget.k_su, snr_su[live], radio.rate)
    out_ud = hop_outage(budget.k_ud, snr_ud[live], radio.rate)
    out[live] = out_su + out_ud - out_su * out_ud
    return out.tolist()


def hop_capacity(power, gain, fading_power, noise):
    """Instantaneous hop capacity 0.5 * log2(1 + P * G * |h|^2 / N0) in bits/s/Hz.

    Accepts scalars or numpy arrays for ``fading_power``. It is the reference
    definition of the outage event C < R, which the Monte Carlo simulator
    evaluates as the equivalent threshold test P * G * |h|^2 < snr_threshold(R) * N0.
    """
    if noise <= 0.0:
        raise ValueError("noise power must be positive")
    if power < 0.0 or gain < 0.0:
        raise ValueError("power and gain must be non-negative")
    fading = np.asarray(fading_power, dtype=float)
    if np.any(fading < 0.0):
        raise ValueError("fading power must be non-negative")
    return 0.5 * np.log2(1.0 + power * gain * fading / noise)
