"""Closed-form outage probability of the two-hop decode-and-forward link.

A hop is in outage when its instantaneous capacity falls below the target
rate; with decode-and-forward the end-to-end capacity is the minimum of the
hop capacities, so under independent fading the link survival probability is
the product of the per-hop Marcum Q terms. Their scalar evaluator,
``_link_terms``, feeds the end-to-end outage and every optimizer row, slope
and gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channel import LinkBudget, RadioConfig
from .specfun import _LOG_MAX, _log_marcum, _marcum_q1_complement

__all__ = [
    "PowerSplit",
    "snr_threshold",
    "hop_outage",
    "end_to_end_outage",
    "end_to_end_outage_grid",
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


def snr_threshold(rate: float) -> float:
    """Outage SNR threshold 2^(2R) - 1 for rate R in bits/s/Hz.

    The exponent carries the half pre-log of the two-phase relay protocol.
    """
    if rate <= 0.0:
        raise ValueError("rate must be positive")
    return 2.0 ** (2.0 * rate) - 1.0


def _hop_args(k: float, mean_snr: float, rate: float) -> tuple[float, float]:
    """(a, b) = (sqrt(2K), sqrt(2(K + 1) gamma_th / mean_snr)) of a Rician hop's
    survival Q_1(a, b), with gamma_th = snr_threshold(rate).

    A zero mean SNR, from a zero power or one so small that it underflows, is
    b = inf: certain outage. The array form is ``_arrays._grid_args``.
    """
    if mean_snr == 0.0:
        return math.sqrt(2.0 * k), math.inf
    return math.sqrt(2.0 * k), math.sqrt(2.0 * (k + 1.0) * (snr_threshold(rate) / mean_snr))


def _link_args(budget: LinkBudget, radio: RadioConfig, p_s: float, p_u: float) -> list[tuple[float, float]]:
    """``_hop_args`` of both hops at the mean SNRs p G / N_0 of the powers
    ``p_s`` and ``p_u``."""
    noise = radio.noise_power_w
    hops = ((budget.k_su, budget.g_su, p_s), (budget.k_ud, budget.g_ud, p_u))
    return [_hop_args(k, p * g / noise, radio.rate) for k, g, p in hops]


def hop_outage(k: float, mean_snr: float, rate: float) -> float:
    """Outage probability of a single Rician hop at a positive mean SNR.

    Returns 1 - Q_1(a, b) with a and b from ``_hop_args``, where mean_snr is
    the average received SNR (linear, a float). The complement is evaluated
    directly by the Marcum quadrature, in log space, so small outages keep
    full relative accuracy instead of dying in the subtraction from 1.
    """
    if k <= 0.0:
        raise ValueError("Rician factor must be positive")
    if mean_snr <= 0.0:
        raise ValueError("mean SNR must be positive")
    return _marcum_q1_complement(*_hop_args(k, mean_snr, rate))


def end_to_end_outage(budget: LinkBudget, split: PowerSplit, radio: RadioConfig) -> float:
    """Outage probability of the relay link: 1 - (1 - out_su)(1 - out_ud).

    Hop fading is independent, so this equals the probability that the
    smaller of the two hop capacities drops below the rate. A hop with
    b = inf (``_hop_args``), as from a zero power, is a degenerate full
    outage, returned as exactly 1, not an error, so optimizer line searches
    can probe the boundary safely.
    """
    return _link_outage(_link_terms(budget, radio, split.p_s, split.p_u))


def _link_outage(terms) -> float:
    """The link's outage 1 - (1 - out_su)(1 - out_ud) from both hops'
    ``_link_terms``, with out = 1 - Q_1(a, b) of each hop.

    A hop with b = inf gives exactly 1, which the sum below need not round to.
    """
    (_, b_su, _, log_out_su, _, _), (_, b_ud, _, log_out_ud, _, _) = terms
    if b_su == math.inf or b_ud == math.inf:
        return 1.0
    out_su, out_ud = math.exp(log_out_su), math.exp(log_out_ud)
    # Same quantity as 1 - (1 - out_su)(1 - out_ud), arranged so small
    # outages are not rounded away against the leading 1.
    return out_su + out_ud - out_su * out_ud


def _link_terms(budget: LinkBudget, radio: RadioConfig, p_s: float, p_u: float) -> list[tuple[float, ...]]:
    """(a, b, log Q_1(a, b), log(1 - Q_1(a, b)), L, dL/d(log b)) of each hop at
    the powers ``p_s`` and ``p_u``, with (a, b) from ``_link_args`` and
    L = log(hazard * b), all from one ``_log_marcum`` call per hop.

    Hop i survives with Q_1(a_i, b_i). b_i scales as 1/sqrt(p_i), so
    d(log Q_1)/d(p_i) = hazard_i * b_i / (2 p_i), with the hazard
    h = -dQ_1/db / Q_1 = b exp(-(a - b)^2/2) I_0e(ab) / Q_1.
    So L = 2 log b - (a - b)^2/2 + log I_0e(ab) - log Q_1, and with
    d log I_0e(x)/dx = I_1(x)/I_0(x) - 1,
    b dL/db = 2 + b (a - b) + ab (I_1/I_0 - 1) + h b; ``_log_marcum`` gives
    both Bessel terms. Where b > a, -(a - b)^2/2 - log Q_1 would be the
    difference of two terms of size (a - b)^2/2, rounding noise where they
    are large, so L takes log Q_1 + (a - b)^2/2 as the kernel's log of its
    sum before the shift. The logs stay finite where Q_1 underflows. The
    hazard is inf where Q_1 is 0 (b = inf), and 0 where b is 0, from a mean
    SNR that overflows; the derivative is NaN at both. It is NaN too where
    L passes the log of the largest double, where h b overflows.
    """
    terms = []
    for a, b in _link_args(budget, radio, p_s, p_u):
        log_q, log_out, log_i0e, ratio, log_sum = _log_marcum(a, b)
        if log_q == -math.inf:
            log_hb, elastic = math.inf, math.nan
        elif b == 0.0:
            log_hb, elastic = -math.inf, math.nan
        else:
            if b > a:
                log_hb = 2.0 * math.log(b) + log_i0e - log_sum
            else:
                log_hb = 2.0 * math.log(b) - 0.5 * (a - b) ** 2 + log_i0e - log_q
            elastic = math.nan if log_hb > _LOG_MAX else 2.0 + b * (a - b) + a * b * (ratio - 1.0) + math.exp(log_hb)
        terms.append((a, b, log_q, log_out, log_hb, elastic))
    return terms


def _saturated(budget: LinkBudget, radio: RadioConfig, p_s: float, p_u: float) -> bool:
    """Whether a hop is in outage with probability 1 at the powers ``p_s``
    and ``p_u``. A hop with b <= a needs no Marcum call, as
    Q_1(a, b) >= Q_1(a, a) = (1 + e^(-a^2) I_0(a^2))/2 > 1/2 there
    (Simon & Alouini, IEEE TCOM 46(12), 1998); a NaN fails b <= a, so it
    still reaches the kernel's ValueError.
    """
    return any(not b <= a and math.exp(_log_marcum(a, b)[1]) == 1.0 for a, b in _link_args(budget, radio, p_s, p_u))


def end_to_end_outage_grid(budget: LinkBudget, alphas: list[float], radio: RadioConfig) -> list[float]:
    """``end_to_end_outage`` at the split ``PowerSplit.from_alpha(alpha, P_t)``
    of each allocation factor in ``alphas``. Each hop's outages are one call of
    the array form of the same quadrature, ``_arrays._complement_quadrature``;
    numpy is loaded on the first call.

    The factors must lie in [0, 1]; the total power is ``radio.total_power_w``.
    """
    from ._arrays import _outage_grid

    return _outage_grid(budget, alphas, radio).tolist()
