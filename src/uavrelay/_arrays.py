"""The array paths of the package: the alpha-grid Marcum kernel and the Monte
Carlo sampler.

This is the only module that imports numpy. ``outage.end_to_end_outage_grid``
and ``mcsim.estimate_outage`` import it when first called, so the commands
that make only scalar calls (``solve``, ``sweep-power``) never load numpy.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import LinkBudget, RadioConfig
from .outage import PowerSplit, snr_threshold
from .specfun import _MAX_KAPPA, _NODES, _WHOLE_KAPPA, _WHOLE_NODES, _WHOLE_STEP

# The whole-period nodes of ``specfun``, as an array, and the node offsets
# (j + 1/2) / 2 of a window's table.
_WHOLE_T = np.array(_WHOLE_NODES)
_HALF_J = (np.arange(_NODES) + 0.5) / 2.0
# Rows per ``_complement_rows`` call: a (rows, _NODES) float block then takes
# 48 KB, below glibc's 128 KB mmap threshold, so its pages are reused from
# one block and one request to the next instead of faulting in again.
_ROW_BLOCK = 256


# -- the alpha-grid Marcum kernel ---------------------------------------------


@np.errstate(all="ignore")  # pytest turns RuntimeWarning into an error; inf and NaN are masked here
def _complement_quadrature(a: float, b: np.ndarray) -> np.ndarray:
    """1 - Q_1(a, b) at every entry of ``b``, by the rule of
    ``specfun._log_marcum`` (its nodes, pole share and rearrangements) in
    numpy blocks.

    The rows are split once into four groups, whole period or window and
    b > a or not, and ``_complement_rows`` evaluates each group's one
    weight and one integrand in blocks of at most ``_ROW_BLOCK`` rows; the
    pole share is formed only on the rows that meet its condition. A row's
    result depends on no other row of the array: it agrees to the bit with
    the same threshold taken alone.

    Against mpmath the result is within 5e-13 relative for a up to 632,
    down to 1e-300 and for |a - b| down to 1e-12 a. It is clamped to [0, 1],
    because a sum of weights can round to one ulp above 1; b = 0 gives 0,
    b = inf gives 1, and a*b beyond ``_MAX_KAPPA`` gives the limit of
    ``specfun._far_log_marcum``: 1 where b > a, 0 where b < a and 1/2 where
    b = a. A negative or NaN entry raises ValueError.
    """
    if not (a >= 0.0 and np.all(b >= 0.0)):
        raise ValueError("Marcum Q arguments must be non-negative")
    kappa = a * b
    whole, above = kappa <= _WHOLE_KAPPA, b > a
    out = np.empty(b.shape)
    for rows_whole in (True, False):
        for rows_above in (True, False):
            rows = np.flatnonzero((whole == rows_whole) & (above == rows_above))
            for start in range(0, rows.size, _ROW_BLOCK):
                block = rows[start : start + _ROW_BLOCK]
                out[block] = _complement_rows(a, b[block], rows_whole, rows_above)
    out = np.where(kappa > _MAX_KAPPA, 0.5 + 0.5 * np.sign(b - a), out)
    out = np.where(b == 0.0, 0.0, np.where(b == math.inf, 1.0, out))
    return np.clip(out, 0.0, 1.0)


def _complement_rows(a: float, b: np.ndarray, whole: bool, above: bool) -> np.ndarray:
    """``_complement_quadrature`` before its limits and clamp, on rows that
    share one branch: the whole period (kappa <= ``_WHOLE_KAPPA``) or a
    window, and b > a or not. Whole-period rows share the node table
    ``_WHOLE_T``; window rows form their own. Each row is one row of a
    C-contiguous (rows, ``_NODES``) block, so its sum adds the nodes in one
    fixed order.

    The (rows, ``_NODES``) intermediates are formed in place, in three
    buffers: the window's node table, the weight and the integrand. Each
    rounding step is the one of the plain expressions in the comments, up
    to exact steps (a halving, a negation, the order of a sum of two or a
    product of two).
    """
    s, low = np.maximum(a, b), np.minimum(a, b)
    zeta = (low / s)[:, None]
    r = ((s - low) / s)[:, None]  # not 1 - zeta, which would lose r's digits as b nears a
    kappa = a * b
    gap = 0.5 * (a - b) ** 2
    if whole:
        step, t = np.full(b.size, _WHOLE_STEP), _WHOLE_T
    else:
        step = 2.0 * np.arcsin(np.sqrt(_WHOLE_KAPPA / kappa)) / _NODES
        t = np.multiply(step[:, None], _HALF_J)  # t = sin(step (j + 1/2) / 2)^2
        np.sin(t, out=t)
        t *= t
    # weight = (r + 2 zeta t) / (r^2 + 4 zeta t) where b > a, else zeta (r - 2 t) / (r^2 + 4 zeta t)
    denominator = np.multiply(4.0 * zeta, t)
    denominator += r * r
    weight = np.multiply(2.0 * zeta if above else -2.0, t, out=np.empty_like(denominator))
    weight += r
    if not above:
        weight *= zeta
    weight /= denominator
    # integrand = exp(-decay) on a window; on the whole period -expm1(-gap - decay)
    # where b > a, else exp(-kappa) expm1(kappa - decay); decay = 2 kappa t
    integrand = np.multiply((-2.0 * kappa)[:, None], t, out=denominator)
    if not whole:
        np.exp(integrand, out=integrand)
    elif above:
        integrand -= gap[:, None]
        np.expm1(integrand, out=integrand)
        np.negative(integrand, out=integrand)
    else:
        integrand += kappa[:, None]
        np.expm1(integrand, out=integrand)
        integrand *= np.exp(-kappa)[:, None]
    weight *= integrand
    total = weight.sum(axis=1) * (step / math.pi)
    if whole and above:  # 1 - Q_1 itself, with no pole; through its log, as the other groups
        return np.exp(np.log(total))
    pole = (s * s - low * low) * step < 4.0 * math.pi
    share = np.exp(gap[pole]) / (np.exp(2.0 * math.pi * np.log(s[pole] / low[pole]) / step[pole]) + 1.0)
    if whole:
        share *= -np.expm1(-0.5 * (a * a + b[pole] * b[pole]))
    total[pole] += share
    log_small = np.log(total) - gap
    return -np.expm1(log_small) if above and not whole else np.exp(log_small)


@np.errstate(over="ignore", divide="ignore")  # an overflow is inf, and a zero SNR gives b = inf, as for floats
def _grid_args(budget: LinkBudget, radio: RadioConfig, alpha: np.ndarray) -> list[tuple[float, np.ndarray]]:
    """``outage._link_args`` at the split of each allocation factor in
    ``alpha``: each hop's a, and its b as an array, entry by entry the float
    arithmetic of ``outage._hop_args``."""
    total, noise, threshold = radio.total_power_w, radio.noise_power_w, snr_threshold(radio.rate)
    hops = ((budget.k_su, budget.g_su, alpha * total), (budget.k_ud, budget.g_ud, (1.0 - alpha) * total))
    return [(math.sqrt(2.0 * k), np.sqrt(2.0 * (k + 1.0) * (threshold / (p * g / noise)))) for k, g, p in hops]


def _outage_grid(budget: LinkBudget, alphas: list[float], radio: RadioConfig) -> list[float]:
    """The body of ``outage.end_to_end_outage_grid``: each hop's outages are
    one ``_complement_quadrature`` call, which already clamps."""
    alpha = np.asarray(alphas, dtype=float)
    if not np.all((alpha >= 0.0) & (alpha <= 1.0)):
        raise ValueError("allocation factor must lie in [0, 1]")
    (a_su, b_su), (a_ud, b_ud) = _grid_args(budget, radio, alpha)
    out_su = _complement_quadrature(a_su, b_su)
    out_ud = _complement_quadrature(a_ud, b_ud)
    return np.where((b_su == math.inf) | (b_ud == math.inf), 1.0, out_su + out_ud - out_su * out_ud).tolist()


# -- the Monte Carlo sampler --------------------------------------------------


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
