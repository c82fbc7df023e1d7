"""The array paths of the package: the alpha-grid Marcum kernel, the text of
the alpha grid's sweep rows and the Monte Carlo sampler.

This is the only module that imports numpy. ``outage.end_to_end_outage_grid``,
``mcsim.estimate_outage`` and ``cli.cmd_sweep_alpha`` import it when first
called, so the commands that make only scalar calls (``solve``,
``sweep-power``) never load numpy.
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


# -- the alpha grid's sweep rows ----------------------------------------------

# Bytes of the longest "%.12e" cell, "-d.dddddddddddde-ddd"; a shorter cell is
# followed by zero bytes, which no cell's text holds.
_CELL = 20
# The decimal exponents e that ``_format_e12`` forms itself; for each, the
# scale 10^(12 - e) as a factor where 12 - e >= 0, else as a divisor (the
# other is 1), each the correctly rounded float(10**j); and the cell's tail
# "e+dd" or "e+ddd", zero-padded to 8 bytes. The tails, and the four digit
# characters of each integer 0 to 9999, are read as one word each, so that
# each cell's part is one gathered element.
_LOW_E, _HIGH_E = -290, 290
_POWERS = np.array([float(10**j) for j in range(12 - _LOW_E + 1)])
_TIMES = _POWERS[np.maximum(12 - np.arange(_LOW_E, _HIGH_E + 1), 0)]
_OVER = _POWERS[np.maximum(np.arange(_LOW_E, _HIGH_E + 1) - 12, 0)]
_EXPONENT = np.frombuffer(
    "".join(("e%+03d" % e).ljust(8, "\0") for e in range(_LOW_E, _HIGH_E + 1)).encode(), np.uint64
)
# Column j holds digit j of 0 to 9999 in order: each digit for 10^(3 - j)
# integers, a cycle repeated 10^j times.
_DIGITS = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
_GROUPS = np.stack([np.tile(np.repeat(_DIGITS, 10 ** (3 - j)), 10**j) for j in range(4)], axis=1)
_GROUPS = _GROUPS.view(np.uint32)[:, 0]


def _format_e12(x: np.ndarray, out: np.ndarray) -> None:
    """Write ``"%.12e" % v`` for each entry v of the float array ``x`` into
    ``out``, a uint8 array of shape ``x.shape + (_CELL,)``: the cell's text,
    then zero bytes.

    The 13 digits are round(m), m = v 10^(12 - e) with e = floor(log10 v),
    formed as one product or quotient by a correctly rounded power of ten.
    Below 1e13, m is then within 2.3e-3 of its exact value (two roundings of
    at most 2^-53 relative). Where m is at least 0.01 from every
    half-integer and lies in [1e12 + 0.01, 1e13 - 0.51), the exact value
    rounds to the same integer, in [1e12, 1e13), so e and the digits are
    those of the correctly rounded conversion. Every other entry takes
    Python's own ``"%.12e" % v``: near-ties, decade edges, and every v
    outside [1e-290, 1e290] (zeros, negatives, subnormals, NaN and
    infinities).
    """
    fast = (x >= 1e-290) & (x <= 1e290)
    v = np.where(fast, x, 1.0)
    e = np.log10(v)
    np.floor(e, out=e)
    row = np.clip(e - _LOW_E, 0, _HIGH_E - _LOW_E).astype(np.intp)  # log10 may round past either end
    m = v * _TIMES[row]
    m /= _OVER[row]
    digits = np.rint(m)
    exact = fast & (np.abs(m - digits) <= 0.49) & (m >= 1e12 + 0.01) & (m < 1e13 - 0.51)
    lead = np.floor(digits / 1e12)
    digits -= lead * 1e12  # the 12 digits after the point, as an integer
    np.add(lead, ord("0"), out=out[..., 0], casting="unsafe")
    out[..., 1] = ord(".")
    for start, place in ((2, 1e8), (6, 1e4), (10, 1.0)):
        group = np.floor(digits / place)  # exact: digits / place lies at least 1/place below the next integer
        digits -= group * place
        out[..., start : start + 4] = _GROUPS[group.astype(np.intp)][..., None].view(np.uint8)
    out[..., 14:] = _EXPONENT[row][..., None].view(np.uint8)[..., : _CELL - 14]
    slow = ~exact
    cells = (("%.12e" % value).encode().ljust(_CELL, b"\0") for value in x[slow].tolist())
    out[slow] = np.frombuffer(b"".join(cells), np.uint8).reshape(-1, _CELL)


def _grid_rows(prefix: str, alphas: list[float], total: float, outages: list[float]) -> str:
    """The sweep rows ``prefix + cli.SWEEP_CELLS % (alpha, p_s, p_u, outage,
    "grid")`` of an alpha grid, joined by newlines, with p_s = alpha * total
    and p_u = (1 - alpha) * total, the products of ``PowerSplit.from_alpha``.

    The rows are one (rows, width) byte block: the prefix, the four cells of
    ``_format_e12`` each followed by a comma, and ``grid``. The cells' zero
    bytes are dropped and the block decoded once. Raises RuntimeError if a
    cell is not finite, as ``cli._lines`` does.
    """
    alpha = np.asarray(alphas, dtype=float)
    cells = np.stack([alpha, alpha * total, (1.0 - alpha) * total, np.asarray(outages, dtype=float)], axis=1)
    if not np.isfinite(cells).all():
        raise RuntimeError("refusing to emit a non-finite value")
    head, tail = prefix.encode(), b"grid\n"
    block = np.zeros((alpha.size, len(head) + 4 * (_CELL + 1) + len(tail)), np.uint8)
    block[:, : len(head)] = np.frombuffer(head, np.uint8)
    body = block[:, len(head) : -len(tail)].reshape(alpha.size, 4, _CELL + 1)
    _format_e12(cells, body[..., :_CELL])
    body[..., _CELL] = ord(",")
    block[:, -len(tail) :] = np.frombuffer(tail, np.uint8)
    return block[block != 0][:-1].tobytes().decode()


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
