"""Modified Bessel functions of the first kind and the first-order Marcum Q-function.

All routines here are pure and evaluated in IEEE double precision; all are
scalar, except that the Marcum complement also takes an array of thresholds.
The Marcum function and its partial derivatives sit underneath every outage
evaluation in this package, so the default truncation tolerance is set far
below anything the link-level results can resolve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpecFunConfig",
    "DEFAULT_SPECFUN",
    "bessel_i_n",
    "marcum_q1",
    "marcum_q1_partial_a",
    "marcum_q1_partial_b",
]


@dataclass(frozen=True)
class SpecFunConfig:
    """Tolerances and cutoffs for the series evaluations.

    series_tol: relative truncation tolerance for the power series and the
        Marcum double series.
    max_terms: hard cap on series length; hitting it raises RuntimeError.
    asymptotic_threshold: argument above which I_n(x) switches from the
        ascending power series to the large-argument expansion. At the
        default of 30 the power series needs about 60 terms and both
        branches agree to ~1e-13.
    """

    series_tol: float = 1e-14
    max_terms: int = 20000
    asymptotic_threshold: float = 30.0

    def __post_init__(self):
        if not 0.0 < self.series_tol < 1e-3:
            raise ValueError("series_tol must lie in (0, 1e-3)")
        if self.max_terms < 50:
            raise ValueError("max_terms must be at least 50")
        if self.asymptotic_threshold <= 0.0:
            raise ValueError("asymptotic_threshold must be positive")


DEFAULT_SPECFUN = SpecFunConfig()

# The Marcum double series starts from exp(-a^2/2) and exp(-b^2/2); past this
# bound those factors leave the full-precision double range.
_SERIES_HALF_SQ_LIMIT = 700.0
# With |a - b| >= 9 the smaller of Q_1 and 1 - Q_1 is below exp(-40.5) < 3e-18,
# one ulp of 1, so the negligible side can be returned exactly.
_NEGLIGIBLE_GAP = 9.0
# Rows times terms per block of the array complement: each of its three float
# temporaries is then 32 kB. On the benchmark's alpha grids, 1024 cells paid
# more in per-block overhead, and 16384 or more ran slower and raised the
# peak RSS.
_BLOCK_CELLS = 4096


def _bessel_series(order: int, x: float, cfg: SpecFunConfig) -> float:
    """Ascending power series sum_k (x/2)^(order+2k) / (k! (order+k)!).

    Every term is positive, so there is no cancellation at any argument;
    the only cost of a large x is term count.
    """
    half = 0.5 * x
    term = half**order / math.factorial(order)
    total = term
    for k in range(1, cfg.max_terms + 1):
        term *= half * half / (k * (k + order))
        total += term
        if term <= cfg.series_tol * total:
            return total
    raise RuntimeError(f"I_{order}({x}) series did not converge in {cfg.max_terms} terms")


def _asymptotic_sum(order: int, x: float, cfg: SpecFunConfig) -> float:
    """Large-argument correction series for I_n, i.e. I_n(x)*sqrt(2*pi*x)/e^x.

    Terms use mu = 4*order^2. The series is asymptotic, so summation stops
    at the tolerance or as soon as the terms stop shrinking.
    """
    mu = 4.0 * order * order
    inv8x = 1.0 / (8.0 * x)
    term = 1.0
    total = 1.0
    prev = math.inf
    for k in range(1, 40):
        term *= -(mu - (2 * k - 1) ** 2) * inv8x / k
        if abs(term) >= prev:
            break
        total += term
        prev = abs(term)
        if abs(term) <= cfg.series_tol * abs(total):
            break
    return total


def bessel_i_n(order: int, x: float, cfg: SpecFunConfig = DEFAULT_SPECFUN) -> float:
    """Modified Bessel function of the first kind I_n(x), integer n >= 0, x >= 0.

    Uses the ascending power series below ``cfg.asymptotic_threshold`` and the
    large-argument expansion above it. Raises OverflowError once e^x leaves
    the double range (x beyond roughly 700).
    """
    if order < 0:
        raise ValueError("order must be a non-negative integer")
    if x < 0.0:
        raise ValueError("x must be non-negative")
    if x == 0.0:
        return 1.0 if order == 0 else 0.0
    if x < cfg.asymptotic_threshold:
        return _bessel_series(order, x, cfg)
    try:
        prefactor = math.exp(x) / math.sqrt(2.0 * math.pi * x)
    except OverflowError:
        raise OverflowError(f"I_{order}({x}) exceeds the double-precision range") from None
    value = prefactor * _asymptotic_sum(order, x, cfg)
    if math.isinf(value):
        raise OverflowError(f"I_{order}({x}) exceeds the double-precision range")
    return value


def _bessel_i_n_scaled(order: int, x: float, cfg: SpecFunConfig = DEFAULT_SPECFUN) -> float:
    """Exponentially scaled I_n(x) * e^(-x); never overflows for x >= 0."""
    if x < 0.0:
        raise ValueError("x must be non-negative")
    if x == 0.0:
        return 1.0 if order == 0 else 0.0
    if x < cfg.asymptotic_threshold:
        return _bessel_series(order, x, cfg) * math.exp(-x)
    return _asymptotic_sum(order, x, cfg) / math.sqrt(2.0 * math.pi * x)


def marcum_q1(a: float, b: float, cfg: SpecFunConfig = DEFAULT_SPECFUN) -> float:
    """First-order Marcum Q-function Q_1(a, b).

    Evaluated by the canonical double series: outer Poisson weights with mean
    a^2/2 against the cumulative Poisson of b^2/2,

        Q_1(a, b) = sum_k pmf(k; a^2/2) * cdf(k; b^2/2).

    Truncation stops once the remaining outer Poisson mass, an a-priori bound
    on the tail because every inner cdf is <= 1, drops below
    ``cfg.series_tol`` times the accumulated sum. The result is clamped to
    [0, 1].
    """
    if a < 0.0 or b < 0.0:
        raise ValueError("Marcum Q arguments must be non-negative")
    if b == 0.0:
        return 1.0
    a2h = 0.5 * a * a
    b2h = 0.5 * b * b
    if a2h >= _SERIES_HALF_SQ_LIMIT or b2h >= _SERIES_HALF_SQ_LIMIT:
        if b - a >= _NEGLIGIBLE_GAP:
            return 0.0
        if a - b >= _NEGLIGIBLE_GAP:
            return 1.0
        raise OverflowError(
            f"Marcum Q series start underflows for a={a}, b={b} with |a-b| small"
        )
    weight = math.exp(-a2h)
    cum_weight = weight
    pmf = math.exp(-b2h)
    cdf = pmf
    total = weight * cdf
    for k in range(1, cfg.max_terms + 1):
        tail = 1.0 - cum_weight
        if tail <= cfg.series_tol * total:
            break
        # Past twice the Poisson mean the weights at least halve each step,
        # so the remaining mass is bounded by the current weight. This keeps
        # the loop from spinning when rounding pins cum_weight just below 1.
        if weight == 0.0 or (k >= 2.0 * a2h and weight <= cfg.series_tol * total):
            break
        weight *= a2h / k
        cum_weight += weight
        pmf *= b2h / k
        cdf += pmf
        total += weight * cdf
    else:
        raise RuntimeError(f"Marcum Q series did not converge for a={a}, b={b}")
    return min(1.0, max(0.0, total))


def _marcum_q1_complement(a: float, b: float, cfg: SpecFunConfig = DEFAULT_SPECFUN) -> float:
    """1 - Q_1(a, b) as an all-positive series, so the complement keeps full
    relative accuracy even when Q_1 is within rounding of 1.

    Swapping the summation order of the double series gives
        1 - Q_1(a, b) = sum_{j>=1} pmf(j; b^2/2) * cdf(j - 1; a^2/2),
    with the same outer-tail stopping rule as ``marcum_q1`` mirrored in b.

    ``b`` may also be a 1-D numpy array; the result is then an array equal,
    bit for bit, to this loop applied to each entry (see ``_complement_array``).
    """
    if isinstance(b, np.ndarray):
        return _complement_array(a, b, cfg)
    if a < 0.0 or b < 0.0:
        raise ValueError("Marcum Q arguments must be non-negative")
    if b == 0.0:
        return 0.0
    a2h = 0.5 * a * a
    b2h = 0.5 * b * b
    if a2h >= _SERIES_HALF_SQ_LIMIT or b2h >= _SERIES_HALF_SQ_LIMIT:
        if b - a >= _NEGLIGIBLE_GAP:
            return 1.0
        if a - b >= _NEGLIGIBLE_GAP:
            return 0.0
        raise OverflowError(
            f"Marcum Q series start underflows for a={a}, b={b} with |a-b| small"
        )
    pmf_b = math.exp(-b2h)
    cum_b = pmf_b
    pmf_a = math.exp(-a2h)
    cdf_a = pmf_a
    total = 0.0
    for j in range(1, cfg.max_terms + 1):
        tail = 1.0 - cum_b
        if tail <= cfg.series_tol * total:
            break
        if pmf_b == 0.0 or (j >= 2.0 * b2h and pmf_b <= cfg.series_tol * total):
            break
        pmf_b *= b2h / j
        cum_b += pmf_b
        total += pmf_b * cdf_a
        pmf_a *= a2h / j
        cdf_a += pmf_a
    else:
        raise RuntimeError(f"Marcum Q complement series did not converge for a={a}, b={b}")
    return min(1.0, max(0.0, total))


@np.errstate(all="ignore")  # inf and NaN arise silently, as in the loop's float arithmetic
def _complement_array(a: float, b: np.ndarray, cfg: SpecFunConfig) -> np.ndarray:
    """The scalar complement loop at every entry of ``b``, with the same arithmetic.

    The loop's running ``*=`` and ``+=`` become ``np.cumprod`` and
    ``np.cumsum`` along a term axis, which accumulate strictly left to right,
    so every partial sum is the loop's own. Each row then stops at the first
    term where the loop's stopping tests hold. Rows are sorted by b^2/2 and
    taken in blocks sized from a term estimate; rows that need more terms go
    round again with twice as many, up to ``cfg.max_terms``. An entry
    the loop would raise on is handed to the loop, so the first such entry
    raises the same exception.
    """
    out = np.zeros(b.shape)  # b == 0 and the a - b >= 9 side of the band stay 0
    a2h = 0.5 * a * a
    b2h = 0.5 * b * b
    # Entries the loop raises on: negative arguments, a NaN threshold (which
    # meets no stopping test), and the overflow band without a clear gap.
    fails = (a < 0.0) | (b < 0.0) | np.isnan(b)
    band = ~fails & (b != 0.0) & ((a2h >= _SERIES_HALF_SQ_LIMIT) | (b2h >= _SERIES_HALF_SQ_LIMIT))
    high = band & (b - a >= _NEGLIGIBLE_GAP)
    out[high] = 1.0
    fails |= band & ~high & ~(a - b >= _NEGLIGIBLE_GAP)
    series = np.flatnonzero(~fails & ~band & (b != 0.0))

    # Work items (rows, term floor), rows in descending b^2/2 so that the
    # first row of any item bounds its series length.
    pending = [(series[np.argsort(-b2h[series], kind="stable")], 0)] if series.size else []
    cdf_a = np.empty(0)
    while pending:
        rows, floor = pending.pop()
        largest = b2h[rows[0]]
        terms = max(floor, min(cfg.max_terms, int(2.0 * largest + 8.0 * math.sqrt(largest) + 24.0)))
        take = max(1, _BLOCK_CELLS // terms)
        if rows.size > take:
            pending.append((rows[take:], floor))
            rows = rows[:take]
        if cdf_a.size < terms:
            cdf_a = np.cumsum(_poisson_pmf(a2h, terms))
        value, found = _complement_block(b2h[rows], cdf_a[: terms - 1], cfg.series_tol)
        out[rows[found]] = value[found]
        if not found.all():
            if terms == cfg.max_terms:
                fails[rows[~found]] = True
            else:
                pending.append((rows[~found], min(cfg.max_terms, 2 * terms)))

    if fails.any():  # the loop raises at its first failing entry
        _marcum_q1_complement(a, float(b[np.argmax(fails)]), cfg)
    # min(1, max(0, x)) as the loop takes it, NaN included.
    out = np.where(out > 0.0, out, 0.0)
    return np.where(out < 1.0, out, 1.0)


def _poisson_pmf(mean: float, terms: int) -> np.ndarray:
    """pmf(j; mean) for j < terms, by the loop's recursion pmf *= mean / j."""
    factors = np.empty(terms)
    factors[0] = math.exp(-mean)
    np.divide(mean, np.arange(1.0, terms), out=factors[1:])
    return np.cumprod(factors, out=factors)


def _complement_block(b2h: np.ndarray, cdf_a: np.ndarray, tol: float):
    """Complement series of one block of rows over ``cdf_a.size + 1`` terms.

    Column m holds the loop's state after m terms. Returns each row's sum at
    its first column where the loop stops, and whether that column exists.
    """
    rows, terms = b2h.size, cdf_a.size + 1
    pmf_b = np.empty((rows, terms))
    pmf_b[:, 0] = [math.exp(-h) for h in b2h.tolist()]  # the loop's libm exp
    np.divide(b2h[:, None], np.arange(1.0, terms), out=pmf_b[:, 1:])
    np.cumprod(pmf_b, axis=1, out=pmf_b)
    total = np.empty((rows, terms))
    total[:, 0] = 0.0
    np.multiply(pmf_b[:, 1:], cdf_a, out=total[:, 1:])
    np.cumsum(total, axis=1, out=total)
    bound = tol * total
    # Term m + 1 is the loop's counter j when it tests the state after m terms.
    stop = (pmf_b == 0.0) | ((np.arange(1.0, terms + 1) >= 2.0 * b2h[:, None]) & (pmf_b <= bound))
    tail = np.cumsum(pmf_b, axis=1, out=pmf_b)
    stop |= np.subtract(1.0, tail, out=tail) <= bound
    first = stop.argmax(axis=1)
    return total[np.arange(rows), first], stop[np.arange(rows), first]


def marcum_q1_partial_a(a: float, b: float, cfg: SpecFunConfig = DEFAULT_SPECFUN) -> float:
    """dQ_1/da = b * exp(-(a^2 + b^2)/2) * I_1(a*b), for a > 0, b >= 0.

    Evaluated with the exponentially scaled Bessel function so the product
    stays finite for large a*b where I_1 alone would overflow.
    """
    if a <= 0.0:
        raise ValueError("a must be positive")
    if b < 0.0:
        raise ValueError("b must be non-negative")
    if b == 0.0:
        return 0.0
    return b * math.exp(-0.5 * (a - b) ** 2) * _bessel_i_n_scaled(1, a * b, cfg)


def marcum_q1_partial_b(a: float, b: float, cfg: SpecFunConfig = DEFAULT_SPECFUN) -> float:
    """dQ_1/db = -b * exp(-(a^2 + b^2)/2) * I_0(a*b), for a >= 0, b > 0.

    Always <= 0: raising the threshold can only shrink the survival
    probability. Same scaled-Bessel evaluation as the a-derivative.
    """
    if a < 0.0:
        raise ValueError("a must be non-negative")
    if b <= 0.0:
        raise ValueError("b must be positive")
    return -b * math.exp(-0.5 * (a - b) ** 2) * _bessel_i_n_scaled(0, a * b, cfg)
