"""Modified Bessel functions of the first kind and the first-order Marcum Q-function.

All routines here are pure and evaluated in IEEE double precision; all are
scalar, except that the Marcum complement also takes an array of thresholds.
Q_1 and 1 - Q_1 are the same Poisson double series summed in the two
orientations, so one loop computes both. The Marcum function and its partial
derivatives sit underneath every outage evaluation in this package, so the
truncation tolerance is a fixed constant set far below anything the
link-level results can resolve; there are no tolerance options.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "bessel_i_n",
    "marcum_q1",
    "marcum_q1_partial_a",
    "marcum_q1_partial_b",
]

# Relative truncation tolerance of the power series and the Marcum series.
_SERIES_TOL = 1e-14
# Hard cap on series length; hitting it raises RuntimeError.
_MAX_TERMS = 20000
# Argument above which I_n(x) switches from the ascending power series to the
# large-argument expansion. At 30 the power series needs about 60 terms and
# both branches agree to ~1e-13.
_ASYMPTOTIC_THRESHOLD = 30.0
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


def _bessel_series(order: int, x: float) -> float:
    """Ascending power series sum_k (x/2)^(order+2k) / (k! (order+k)!).

    Every term is positive, so there is no cancellation at any argument;
    the only cost of a large x is term count.
    """
    half = 0.5 * x
    term = half**order / math.factorial(order)
    total = term
    for k in range(1, _MAX_TERMS + 1):
        term *= half * half / (k * (k + order))
        total += term
        if term <= _SERIES_TOL * total:
            return total
    raise RuntimeError(f"I_{order}({x}) series did not converge in {_MAX_TERMS} terms")


def _asymptotic_sum(order: int, x: float) -> float:
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
        if abs(term) <= _SERIES_TOL * abs(total):
            break
    return total


def bessel_i_n(order: int, x: float) -> float:
    """Modified Bessel function of the first kind I_n(x), integer n >= 0, x >= 0.

    The exponentially scaled value times e^x. Raises OverflowError once e^x
    leaves the double range (x beyond roughly 709).
    """
    if order < 0:
        raise ValueError("order must be a non-negative integer")
    scaled = _bessel_i_n_scaled(order, x)
    try:
        return scaled * math.exp(x)
    except OverflowError:
        raise OverflowError(f"I_{order}({x}) exceeds the double-precision range") from None


def _bessel_i_n_scaled(order: int, x: float) -> float:
    """Exponentially scaled I_n(x) * e^(-x); never overflows for x >= 0.

    Uses the ascending power series below ``_ASYMPTOTIC_THRESHOLD`` and the
    large-argument expansion above it.
    """
    if x < 0.0:
        raise ValueError("x must be non-negative")
    if x == 0.0:
        return 1.0 if order == 0 else 0.0
    if x < _ASYMPTOTIC_THRESHOLD:
        return _bessel_series(order, x) * math.exp(-x)
    return _asymptotic_sum(order, x) / math.sqrt(2.0 * math.pi * x)


def _marcum_series(a: float, b: float, complement: bool) -> float:
    """Q_1(a, b), or 1 - Q_1(a, b) if ``complement``, by one Poisson double series.

    With outer and inner half-squares (u, v) = (a^2/2, b^2/2) for Q_1 and
    (b^2/2, a^2/2) for the complement,

        Q_1(a, b)     = sum_{k>=0} pmf(k; u) * cdf(k; v),
        1 - Q_1(a, b) = sum_{k>=1} pmf(k; u) * cdf(k - 1; v).

    Every term is positive, so the complement keeps full relative accuracy
    even when Q_1 is within rounding of 1. The inner cdf is kept one term
    ahead for Q_1, so both sums share one update order. Truncation stops once
    the remaining outer Poisson mass, an a-priori bound on the tail because
    every inner cdf is <= 1, drops below ``_SERIES_TOL`` times the sum. The
    result is clamped to [0, 1].
    """
    if a < 0.0 or b < 0.0:
        raise ValueError("Marcum Q arguments must be non-negative")
    if b == 0.0:
        return 0.0 if complement else 1.0
    outer, inner = (b, a) if complement else (a, b)
    u = 0.5 * outer * outer
    v = 0.5 * inner * inner
    if u >= _SERIES_HALF_SQ_LIMIT or v >= _SERIES_HALF_SQ_LIMIT:
        if outer - inner >= _NEGLIGIBLE_GAP:
            return 1.0
        if inner - outer >= _NEGLIGIBLE_GAP:
            return 0.0
        raise OverflowError(
            f"Marcum Q series start underflows for a={a}, b={b} with |a-b| small"
        )
    ahead = 0 if complement else 1
    weight = math.exp(-u)
    cum_weight = weight
    pmf = math.exp(-v)
    cdf = pmf
    total = 0.0
    if ahead:
        total = weight * cdf
        pmf *= v
        cdf += pmf
    for k in range(1, _MAX_TERMS + 1):
        tail = 1.0 - cum_weight
        if tail <= _SERIES_TOL * total:
            break
        # Past twice the Poisson mean the weights at least halve each step,
        # so the remaining mass is bounded by the current weight. This keeps
        # the loop from spinning when rounding pins cum_weight just below 1.
        if weight == 0.0 or (k >= 2.0 * u and weight <= _SERIES_TOL * total):
            break
        weight *= u / k
        cum_weight += weight
        total += weight * cdf
        pmf *= v / (k + ahead)
        cdf += pmf
    else:
        raise RuntimeError(f"Marcum Q series did not converge for a={a}, b={b}")
    return min(1.0, max(0.0, total))


def marcum_q1(a: float, b: float) -> float:
    """First-order Marcum Q-function Q_1(a, b), by the series of ``_marcum_series``."""
    return _marcum_series(a, b, False)


def _marcum_q1_complement(a: float, b: float) -> float:
    """1 - Q_1(a, b) as an all-positive series (see ``_marcum_series``).

    ``b`` may also be a 1-D numpy array; the result is then an array equal,
    bit for bit, to the scalar call at each entry (see ``_complement_array``).
    """
    if isinstance(b, np.ndarray):
        return _complement_array(a, b)
    return _marcum_series(a, b, True)


@np.errstate(all="ignore")  # inf and NaN arise silently, as in the loop's float arithmetic
def _complement_array(a: float, b: np.ndarray) -> np.ndarray:
    """The scalar complement at every entry of ``b``, with the same arithmetic.

    Rows whose series starts in range (a >= 0, b > 0, both half-squares below
    the band) run the loop's running ``*=`` and ``+=`` as ``np.cumprod`` and
    ``np.cumsum`` along a term axis, which accumulate strictly left to right,
    so every partial sum is the loop's own. Each row then stops at the first
    term where the loop's stopping tests hold. Rows are sorted by b^2/2 and
    taken in blocks sized from a term estimate, or from the terms the
    previous block's far-tail rows took where that is more; rows that need
    more terms go round again with twice as many, up to ``_MAX_TERMS``. The
    block sizes change only the work, never a value. Every other entry
    (0, inf, NaN, negative, the band, a row that reaches ``_MAX_TERMS``) is
    the scalar call, made in index order, so the first entry it raises on
    raises the same exception.
    """
    out = np.empty(b.shape)
    a2h = 0.5 * a * a
    b2h = 0.5 * b * b
    in_range = (a >= 0.0) & (b > 0.0) & (a2h < _SERIES_HALF_SQ_LIMIT) & (b2h < _SERIES_HALF_SQ_LIMIT)
    series = np.flatnonzero(in_range)
    scalar = [np.flatnonzero(~in_range)]

    # Work items (rows, term floor), rows in descending b^2/2 so that the
    # first row of any item bounds its series length.
    pending = [(series[np.argsort(-b2h[series], kind="stable")], 0)] if series.size else []
    # Terms a row with this b^2/2 takes, by estimate. The loop stops at about
    # 0.55-0.8 of it, except in the far tail (b well below a), where the stop
    # falls more slowly than b and can pass the estimate up to ~3 times.
    estimate = 2.0 * b2h + 8.0 * np.sqrt(b2h) + 24.0
    cdf_a = np.empty(0)
    need = 0  # the most terms a far-tail row of the previous block took
    while pending:
        rows, floor = pending.pop()
        terms = max(floor, need, min(_MAX_TERMS, int(estimate[rows[0]])))
        take = max(1, _BLOCK_CELLS // terms)
        if rows.size > take:
            pending.append((rows[take:], floor))
            rows = rows[:take]
        if cdf_a.size < terms:
            cdf_a = np.cumsum(_poisson_pmf(a2h, terms))
        value, found, first = _complement_block(b2h[rows], cdf_a[: terms - 1])
        out[rows[found]] = value[found]
        # A row that stops in column m took m + 1 terms.
        need = int(first.max(initial=-1, where=found & (first + 1 > estimate[rows]))) + 1
        if not found.all():
            if terms == _MAX_TERMS:
                scalar.append(rows[~found])
            else:
                pending.append((rows[~found], min(_MAX_TERMS, 2 * terms)))

    for index in np.sort(np.concatenate(scalar)).tolist():
        out[index] = _marcum_series(a, float(b[index]), True)
    # min(1, max(0, x)) as the loop takes it.
    out = np.where(out > 0.0, out, 0.0)
    return np.where(out < 1.0, out, 1.0)


def _poisson_pmf(mean: float, terms: int) -> np.ndarray:
    """pmf(j; mean) for j < terms, by the loop's recursion pmf *= mean / j."""
    factors = np.empty(terms)
    factors[0] = math.exp(-mean)
    np.divide(mean, np.arange(1.0, terms), out=factors[1:])
    return np.cumprod(factors, out=factors)


def _complement_block(b2h: np.ndarray, cdf_a: np.ndarray):
    """Complement series of one block of rows over ``cdf_a.size + 1`` terms.

    Column m holds the loop's state after m terms. Returns each row's sum at
    its first column where the loop stops, whether that column exists, and
    its index.
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
    bound = _SERIES_TOL * total
    # Term m + 1 is the loop's counter k when it tests the state after m terms.
    stop = (pmf_b == 0.0) | ((np.arange(1.0, terms + 1) >= 2.0 * b2h[:, None]) & (pmf_b <= bound))
    tail = np.cumsum(pmf_b, axis=1, out=pmf_b)
    stop |= np.subtract(1.0, tail, out=tail) <= bound
    first = stop.argmax(axis=1)
    return total[np.arange(rows), first], stop[np.arange(rows), first], first


def marcum_q1_partial_a(a: float, b: float) -> float:
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
    return b * math.exp(-0.5 * (a - b) ** 2) * _bessel_i_n_scaled(1, a * b)


def marcum_q1_partial_b(a: float, b: float) -> float:
    """dQ_1/db = -b * exp(-(a^2 + b^2)/2) * I_0(a*b), for a >= 0, b > 0.

    Always <= 0: raising the threshold can only shrink the survival
    probability. Same scaled-Bessel evaluation as the a-derivative.
    """
    if a < 0.0:
        raise ValueError("a must be non-negative")
    if b <= 0.0:
        raise ValueError("b must be positive")
    return -b * math.exp(-0.5 * (a - b) ** 2) * _bessel_i_n_scaled(0, a * b)
