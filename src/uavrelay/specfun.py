"""Modified Bessel functions of the first kind and the first-order Marcum Q-function.

All routines here are pure, scalar and evaluated in IEEE double precision.
The Marcum function has one algorithm, a fixed-node quadrature of the
Craig-form integral in log space, with no overflow band, a cost that does
not grow with its arguments and relative accuracy down to 1e-300. Here it
is summed in plain floats, one threshold at a time;
``_arrays._complement_quadrature`` sums the same rule in numpy blocks over
an array of thresholds, such as one hop over a whole allocation grid. The
same nodes give the Bessel terms of the Marcum partial derivatives. I_n has one algorithm
too, its ascending power series, whose positive terms keep their relative
accuracy wherever I_n is finite. The Marcum function and its partial
derivatives sit underneath every outage evaluation in this package, so the
truncation tolerance and the node count are fixed constants set far below
anything the link-level results can resolve; there are no tolerance options.
"""

from __future__ import annotations

import math
import sys

__all__ = [
    "bessel_i_n",
    "marcum_q1",
    "marcum_q1_partial_a",
    "marcum_q1_partial_b",
]

# Relative truncation tolerance of the Bessel power series.
_SERIES_TOL = 1e-14
# Hard cap on series length; hitting it raises RuntimeError.
_MAX_TERMS = 20000
# Log of the largest double: a first series term beyond it overflows.
_LOG_MAX = math.log(sys.float_info.max)
# Midpoint nodes per threshold of the Marcum quadrature. Its step
# is then at most 0.655/sqrt(ab), so the rule's aliasing error is about
# exp(-2 pi^2 / 0.655^2) ~ 1e-20 (see ``_log_marcum``).
_NODES = 24
# Rows with a*b up to this take the whole period [0, pi]; larger rows take
# the window where a*b*sin^2(phi/2) stays below it.
_WHOLE_KAPPA = 25.0
# Step and sin^2(phi/2) nodes of the whole-period rows; most calls are such
# rows, and the array kernel of ``_arrays`` reads the same nodes.
_WHOLE_STEP = math.pi / _NODES
_WHOLE_NODES = tuple(math.sin(_WHOLE_STEP * (j + 0.5) / 2.0) ** 2 for j in range(_NODES))
_WHOLE_T_SUM = math.fsum(_WHOLE_NODES)
# Largest noncentrality a*b of the quadrature, which forms 2ab; beyond it
# the Marcum function takes its limit (``_far_log_marcum``).
_MAX_KAPPA = 0.5 * sys.float_info.max


def _bessel_series(order: int, x: float) -> float:
    """Ascending power series sum_k (x/2)^(order+2k) / (k! (order+k)!), x > 0.

    Every term is positive, so there is no cancellation at any argument;
    the only cost of a large x is term count. The first term is formed in
    logs, so that (x/2)^order alone cannot overflow, and the sum is inf
    where it leaves the double range.
    """
    half = 0.5 * x
    log_first = order * math.log(half) - math.lgamma(order + 1)
    if not log_first <= _LOG_MAX:  # or NaN, at x = inf and order 0
        return math.inf
    term = total = math.exp(log_first)
    for k in range(1, _MAX_TERMS + 1):
        term *= half * half / (k * (k + order))
        total += term
        if term <= _SERIES_TOL * total:
            return total
    raise RuntimeError(f"I_{order}({x}) series did not converge in {_MAX_TERMS} terms")


def bessel_i_n(order: int, x: float) -> float:
    """Modified Bessel function of the first kind I_n(x), integer n >= 0, x >= 0.

    The power series of ``_bessel_series``, which keeps its relative
    accuracy wherever I_n(x) is finite. Raises OverflowError where it is
    not (I_0 beyond x = 713.9869) and at x = inf, and ValueError for a
    negative order or a negative or NaN x.
    """
    if order < 0:
        raise ValueError("order must be a non-negative integer")
    if not x >= 0.0:
        raise ValueError("x must be non-negative")
    if x == 0.0:
        return 1.0 if order == 0 else 0.0
    total = _bessel_series(order, x)
    if total == math.inf:
        raise OverflowError(f"I_{order}({x}) exceeds the double-precision range")
    return total


def _log(x: float) -> float:
    """log x, with -inf for x <= 0, where a sum of weights underflowed."""
    return math.log(x) if x > 0.0 else -math.inf


def _log1mexp(x: float) -> float:
    """log(1 - e^x) for x <= 0, accurate at both ends (Maechler, 2012)."""
    if x > -math.log(2.0):
        return _log(-math.expm1(x))
    return math.log1p(-math.exp(x))


def _log_marcum(a: float, b: float) -> tuple[float, float, float, float, float]:
    """(log Q_1(a, b), log(1 - Q_1(a, b)), log I_0e(ab), I_1(ab)/I_0(ab),
    log of the small side before the -(a - b)^2/2 shift) for scalar a and b,
    by one midpoint rule in log space.

    Craig form (Simon & Alouini, IEEE TCOM 46(12), 1998): with s = max(a, b),
    zeta = min(a, b)/s, r = 1 - zeta, kappa = a*b and t = sin^2(phi/2), the
    smaller of Q_1 (where b > a) and 1 - Q_1 (where b <= a) is

        exp(-(a - b)^2/2) * (1/pi) * int_0^pi w(t) exp(-2 kappa t) dphi,

    with w = (r + 2 zeta t)/D for Q_1 and zeta (r - 2 t)/D for 1 - Q_1, and
    D = r^2 + 4 zeta t. The rule takes ``_NODES`` midpoint nodes: over the
    whole period where kappa <= ``_WHOLE_KAPPA`` (25), otherwise over the
    window where 2 kappa t <= 50, beyond which the integrand is below e^-50
    of its peak. The step h is then at most 0.655/sqrt(kappa), and the
    aliasing error is about exp(-2 pi^2 / 0.655^2) ~ 1e-20. The prefactor is
    applied as a logarithm, so deep tails keep their relative accuracy and
    nothing overflows.

    w has a pole at phi = i log(s/min(a, b)), which nears the real axis as b
    nears a. Where it lies below the contour that bounds the aliasing error,
    kappa h log(s/min) < 2 pi, here taken as (s^2 - min^2) h/2 < 2 pi, the
    rule misses the pole's exact share
    exp((a - b)^2/2)/(exp(2 pi log(s/min)/h) + 1), which is added; further
    out the plain rule is accurate and the share would only cancel against
    it. On whole-period rows two rearrangements avoid cancellation when a*b
    is tiny. Where b <= a the weight integrates to 0 over the period, so
    exp(-2 kappa t) - exp(-kappa) is integrated in place of exp(-2 kappa t),
    and the pole share scales by 1 - exp(-(a^2 + b^2)/2). Where b > a the
    Q_1 weight integrates to 1, so 1 - Q_1 is the integral of
    w (1 - exp(-(a - b)^2/2 - 2 kappa t)), which has no pole.

    The small side is the sum itself and the other side is log(1 - e^small),
    except that where b > a on a whole-period row both are summed, each from
    its own weight, since 1 - (1 - Q_1) would lose Q_1's digits. So each log
    keeps its relative accuracy. The last entry is the log of the sum alone,
    the small side times exp((a - b)^2/2): where the shift is large, adding
    it back to the small side's log would leave rounding noise.

    With I_ne(kappa) = e^-kappa I_n(kappa), I_ne is (1/pi) int_0^pi
    cos(n phi) e dphi with e = exp(-2 kappa t), the Craig integrand without
    its weight, and cos(phi) = 1 - 2t. So the same nodes give I_0e as the
    sum of e, and the ratio as 1 - 2 (sum of t e)/(sum of e). Orders above 0
    lose relative accuracy at small kappa, so the ratio is good to about
    1e-15 absolute, not relative.

    b = 0 gives (0, -inf, 0, 0, -inf), b = inf gives (-inf, 0, -inf, 1, -inf), and
    a*b beyond ``_MAX_KAPPA``, where the rule's 2ab would overflow, gives
    the limit of ``_far_log_marcum``; a negative or NaN argument raises
    ValueError.
    """
    if not (a >= 0.0 and b >= 0.0):
        raise ValueError("Marcum Q arguments must be non-negative")
    if b == 0.0:
        return 0.0, -math.inf, 0.0, 0.0, -math.inf
    if b == math.inf:
        return -math.inf, 0.0, -math.inf, 1.0, -math.inf
    s, low = max(a, b), min(a, b)
    zeta, r = low / s, (s - low) / s
    kappa = a * b
    if kappa > _MAX_KAPPA:
        return _far_log_marcum(a, b)
    gap = 0.5 * (a - b) * (a - b)
    above, whole = b > a, kappa <= _WHOLE_KAPPA
    if whole:
        step, nodes = _WHOLE_STEP, _WHOLE_NODES
    else:
        step = 2.0 * math.asin(math.sqrt(_WHOLE_KAPPA / kappa)) / _NODES
        nodes = [math.sin(step * (j + 0.5) / 2.0) ** 2 for j in range(_NODES)]
    # Local names and hoisted factors: this loop is the cost of every solver probe.
    exp, expm1 = math.exp, math.expm1
    rr, z2, z4, k2 = r * r, 2.0 * zeta, 4.0 * zeta, 2.0 * kappa
    small = rest = sum_e = sum_te = 0.0
    if above:
        for t in nodes:
            e = exp(-k2 * t)
            w = (r + z2 * t) / (rr + z4 * t)
            small += w * e
            sum_e += e
            sum_te += t * e
            if whole:
                rest -= w * expm1(-gap - k2 * t)
    else:
        # On whole-period rows e is exp(-2 kappa t) - exp(-kappa); the floor
        # exp(-kappa) is added to the Bessel sums after the loop.
        floor = exp(-kappa)
        for t in nodes:
            w = zeta * (r - 2.0 * t) / (rr + z4 * t)
            e = floor * expm1(kappa - k2 * t) if whole else exp(-k2 * t)
            small += w * e
            sum_e += e
            sum_te += t * e
        if whole:
            sum_e += _NODES * floor
            sum_te += _WHOLE_T_SUM * floor
    small *= step / math.pi
    if low > 0.0 and (s * s - low * low) * step < 4.0 * math.pi:
        # exp(gap)/(exp(p) + 1), arranged so that no exp can overflow: the
        # condition keeps gap below p.
        p = 2.0 * math.pi * math.log(s / low) / step
        share = math.exp(gap - p) / (1.0 + math.exp(-p))
        small += share * (-math.expm1(-0.5 * (a * a + b * b)) if whole and not above else 1.0)
    log_sum = _log(small)
    log_small = min(0.0, log_sum - gap)
    log_i0e, ratio = math.log(sum_e * step / math.pi), 1.0 - 2.0 * sum_te / sum_e
    if not above:
        return _log1mexp(log_small), log_small, log_i0e, ratio, log_sum
    log_big = min(0.0, _log(rest * step / math.pi)) if whole else _log1mexp(log_small)
    return log_small, log_big, log_i0e, ratio, log_sum


def _far_log_marcum(a: float, b: float) -> tuple[float, float, float, float, float]:
    """``_log_marcum`` where a*b exceeds ``_MAX_KAPPA`` (about 9e307).

    There a and b are equal, or differ by more than 7e137: within a factor of
    2 of each other both exceed 4.7e153, where doubles are that far apart.
    So where they differ, the small side is below exp(-(a - b)^2/2)
    (Simon & Alouini, IEEE TCOM 48(3), 2000), at most e^-2.8e275; its log
    is -(a - b)^2/2 to double precision, and the other side is 1. Where a = b,
    Q_1 = (1 + I_0e(a^2))/2 is 1/2 to double precision. I_0e(ab) takes its
    asymptotic value 1/sqrt(2 pi ab), and I_1/I_0 = 1 - 1/(2ab) rounds to 1.
    Where they differ, the small side's log before the shift is taken as 0.
    """
    log_i0e = -0.5 * (math.log(2.0 * math.pi) + math.log(a) + math.log(b))
    if a == b:
        return -math.log(2.0), -math.log(2.0), log_i0e, 1.0, -math.log(2.0)
    log_small = -0.5 * (a - b) * (a - b)
    if b > a:
        return log_small, _log1mexp(log_small), log_i0e, 1.0, 0.0
    return _log1mexp(log_small), log_small, log_i0e, 1.0, 0.0


def marcum_q1(a: float, b: float) -> float:
    """First-order Marcum Q-function Q_1(a, b), by the quadrature of ``_log_marcum``."""
    return math.exp(_log_marcum(a, b)[0])


def _marcum_q1_complement(a: float, b: float) -> float:
    """1 - Q_1(a, b), by the quadrature of ``_log_marcum``. Its array form
    is ``_arrays._complement_quadrature``."""
    return math.exp(_log_marcum(a, b)[1])


def marcum_q1_partial_a(a: float, b: float) -> float:
    """dQ_1/da = b * exp(-(a - b)^2/2) * I_1e(a*b), for a > 0, b >= 0, with
    I_ne(x) = e^-x I_n(x).

    Where a*b >= 1, I_1e = I_0e * (I_1/I_0) from the nodes of ``_log_marcum``.
    Below that the node ratio, good to about 1e-15 absolute, loses relative
    accuracy as I_1 shrinks like a*b/2, and the power series gives I_1.
    At b = inf the partial is its limit 0. A NaN argument raises ValueError.
    """
    if not a > 0.0:
        raise ValueError("a must be positive")
    if not b >= 0.0:
        raise ValueError("b must be non-negative")
    kappa = a * b
    if kappa < 1.0:
        return b * math.exp(-0.5 * (a - b) ** 2 - kappa) * bessel_i_n(1, kappa)
    _, _, log_i0e, ratio, _ = _log_marcum(a, b)
    return b * math.exp(log_i0e - 0.5 * (a - b) ** 2) * ratio if b < math.inf else 0.0


def marcum_q1_partial_b(a: float, b: float) -> float:
    """dQ_1/db = -b * exp(-(a - b)^2/2) * I_0e(a*b), for a >= 0, b > 0.

    Always <= 0: raising the threshold can only shrink the survival
    probability. log I_0e comes from the nodes of ``_log_marcum``, the same
    term as the exact solver's hazard (``outage._link_terms``), so the
    product stays finite where I_0 alone would overflow. At b = inf it is its
    limit 0. A NaN argument raises ValueError.
    """
    if not a >= 0.0:
        raise ValueError("a must be non-negative")
    if not b > 0.0:
        raise ValueError("b must be positive")
    return -b * math.exp(_log_marcum(a, b)[2] - 0.5 * (a - b) ** 2) if b < math.inf else 0.0
