"""Writes ``tests/data/marcum_complement.csv``, the frozen Marcum Q_1 table.

Each row holds a region label, a and b (exact doubles, written by ``repr``),
log(1 - Q_1(a, b)) and log Q_1(a, b), each to 25 significant digits. Every
complement is the all-positive Poisson series

    1 - Q_1(a, b) = sum_{k>=1} pmf(k; b^2/2) * cdf(k - 1; a^2/2),

summed at 40 digits, where no term cancels and the exponent range is
unbounded, so deep tails far below the double range stay exact. Each value
is cross-checked against an mpmath quadrature before it is written: the
Bessel-integral form int_0^b t exp(-(t^2 + a^2)/2) I_0(a t) dt within
|a - b| <= 1, where the Craig form's integrand has a pole next to the real
axis, and for b <= 1e-3, where the Craig form's terms cancel; and the Craig
form of Simon & Alouini (IEEE TCOM 46(12), 1998) elsewhere, which needs far
fewer pieces than the Bessel form over a long range of t.

log Q_1 is log(1 - complement). Where b > a, Q_1 can be far below 1e-40, so
there the series is summed again with enough extra digits to resolve
1 - complement to 40 digits, and, away from the diagonal, that Q_1 is
cross-checked against the Craig form's own value of Q_1, its small side
there. Elsewhere Q_1 is at least about 0.3, and 1 - complement loses no
digits.

The Marcum tests read the table and never import mpmath. To rewrite it
(about ten minutes on one core, mostly in the a = 632 rows; needs mpmath, a
test dependency only), run ``python tests/make_marcum_table.py``.
"""

from __future__ import annotations

import math
from pathlib import Path

import mpmath as mp

TABLE = Path(__file__).parent / "data" / "marcum_complement.csv"
DIGITS = 40
CROSS_CHECK_REL = 1e-12

#: The noncentralities of the dense threshold grids.
DENSE_A = (0.0, 0.7, 3.0, 8.0, 16.0, 24.0, 29.5, 37.0)


def regions() -> list[tuple[str, float, float]]:
    """The (region, a, b) entries of the table."""
    rows = []
    dense_b = [math.sqrt(1400.0) * i / 401 for i in range(0, 401, 4)]
    for a in DENSE_A:
        rows += [(f"dense-{a}", a, b) for b in dense_b]
    # One hop of a 25 dB alpha grid: b ~ alpha^(-1/2), far tail to transition.
    k = 10.0**2.5
    a = math.sqrt(2.0 * k)
    alphas = [0.001 + i * (0.998 / 998) for i in range(0, 999, 10)]
    rows += [("alpha-grid-25-db", a, math.sqrt(0.1 * 2.0 * k / alpha)) for alpha in alphas]
    for a in (0.3, 3.0, 16.0, 37.0, 100.0, 632.0):
        rows.append(("near-diagonal", a, a))
        for exponent in range(-12, 1):
            gap = 10.0**exponent
            rows += [("near-diagonal", a, b) for b in (a - gap, a + gap) if b > 0.0]
    # Down to 1e-300: gaps with (a - b)^2/2 near 20, 50, ..., 300 decades.
    for a in (16.0, 37.0, 100.0, 300.0, 632.0):
        for decades in (20, 50, 100, 200, 300):
            b = a - math.sqrt(2.0 * math.log(10.0) * decades)
            if b > 0.0:
                rows.append(("deep-tail", a, b))
    for a in (0.0, 0.7, 3.0):
        rows += [("deep-tail", a, b) for b in (1e-140, 1e-100, 1e-50, 1e-10)]
    for a in (100.0, 300.0, 632.0):
        for offset in (-30.0, -20.0, -10.0, -5.0, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 30.0):
            rows.append(("large-a", a, a + offset))
    return rows


def complement_series(a: float, b: float) -> mp.mpf:
    """1 - Q_1(a, b) by the Poisson series, stopped once the remaining outer
    mass, a bound on the tail because every cdf is <= 1, is negligible."""
    u = mp.mpf(b) ** 2 / 2
    v = mp.mpf(a) ** 2 / 2
    if u == 0:
        return mp.mpf(0)
    pmf_u, pmf_v = mp.exp(-u), mp.exp(-v)
    cdf_v = pmf_v
    total = mp.mpf(0)
    eps = mp.mpf(10) ** (5 - mp.mp.dps)
    k = 0
    while True:
        k += 1
        pmf_u *= u / k
        total += pmf_u * cdf_v
        pmf_v *= v / k
        cdf_v += pmf_v
        # For k > u the pmf falls at least geometrically with ratio u/(k + 1).
        if k > u and pmf_u * (k + 1) / (k + 1 - u) <= eps * total:
            return total


def complement_bessel(a: float, b: float, scale: mp.mpf) -> mp.mpf:
    """int_0^b t exp(-(t - a)^2/2) I_0(a t) e^(-a t) dt, in pieces of at most 1/2.

    mp.quad stops on an absolute error estimate, so the integrand is divided
    by ``scale``, a value of the integral's order, and the sum multiplied back.
    """
    a, b = mp.mpf(a), mp.mpf(b)

    def integrand(t):
        return t * mp.exp(-((t - a) ** 2) / 2) * mp.besseli(0, a * t) * mp.exp(-a * t) / scale

    start = max(mp.mpf(0), b - 40)
    points = [mp.mpf(0)] + [start + i * mp.mpf(0.5) for i in range(int((b - start) * 2) + 1)] + [b]
    points = sorted(set(p for p in points if p <= b))
    return scale * mp.quad(integrand, points)


def craig_small(a: float, b: float) -> mp.mpf:
    """The small side of the Craig form, Q_1 where b > a and 1 - Q_1 elsewhere,
    over [0, pi] in pieces on the scale of its peak."""
    a, b = mp.mpf(a), mp.mpf(b)
    s, low = max(a, b), min(a, b)
    zeta, kappa = low / s, a * b

    def integrand(phi):
        c = mp.cos(phi)
        weight = 1 - zeta * c if b > a else zeta * (c - zeta)
        return weight / (1 - 2 * zeta * c + zeta * zeta) * mp.exp(-kappa * (1 - c))

    # Pieces on the scale of the exp(-kappa phi^2/2) peak at phi = 0.
    width = 1 / mp.sqrt(kappa) if kappa > 0 else mp.pi
    points = [j * width for j in range(16) if j * width < mp.pi] + [mp.pi]
    return mp.exp(-((a - b) ** 2) / 2) * mp.quad(integrand, points) / mp.pi


def log_q1(a: float, b: float, complement: mp.mpf, near: bool) -> mp.mpf:
    """log Q_1(a, b) from ``complement``, or, where b > a, from the series
    summed with extra digits: about -log10 Q_1 <= (b - a)^2 / (2 ln 10), plus
    a margin for the rounding of its terms."""
    if b <= a:
        return mp.log(1 - complement)
    with mp.workdps(DIGITS + int((b - a) ** 2 / (2.0 * math.log(10.0))) + 20):
        q = 1 - complement_series(a, b)
    if not near:
        check = craig_small(a, b)
        if abs(check / q - 1) > CROSS_CHECK_REL:
            raise SystemExit(f"Q_1 cross-check failed at a={a!r}, b={b!r}: {q} vs {check}")
    return mp.log(q)


def main() -> None:
    lines = ["region,a,b,log_complement,log_q1"]
    with mp.workdps(DIGITS):
        for region, a, b in regions():
            value = complement_series(a, b)
            if value > 0:
                near = abs(a - b) <= 1.0 or b <= 1e-3  # short Bessel range; Craig would cancel at tiny zeta
                if near:
                    check = complement_bessel(a, b, value)
                else:
                    check = craig_small(a, b)
                    check = 1 - check if b > a else check
                if abs(check / value - 1) > CROSS_CHECK_REL:
                    raise SystemExit(f"cross-check failed at a={a!r}, b={b!r}: {value} vs {check}")
                log_value = mp.nstr(mp.log(value), 25)
                log_q = mp.nstr(log_q1(a, b, value, near), 25)
            else:
                log_value, log_q = "-inf", "0.0"
            lines.append(f"{region},{a!r},{b!r},{log_value},{log_q}")
            print(lines[-1], flush=True)
    TABLE.parent.mkdir(exist_ok=True)
    TABLE.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(lines) - 1} rows to {TABLE}")


if __name__ == "__main__":
    main()
