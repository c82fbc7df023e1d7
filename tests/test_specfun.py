import csv
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import i0e, i1e, ive
from scipy.stats import ncx2

from uavrelay import _arrays, specfun
from uavrelay.specfun import (
    _marcum_q1_complement,
    bessel_i_n,
    marcum_q1,
    marcum_q1_partial_a,
    marcum_q1_partial_b,
)

# ---------------------------------------------------------------------------
# Independent oracles. These never touch the series code under test.
# ---------------------------------------------------------------------------


def i0_trapezoid(x: float, n: int = 4096) -> float:
    """I_0(x) = (1/pi) * int_0^pi exp(x cos t) dt by the trapezoid rule.

    The integrand is the restriction of a smooth even periodic function, so
    the rule converges spectrally; n = 4096 is far beyond 1e-12 accuracy.
    """
    h = math.pi / n
    total = 0.5 * (math.exp(x) + math.exp(-x))
    total += sum(math.exp(x * math.cos(k * h)) for k in range(1, n))
    return total * h / math.pi


def marcum_q1_quadrature(a: float, b: float) -> float:
    """Q_1(a, b) as the survival integral of the Rician amplitude density.

    Uses scipy quadrature with the exponentially scaled Bessel function so
    the integrand stays bounded: t*exp(-(t^2+a^2)/2)*I0(at)
    = t*exp(-(t-a)^2/2)*i0e(at).
    """
    upper = max(a, b) + 40.0  # integrand is ~exp(-800) beyond this
    if b >= upper:
        return 0.0
    points = [a] if b < a < upper else None
    value, _ = quad(
        lambda t: t * math.exp(-0.5 * (t - a) ** 2) * i0e(a * t),
        b,
        upper,
        epsabs=1e-13,
        epsrel=1e-13,
        limit=300,
        points=points,
    )
    return value


def marcum_complement_quadrature(a: float, b: float) -> float:
    """1 - Q_1(a, b) as the lower-tail integral of the same density."""
    value, _ = quad(
        lambda t: t * math.exp(-0.5 * (t - a) ** 2) * i0e(a * t),
        0.0,
        b,
        epsabs=1e-300,
        epsrel=1e-12,
        limit=300,
    )
    return value


def central_diff(fn, x: float, step: float = 1e-6) -> float:
    return (fn(x + step) - fn(x - step)) / (2.0 * step)


# Frozen 50-digit reference values for the oracles and spot checks.
I0_AT_2 = 2.2795853023360672674372044408
I0_AT_20 = 43558282.559553533272106660089
I0_AT_30 = 781672297823.97748971738981671
I1_AT_1 = 0.56515910399248502720769602761
I0_AT_1 = 1.2660658777520083355982446252
I3_AT_7P5 = 142.06144236359167641029954841
I2_AT_45 = 1.9918525879736891643308994195e18
I5_AT_120 = 4.2824178679842916538168870684e50
I0_AT_700 = 1.5295933476718737363162072289e302
Q1_AT_1_2 = 0.26901206003590999667851695922
# Frozen 30-digit values where x is not large against n^2, so that the
# large-argument expansion (A&S 9.7.1) does not hold, and near the top of
# the double range.
I12_AT_30 = 70361879442.410202702223226293
I20_AT_40 = 104459633129479.92367529640674
I50_AT_100 = 4.8219580855940806688574494111e36
I300_AT_700 = 4.4962780853427053785134159244e274
I0_AT_713 = 6.7051282636709966729172757369e307


# ---------------------------------------------------------------------------
# bessel_i_n
# ---------------------------------------------------------------------------


class TestBesselIN:
    def test_zero_argument(self):
        assert bessel_i_n(0, 0.0) == 1.0
        assert bessel_i_n(1, 0.0) == 0.0
        assert bessel_i_n(5, 0.0) == 0.0

    def test_series_against_trapezoid_oracle(self):
        oracle = i0_trapezoid(2.0)
        assert oracle == pytest.approx(I0_AT_2, rel=1e-13)
        assert bessel_i_n(0, 2.0) == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize(
        "order,x,expected",
        [
            (0, 2.0, I0_AT_2),
            (0, 20.0, I0_AT_20),
            (0, 30.0, I0_AT_30),
            (1, 1.0, I1_AT_1),
            (0, 1.0, I0_AT_1),
            (3, 7.5, I3_AT_7P5),
            (2, 45.0, I2_AT_45),
            (5, 120.0, I5_AT_120),
            (0, 700.0, I0_AT_700),
            (12, 30.0, I12_AT_30),
            (20, 40.0, I20_AT_40),
            (50, 100.0, I50_AT_100),
            (300, 700.0, I300_AT_700),
            (0, 713.0, I0_AT_713),
        ],
    )
    def test_reference_values(self, order, x, expected):
        assert bessel_i_n(order, x) == pytest.approx(expected, rel=1e-12)

    @given(st.integers(min_value=0, max_value=300), st.floats(min_value=1e-6, max_value=713.98))
    @settings(max_examples=500, deadline=None)
    def test_matches_scipy_at_every_order(self, order, x):
        # scipy's unscaled iv is off by up to 1.2e-12, or inf, above
        # x = 709.78, where e^x overflows; its scaled ive is not. e^x is
        # applied in two halves so that the reference stays finite there.
        reference = ive(order, x) * math.exp(0.5 * x) * math.exp(0.5 * x)
        if 1e-280 <= reference <= 1.7e308:
            assert bessel_i_n(order, x) == pytest.approx(reference, rel=1e-12, abs=0.0)

    def test_three_term_recurrence(self):
        # I_{n-1}(x) - I_{n+1}(x) = (2n/x) I_n(x)
        for n in range(1, 6):
            for x in [0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 35.0, 50.0]:
                lhs = bessel_i_n(n - 1, x) - bessel_i_n(n + 1, x)
                rhs = 2.0 * n / x * bessel_i_n(n, x)
                assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bessel_i_n(0, -1.0)
        with pytest.raises(ValueError):
            bessel_i_n(-1, 1.0)
        with pytest.raises(ValueError):
            bessel_i_n(0, math.nan)

    def test_overflow_signal(self):
        for x in [714.0, 800.0, math.inf]:
            with pytest.raises(OverflowError, match=r"exceeds the double-precision range$"):
                bessel_i_n(0, x)

    def test_unconverged_series_raises(self):
        # x = 20 needs about 40 terms of the power series.
        with mock.patch.object(specfun, "_MAX_TERMS", 3):
            with pytest.raises(RuntimeError, match=r"^I_0\(20\.0\) series did not converge in 3 terms$"):
                bessel_i_n(0, 20.0)


# ---------------------------------------------------------------------------
# marcum_q1 and partial derivatives
# ---------------------------------------------------------------------------


class TestMarcumQ1:
    def test_zero_threshold_is_one(self):
        for a in [0.0, 0.5, 1.0, 5.0]:
            assert marcum_q1(a, 0.0) == 1.0

    def test_rayleigh_reduction(self):
        for b in [0.3, 1.0, 2.5, 6.0]:
            assert marcum_q1(0.0, b) == pytest.approx(math.exp(-0.5 * b * b), rel=1e-12)

    def test_against_frozen_quadrature(self):
        assert marcum_q1(1.0, 2.0) == pytest.approx(Q1_AT_1_2, abs=1e-10)

    def test_against_quadrature_grid(self):
        for a in [0.0, 0.5, 1.0, 2.0, 5.0]:
            for b in [0.0, 0.5, 1.0, 2.0, 5.0, 10.0]:
                assert marcum_q1(a, b) == pytest.approx(
                    marcum_q1_quadrature(a, b), abs=1e-10
                )

    def test_monotone_grid(self):
        a_grid = [5.0 * i / 49 for i in range(50)]
        b_grid = [10.0 * j / 49 for j in range(50)]
        values = [[marcum_q1(a, b) for b in b_grid] for a in a_grid]
        for i in range(50):
            for j in range(50):
                assert 0.0 <= values[i][j] <= 1.0
                if j > 0:
                    assert values[i][j] <= values[i][j - 1] + 1e-14
                if i > 0:
                    assert values[i][j] >= values[i - 1][j] - 1e-14

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            marcum_q1(-0.1, 1.0)
        with pytest.raises(ValueError):
            marcum_q1(1.0, -0.1)

    @given(
        st.floats(min_value=0.0, max_value=20.0),
        st.floats(min_value=0.0, max_value=30.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_bounds_property(self, a, b):
        assert 0.0 <= marcum_q1(a, b) <= 1.0

    @given(
        st.floats(min_value=0.0, max_value=10.0),
        st.floats(min_value=0.0, max_value=12.0),
        st.floats(min_value=1e-3, max_value=5.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_nonincreasing_in_b_property(self, a, b, db):
        assert marcum_q1(a, b + db) <= marcum_q1(a, b) + 1e-12


class TestMarcumComplement:
    def test_identity_with_marcum(self):
        for a in [0.0, 0.5, 2.0, 4.47, 8.0]:
            for b in [0.5, 1.0, 3.2, 10.0, 25.0]:
                assert _marcum_q1_complement(a, b) == pytest.approx(
                    1.0 - marcum_q1(a, b), abs=1e-13
                )

    def test_relative_accuracy_for_tiny_complement(self):
        # 1 - Q here is ~1e-22, far below where 1 - marcum_q1 can resolve.
        value = _marcum_q1_complement(10.0, 0.5)
        assert value == pytest.approx(
            marcum_complement_quadrature(10.0, 0.5), rel=1e-8
        )

    def test_extreme_threshold_saturates(self):
        # The small side underflows, so the large side is exactly 1.
        assert _marcum_q1_complement(4.47, 225.0) == 1.0
        assert marcum_q1(4.47, 225.0) == 0.0
        assert _marcum_q1_complement(225.0, 4.47) == 0.0
        assert marcum_q1(225.0, 4.47) == 1.0

    def test_former_overflow_band_answers(self):
        # (38, 39) lies in the band where the Poisson series the package once
        # used overflowed: max(a, b)^2/2 >= 700 with |a - b| < 9.
        q, c = marcum_q1(38.0, 39.0), _marcum_q1_complement(38.0, 39.0)
        assert q == pytest.approx(ncx2.sf(39.0**2, 2.0, 38.0**2), rel=1e-7)
        assert c == pytest.approx(ncx2.cdf(39.0**2, 2.0, 38.0**2), rel=1e-7)
        assert q + c == pytest.approx(1.0, abs=2e-16)

    def test_edge_arguments(self):
        # Finite values in [0, 1] with no warning or exception anywhere in the
        # range, up to thresholds of 1e300.
        for a in (0.0, 1e-300, 1.0, 37.0, 632.0, 1e5, 1e150):
            for b in (0.0, math.inf, 1e-300, 1e300, a, a * (1.0 + 1e-12), a * (1.0 - 1e-12), 38.0):
                q, c = marcum_q1(a, b), _marcum_q1_complement(a, b)
                assert 0.0 <= q <= 1.0 and 0.0 <= c <= 1.0, (a, b, q, c)
            assert (marcum_q1(a, 0.0), _marcum_q1_complement(a, 0.0)) == (1.0, 0.0)
            for b in (math.inf, 1e300):
                assert (marcum_q1(a, b), _marcum_q1_complement(a, b)) == (0.0, 1.0)
        for bad in ((-1.0, 1.0), (1.0, -0.5), (math.nan, 1.0), (1.0, math.nan)):
            with pytest.raises(ValueError):
                marcum_q1(*bad)
            with pytest.raises(ValueError):
                _marcum_q1_complement(*bad)


@st.composite
def below_diagonal(draw):
    """(a, b) with 0 <= b <= a over the whole double range, with b = a,
    b = 0, subnormals and a*b beyond _MAX_KAPPA among them."""
    a = draw(
        st.one_of(
            st.floats(min_value=0.0, max_value=1.7976931348623157e308),
            st.floats(min_value=0.0, max_value=2.2250738585072014e-308),
            st.sampled_from([0.0, 5e-324, 1.0, math.sqrt(specfun._MAX_KAPPA), 1e200, 1.7976931348623157e308]),
        )
    )
    b = draw(
        st.one_of(
            st.just(a),
            st.just(0.0),
            st.floats(min_value=0.0, max_value=a),
            st.floats(min_value=0.0, max_value=1.0).map(lambda x: x * a),
            st.floats(min_value=0.0, max_value=2.2250738585072014e-308).map(lambda x: min(x, a)),
        )
    )
    return a, b


class TestMarcumComplementBelowDiagonal:
    """Where b <= a, Q_1(a, b) >= Q_1(a, a) = (1 + e^(-a^2) I_0(a^2))/2 > 1/2,
    so the complement is at most 1/2: the optimizer's saturation check asks
    the kernel nothing there."""

    @given(below_diagonal())
    @example((0.0, 0.0))
    @example((5e-324, 5e-324))
    @example((5e-324, 0.0))
    @example((1.0, 1.0))
    @example((5.0, 5.0))
    @example((1e200, 1e200))
    @example((1e200, 1e199))
    @example((1.7976931348623157e308, 1.7976931348623157e308))
    @settings(max_examples=2000, deadline=None)
    def test_complement_at_most_half(self, args):
        a, b = args
        assert 0.0 <= _marcum_q1_complement(a, b) <= 0.5, (a, b)


# Written by tests/make_marcum_table.py from 40-digit mpmath; see its docstring.
TABLE = Path(__file__).parent / "data" / "marcum_complement.csv"


def _read_table():
    """Region -> list of (a, b, log(1 - Q_1), log Q_1) from the frozen mpmath table."""
    table = {}
    with open(TABLE, encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            table.setdefault(row["region"], []).append(
                (float(row["a"]), float(row["b"]), float(row["log_complement"]), float(row["log_q1"]))
            )
    return table


MARCUM_TABLE = _read_table()
LOG_1E_300 = math.log(1e-300)


@st.composite
def mixed_thresholds(draw):
    """(a, thresholds, a permutation of them): thresholds on both sides of the
    diagonal b = a and of the whole-period edge a*b = _WHOLE_KAPPA, over the
    whole double range, and the entries b = 0, inf, a, the edge and 1.7e308
    (a*b beyond _MAX_KAPPA wherever a >= 1)."""
    a = draw(st.one_of(st.floats(min_value=0.0, max_value=700.0), st.sampled_from([0.0, 1e-300, 5.0, 1e154, 1e200])))
    edge = specfun._WHOLE_KAPPA / a if a >= 1e-300 else 1.0
    threshold = st.one_of(
        st.floats(min_value=0.0, max_value=3.0).map(lambda x: x * a),
        st.floats(min_value=0.0, max_value=3.0).map(lambda x: x * edge),
        st.floats(min_value=0.0, max_value=1.7e308),
        st.sampled_from([0.0, math.inf, a, edge, 1.7e308]),
    )
    bs = draw(st.lists(threshold, min_size=1, max_size=40))
    return a, np.array(bs), draw(st.permutations(range(len(bs))))


def block_edge_case(a, *ranges):
    """(a, thresholds, a permutation of them) with b = 0, inf and 1.7e308 and
    ``_ROW_BLOCK`` + 44 thresholds spread over each (low, high) range, all
    shuffled, so that each range's row group spans a kernel block edge."""
    spread = [np.linspace(low, high, _arrays._ROW_BLOCK + 44) for low, high in ranges]
    bs = np.concatenate([[0.0, math.inf, 1.7e308], *spread])
    rng = np.random.default_rng(len(bs))
    return a, bs[rng.permutation(bs.size)], rng.permutation(bs.size).tolist()


class TestMarcumComplementArray:
    """The array path: one quadrature over all thresholds, against oracles."""

    @pytest.mark.parametrize("region", sorted(MARCUM_TABLE))
    def test_matches_frozen_table(self, region):
        # Dense grids at the old series' a values, a 25 dB alpha grid, the
        # near-diagonal down to |a - b| = 1e-12, values down to 1e-300, and
        # a up to 632 (K near 50 dB), each noncentrality in one array call.
        by_a = {}
        for a, b, log_ref, _ in MARCUM_TABLE[region]:
            by_a.setdefault(a, []).append((b, log_ref))
        for a, entries in by_a.items():
            got = _arrays._complement_quadrature(a, np.array([b for b, _ in entries]))
            for value, (b, log_ref) in zip(got.tolist(), entries):
                if log_ref >= LOG_1E_300:
                    assert value > 0.0 and abs(math.log(value) - log_ref) <= 1e-11, (a, b, value, log_ref)
                else:
                    assert 0.0 <= value <= 1e-300, (a, b, value, log_ref)

    @given(
        st.floats(min_value=0.0, max_value=200.0),
        st.lists(st.floats(min_value=0.0, max_value=200.0), min_size=1, max_size=20),
    )
    @settings(max_examples=300, deadline=None)
    def test_against_noncentral_chi_square(self, a, bs):
        # 1 - Q_1(a, b) and Q_1(a, b) are the cdf and the survival function of
        # a noncentral chi-square with 2 degrees of freedom and noncentrality
        # a^2, at b^2. ncx2 is no oracle in the deep tail, so each side is
        # checked only where it is at least 1e-30, at the tolerance of
        # test_against_noncentral_chi_square in test_outage. Q_1 is checked
        # where b > a, where it is the small side: for tiny b at large a,
        # ncx2.sf raises OverflowError.
        got = _arrays._complement_quadrature(a, np.array(bs))
        for value, b in zip(got.tolist(), bs):
            cdf = ncx2.cdf(b * b, 2.0, a * a)
            if cdf >= 1e-30:
                assert abs(value - cdf) <= 1e-7 * cdf + 2e-15, (a, b, value, cdf)
            sf = ncx2.sf(b * b, 2.0, a * a) if b > a else 0.0
            if sf >= 1e-30:
                assert abs((1.0 - value) - sf) <= 1e-7 * sf + 2e-15, (a, b, value, sf)

    @given(mixed_thresholds())
    @example((2.0, np.array([3.0, 1.0, 20.0, 2.0, 0.0, math.inf, 1.7e308]), [6, 0, 3, 5, 1, 4, 2]))
    @example((10.0, np.array([9.0, 2.0, 20.0, 10.0, 0.0, math.inf, 1.7e308]), [2, 4, 6, 0, 1, 3, 5]))
    @example(block_edge_case(2.0, (1e-3, 2.0), (2.001, 12.5), (12.6, 1e4)))
    @example(block_edge_case(10.0, (1e-3, 2.5), (2.51, 10.0), (10.001, 1e4)))
    @settings(max_examples=300, deadline=None)
    def test_batch_invariant(self, case):
        # The kernel evaluates each (whole period, above the diagonal) group
        # of rows as one block and scatters the results back. Each entry must
        # equal, to the bit, the same threshold taken alone and the same
        # threshold at another place of the array; a wrong gather or scatter
        # moves a value to another row. The first two examples take all four
        # groups, b = 0, b = inf, b = a and a*b beyond _MAX_KAPPA; the last
        # two take all four groups again, each on both sides of a block edge.
        a, bs, order = case
        got = _arrays._complement_quadrature(a, bs)
        alone = np.concatenate([_arrays._complement_quadrature(a, bs[i : i + 1]) for i in range(bs.size)])
        assert got.tobytes() == alone.tobytes(), (a, bs, got, alone)
        assert got[order].tobytes() == _arrays._complement_quadrature(a, bs[order]).tobytes(), (a, bs, order)

    def test_edge_entries(self):
        # Finite values in [0, 1] with no warning (pytest turns RuntimeWarning
        # into an error).
        for a in (0.0, 1.0, 37.0, 632.0):
            bs = np.array([0.0, math.inf, 1e-300, 1e300, a, a * (1.0 + 1e-12), a * (1.0 - 1e-12), 38.0])
            got = _arrays._complement_quadrature(a, bs)
            assert np.all(np.isfinite(got) & (got >= 0.0) & (got <= 1.0)), (a, got)
            assert got[0] == 0.0 and got[1] == 1.0 and got[3] == 1.0
        assert _arrays._complement_quadrature(0.0, np.array([1.0]))[0] == pytest.approx(-math.expm1(-0.5), rel=1e-14)
        for bad in (np.array([1.0, -0.5]), np.array([math.nan]), np.array([2.0, math.nan, 1.0])):
            with pytest.raises(ValueError):
                _arrays._complement_quadrature(1.0, bad)
        for bad_a in (-1.0, math.nan):
            with pytest.raises(ValueError):
                _arrays._complement_quadrature(bad_a, np.array([1.0]))


class TestMarcumScalarQuadrature:
    """The scalar path: the same rule in plain floats, for Q_1 and 1 - Q_1."""

    @pytest.mark.parametrize("region", sorted(MARCUM_TABLE))
    def test_matches_frozen_table(self, region):
        # The scalar evaluator on both columns: 1 - Q_1 and Q_1 each within
        # 1e-11 in log wherever the value is at least 1e-300. The rows above
        # the diagonal with a*b <= 25 are where Q_1 must come from its own
        # weight, not from 1 - (1 - Q_1).
        for a, b, log_complement, log_q1 in MARCUM_TABLE[region]:
            got_q1, got_complement = specfun._log_marcum(a, b)[:2]
            for got, log_ref, value in (
                (got_complement, log_complement, _marcum_q1_complement(a, b)),
                (got_q1, log_q1, marcum_q1(a, b)),
            ):
                if log_ref >= LOG_1E_300:
                    assert abs(got - log_ref) <= 1e-11, (a, b, got, log_ref)
                    assert abs(math.log(value) - log_ref) <= 1e-11, (a, b, value, log_ref)
                else:
                    assert 0.0 <= value <= 1e-300, (a, b, value, log_ref)

    @given(
        st.floats(min_value=0.0, max_value=700.0),
        st.lists(st.floats(min_value=0.0, max_value=750.0), min_size=1, max_size=20),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_array_entry(self, a, bs):
        # Both evaluators apply one rule; only summation order and libm
        # differ. Each value is exp of a log, so it also carries the log's
        # rounding, up to 2.3e-16 |log value| relative in deep tails.
        got = _arrays._complement_quadrature(a, np.array(bs))
        for value, b in zip(got.tolist(), bs):
            scalar = _marcum_q1_complement(a, b)
            if value >= 1e-300:
                assert abs(scalar - value) <= (1e-13 + 2.3e-16 * abs(math.log(value))) * value, (a, b, scalar, value)
            else:
                assert scalar <= 1e-299, (a, b, scalar, value)


    def test_bessel_terms_match_scipy(self):
        # log I_0e(ab) and I_1(ab)/I_0(ab) from the Marcum nodes, against
        # scipy's Cephes i0e and i1e, over a from 1e-3 to 1e3 and b/a from
        # 10^-1.5 to 10^1.5: whole-period rows and windows, on both sides of
        # the diagonal. Against 40-digit mpmath the same sample was within
        # 1.3e-15 (log) and 6.4e-16 (ratio).
        rng = np.random.default_rng(17)
        for a, b in zip(10.0 ** rng.uniform(-3.0, 3.0, 400), 10.0 ** rng.uniform(-1.5, 1.5, 400)):
            b *= a
            _, _, log_i0e, ratio, _ = specfun._log_marcum(a, b)
            kappa = a * b
            assert abs(log_i0e - math.log(i0e(kappa))) <= 4e-15, (a, b)
            assert abs(ratio - i1e(kappa) / i0e(kappa)) <= 2e-15, (a, b)

    def test_bessel_terms_at_the_ends(self):
        # kappa = 0 at b = 0 or a = 0, and the limit kappa -> inf at b = inf.
        assert specfun._log_marcum(3.0, 0.0) == (0.0, -math.inf, 0.0, 0.0, -math.inf)
        assert specfun._log_marcum(3.0, math.inf) == (-math.inf, 0.0, -math.inf, 1.0, -math.inf)
        _, _, log_i0e, ratio, _ = specfun._log_marcum(0.0, 2.0)
        assert abs(log_i0e) <= 1e-15 and abs(ratio) <= 1e-15


    def test_unshifted_log_far_above_the_diagonal(self):
        # Q_1(a, b) = sqrt(b/a) Q(b - a) (1 + O((b - a)^-2)) far above the
        # diagonal, with Q the Gaussian tail, so the small side's log before
        # the shift, log Q_1 + (a - b)^2/2, tends to log(b/a)/2 - log(2 pi)/2
        # - log(b - a). The kernel's own sum meets it; adding (a - b)^2/2 back
        # to log Q_1 would leave rounding noise of the size of its ulp.
        for a, b in [(1e5, 1.3e5), (1e10, 1.5e10), (2.4e27, 3.0e27)]:
            log_q, _, _, _, log_sum = specfun._log_marcum(a, b)
            expected = 0.5 * math.log(b / a) - 0.5 * math.log(2.0 * math.pi) - math.log(b - a)
            assert abs(log_sum - expected) <= 1e-8 * abs(expected), (a, b, log_sum, expected)
            assert log_q == -0.5 * (a - b) * (a - b) + log_sum


class TestMarcumOverflowingNoncentrality:
    """Beyond a*b = _MAX_KAPPA, half the largest double, the quadrature's 2ab
    would overflow. There a and b are equal or more than 7e137 apart, and
    both kernels give the Marcum function's limit."""

    def test_former_failures_answer(self):
        # These raised ZeroDivisionError, gave NaN in the log I_0e and ratio
        # entries, and gave NaN from the array form.
        assert specfun._log_marcum(1e200, 1e200)[:2] == (-math.log(2.0), -math.log(2.0))
        log_q, log_out, log_i0e, ratio, log_sum = specfun._log_marcum(5.0, 1.7e308)
        assert (log_q, log_out, ratio, log_sum) == (-math.inf, 0.0, 1.0, 0.0)
        assert log_i0e == pytest.approx(-0.5 * (math.log(2.0 * math.pi * 5.0) + math.log(1.7e308)), rel=1e-15)
        assert _arrays._complement_quadrature(1e5, np.array([1e304])).tolist() == [1.0]
        # Below, on and above the diagonal, in both forms.
        bs = [1e199, 1e200, 1e201]
        assert _arrays._complement_quadrature(1e200, np.array(bs)).tolist() == [0.0, 0.5, 1.0]
        assert [_marcum_q1_complement(1e200, b) for b in bs] == [0.0, 0.5, 1.0]

    def test_limit_continues_the_quadrature(self):
        # On either side of _MAX_KAPPA on the diagonal, where Q_1 is 1/2 to
        # double precision and I_0e(ab) is 1/sqrt(2 pi ab) to 1e-300.
        below, above = math.sqrt(specfun._MAX_KAPPA) * (1.0 - 1e-15), math.sqrt(specfun._MAX_KAPPA) * (1.0 + 1e-15)
        assert below * below <= specfun._MAX_KAPPA < above * above
        inside, outside = specfun._log_marcum(below, below), specfun._log_marcum(above, above)
        for got, near in zip(outside, inside):
            assert got == pytest.approx(near, rel=1e-13)

    @given(st.floats(min_value=0.0, max_value=1.7e308), st.floats(min_value=0.0, max_value=1.7e308))
    @settings(max_examples=500, deadline=None)
    def test_every_finite_argument_answers(self, a, b):
        # Finite, in range and consistent over the whole double range, with
        # no exception.
        log_q, log_out, log_i0e, ratio, _ = specfun._log_marcum(a, b)
        q, out = math.exp(log_q), math.exp(log_out)
        assert 0.0 <= q <= 1.0 and 0.0 <= out <= 1.0, (a, b, q, out)
        assert abs(q + out - 1.0) <= 1e-12, (a, b, q, out)
        assert -math.inf < log_i0e <= 1e-15 and -1e-15 <= ratio <= 1.0, (a, b, log_i0e, ratio)
        array = _arrays._complement_quadrature(a, np.array([b]))[0]
        assert array == pytest.approx(out, rel=1e-12, abs=1e-300), (a, b, array, out)


class TestMarcumPartials:
    def test_partial_a_at_zero_threshold(self):
        for a in [0.5, 1.0, 3.0]:
            assert marcum_q1_partial_a(a, 0.0) == 0.0

    def test_partial_a_closed_form_point(self):
        assert marcum_q1_partial_a(1.0, 1.0) == pytest.approx(
            math.exp(-1.0) * I1_AT_1, rel=1e-12
        )

    def test_partial_b_rayleigh_point(self):
        for b in [0.5, 1.5, 3.0]:
            assert marcum_q1_partial_b(0.0, b) == pytest.approx(
                -b * math.exp(-0.5 * b * b), rel=1e-12
            )

    def test_partial_b_closed_form_point(self):
        assert marcum_q1_partial_b(1.0, 1.0) == pytest.approx(
            -math.exp(-1.0) * I0_AT_1, rel=1e-12
        )

    def test_partial_a_matches_finite_difference(self):
        fd = central_diff(lambda a: marcum_q1(a, 2.5), 1.5)
        assert marcum_q1_partial_a(1.5, 2.5) == pytest.approx(fd, rel=1e-6)

    def test_partial_b_matches_finite_difference(self):
        fd = central_diff(lambda b: marcum_q1(1.5, b), 2.5)
        assert marcum_q1_partial_b(1.5, 2.5) == pytest.approx(fd, rel=1e-6)

    def test_partials_match_finite_differences_on_grid(self):
        grid = [0.5, 1.0, 2.0, 4.0]
        for a in grid:
            for b in grid:
                fd_a = central_diff(lambda t: marcum_q1(t, b), a)
                fd_b = central_diff(lambda t: marcum_q1(a, t), b)
                assert marcum_q1_partial_a(a, b) == pytest.approx(fd_a, rel=1e-6)
                assert marcum_q1_partial_b(a, b) == pytest.approx(fd_b, rel=1e-6)

    def test_partial_b_never_positive(self):
        for a in [0.0, 0.5, 2.0, 6.0]:
            for b in [0.2, 1.0, 4.0, 9.0]:
                assert marcum_q1_partial_b(a, b) <= 0.0

    @pytest.mark.parametrize("a", [0.0, 1e-300, 1.0, 30.0, 1e300])
    def test_infinite_threshold_gives_the_limit(self, a):
        # The density b exp(-(a - b)^2/2) I_n(ab) e^-ab vanishes as b -> inf,
        # where the product forms inf * 0 (and a*b is 0 * inf at a = 0).
        if a > 0.0:
            assert marcum_q1_partial_a(a, math.inf) == 0.0
        assert marcum_q1_partial_b(a, math.inf) == 0.0

    def test_large_argument_stability(self):
        # a*b far beyond the overflow point of the unscaled Bessel function
        value = marcum_q1_partial_b(30.0, 40.0)
        assert math.isfinite(value)
        assert value < 0.0

    @given(st.floats(min_value=-6.0, max_value=3.0), st.floats(min_value=-6.0, max_value=3.0))
    @settings(max_examples=500, deadline=None)
    def test_partials_match_scipy_bessel(self, log_a, log_b):
        # a*b spans 1e-12 to 1e6: I_1 comes from the power series below
        # a*b = 1 and from the Marcum nodes above it, I_0 from the nodes.
        a, b = 10.0**log_a, 10.0**log_b
        front = b * math.exp(-0.5 * (a - b) ** 2)
        if front * i1e(a * b) >= 1e-290:
            assert marcum_q1_partial_a(a, b) == pytest.approx(front * i1e(a * b), rel=1e-12, abs=0.0)
        if front * i0e(a * b) >= 1e-290:
            assert marcum_q1_partial_b(a, b) == pytest.approx(-front * i0e(a * b), rel=1e-12, abs=0.0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            marcum_q1_partial_a(0.0, 1.0)
        with pytest.raises(ValueError):
            marcum_q1_partial_b(1.0, 0.0)
        for partial in (marcum_q1_partial_a, marcum_q1_partial_b):
            for args in [(math.nan, 1.0), (1.0, math.nan)]:
                with pytest.raises(ValueError):
                    partial(*args)

