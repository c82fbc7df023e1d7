import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import i0e

from uavrelay import specfun
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
        ],
    )
    def test_reference_values(self, order, x, expected):
        assert bessel_i_n(order, x) == pytest.approx(expected, rel=1e-10)

    def test_three_term_recurrence(self):
        # I_{n-1}(x) - I_{n+1}(x) = (2n/x) I_n(x)
        for n in range(1, 6):
            for x in [0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 35.0, 50.0]:
                lhs = bessel_i_n(n - 1, x) - bessel_i_n(n + 1, x)
                rhs = 2.0 * n / x * bessel_i_n(n, x)
                assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_branch_crossover_agreement(self):
        for x in [25.0, 28.0, 30.0, 32.0, 35.0]:
            for n in range(0, 4):
                with mock.patch.object(specfun, "_ASYMPTOTIC_THRESHOLD", 1e6):
                    series_val = bessel_i_n(n, x)
                with mock.patch.object(specfun, "_ASYMPTOTIC_THRESHOLD", 20.0):
                    asym_val = bessel_i_n(n, x)
                assert asym_val == pytest.approx(series_val, rel=1e-6)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bessel_i_n(0, -1.0)
        with pytest.raises(ValueError):
            bessel_i_n(-1, 1.0)

    def test_overflow_signal(self):
        with pytest.raises(OverflowError):
            bessel_i_n(0, 800.0)


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
        # Series start underflows but the gap makes the limit exact.
        assert _marcum_q1_complement(4.47, 225.0) == 1.0
        assert marcum_q1(4.47, 225.0) == 0.0
        assert _marcum_q1_complement(225.0, 4.47) == 0.0
        assert marcum_q1(225.0, 4.47) == 1.0

    def test_ambiguous_extreme_band_raises(self):
        with pytest.raises(OverflowError):
            marcum_q1(38.0, 39.0)
        with pytest.raises(OverflowError):
            _marcum_q1_complement(38.0, 39.0)


def _loop_outcomes(a, bs):
    """The scalar loop at each threshold: its value, or the first exception type."""
    values = []
    for b in bs:
        try:
            values.append(_marcum_q1_complement(a, b))
        except (OverflowError, RuntimeError) as exc:
            return type(exc)
    return [value.hex() for value in values]


@st.composite
def thresholds(draw):
    """A noncentrality a and a mixed threshold list for it.

    Besides ordinary thresholds the list can hold 0, inf, and thresholds in
    the b^2/2 >= 700 band, either far enough from a for the exact 0/1
    shortcut or too close to it (the overflow error path).
    """
    a = draw(st.floats(min_value=0.0, max_value=40.0))
    band_floor = math.sqrt(1400.0)
    special = st.sampled_from([0.0, math.inf, max(a, band_floor) + 9.0, a + 30.0])
    if a - 9.0 >= band_floor:
        special |= st.just(a - 9.0)
    ordinary = st.floats(min_value=0.0, max_value=band_floor, exclude_max=True)
    near_band = st.floats(min_value=band_floor, max_value=band_floor + 12.0)
    bs = draw(st.lists(ordinary | special | near_band, min_size=1, max_size=60))
    return a, bs


class TestMarcumComplementArray:
    """The array path equals the scalar loop bit for bit, errors included."""

    @given(thresholds(), st.sampled_from([specfun._MAX_TERMS, 50]))
    @settings(max_examples=200, deadline=None)
    def test_equals_scalar_loop(self, case, max_terms):
        a, bs = case
        with mock.patch.object(specfun, "_MAX_TERMS", max_terms):
            expected = _loop_outcomes(a, bs)
            if isinstance(expected, type):
                with pytest.raises(expected):
                    _marcum_q1_complement(a, np.array(bs, dtype=float))
            else:
                got = _marcum_q1_complement(a, np.array(bs, dtype=float))
                assert [value.hex() for value in got.tolist()] == expected

    @pytest.mark.parametrize("a", [0.0, 0.7, 3.0, 8.0, 16.0, 24.0, 29.5, 37.0])
    def test_dense_thresholds_equal_scalar_loop(self, a):
        # Every regime below the band: tail and far-pmf stops, tiny and
        # near-1 complements, and series long enough to double their block.
        bs = np.linspace(0.0, math.sqrt(1400.0), 401, endpoint=False)
        expected = [_marcum_q1_complement(a, b).hex() for b in bs.tolist()]
        assert [value.hex() for value in _marcum_q1_complement(a, bs).tolist()] == expected

    @pytest.mark.parametrize(
        "a, bs, cells",
        [
            # An alpha grid of one hop at K = 25 dB: b scales as alpha^(-1/2),
            # from the far tail (b well below a) through the transition.
            (math.sqrt(2.0 * 10**2.5), np.sqrt(0.1 * 2.0 * 10**2.5 / np.linspace(0.001, 0.999, 999)), 315165),
            (37.0, np.linspace(0.0, math.sqrt(1400.0), 401, endpoint=False), 274270),
        ],
        ids=["alpha-grid-25-db", "dense-37"],
    )
    def test_far_tail_rows_are_computed_once(self, monkeypatch, a, bs, cells):
        # Far-tail rows stop past the term estimate for their b; the blocks
        # after them are sized from the terms they took, so no row misses its
        # block and goes round again. Deterministic counts, not timings.
        bs = bs[0.5 * bs * bs < 700.0]
        blocks = []
        true_block = specfun._complement_block

        def counting(b2h, cdf_a):
            blocks.append((b2h.size, cdf_a.size + 1))
            return true_block(b2h, cdf_a)

        monkeypatch.setattr(specfun, "_complement_block", counting)
        got = _marcum_q1_complement(a, bs)
        assert sum(rows for rows, _ in blocks) == np.count_nonzero(bs)
        assert sum(rows * terms for rows, terms in blocks) == cells
        assert [value.hex() for value in got.tolist()] == [_marcum_q1_complement(a, b).hex() for b in bs.tolist()]

    def test_error_paths(self):
        with pytest.raises(OverflowError):
            _marcum_q1_complement(38.0, np.array([1.0, 39.0, 0.0]))
        with mock.patch.object(specfun, "_MAX_TERMS", 50), pytest.raises(RuntimeError):
            _marcum_q1_complement(10.0, np.array([0.0, 12.0]))
        with pytest.raises(ValueError):
            _marcum_q1_complement(1.0, np.array([1.0, -0.5]))


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

    def test_large_argument_stability(self):
        # a*b far beyond the overflow point of the unscaled Bessel function
        value = marcum_q1_partial_b(30.0, 40.0)
        assert math.isfinite(value)
        assert value < 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            marcum_q1_partial_a(0.0, 1.0)
        with pytest.raises(ValueError):
            marcum_q1_partial_b(1.0, 0.0)

