import dataclasses
import math
import random

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import i0e
from scipy.stats import ncx2

from uavrelay import (
    AllocationResult,
    BracketError,
    DEFAULT_SOLVER,
    HopEnvironment,
    LinkBudget,
    LinkGeometry,
    PowerSplit,
    RicianEndpoints,
    SolverConfig,
    end_to_end_outage,
    end_to_end_outage_grid,
    equal_power,
    link_budget,
    minimize_outage_exact,
    outage_gradient_ps,
    snr_threshold,
    solve_theorem1,
    theorem1_constants,
    theorem1_residual,
)
from uavrelay import optimizer, outage, specfun
from uavrelay.specfun import marcum_q1

from conftest import TABLE1, count_sign_changes, make_budget, make_radio, make_symmetric_budget

# Frozen 50-digit evaluations of the root-equation constants at the
# reference parameters, per excess-loss convention.
FROZEN_GAMMA = {
    "standard": (82.762664335909885, 94.824867436279077),
    "paper": (0.064201497283378318, 0.86195482792445136),
}


def result_bytes(res: AllocationResult) -> tuple:
    """The compared fields of an allocation, floats by their exact bits."""
    fields = (res.alpha_star, res.p_s, res.p_u, res.outage, res.method, res.iterations, res.residual)
    return tuple(v.hex() if isinstance(v, float) else v for v in fields)


def random_budget(rng: random.Random, radio) -> LinkBudget:
    """A plausible random asymmetric configuration."""
    h_u = rng.uniform(400.0, 2500.0)
    L = rng.uniform(800.0, 4000.0)
    r_s = rng.uniform(0.2, 0.8) * L
    env_su = HopEnvironment(
        a=rng.uniform(0.1, 0.5),
        b=rng.uniform(5.0, 15.0),
        eta_los_db=rng.uniform(0.8, 2.0),
        eta_nlos_db=rng.uniform(15.0, 30.0),
    )
    env_ud = HopEnvironment(
        a=rng.uniform(0.1, 0.5),
        b=rng.uniform(5.0, 15.0),
        eta_los_db=rng.uniform(0.8, 2.0),
        eta_nlos_db=rng.uniform(15.0, 30.0),
    )
    endpoints = RicianEndpoints(k0_db=rng.uniform(3.0, 7.0), kpi2_db=rng.uniform(10.0, 16.0))
    return link_budget(
        LinkGeometry(h_u, r_s, L), env_su, env_ud, endpoints, endpoints,
        radio, "paper",
    )


class TestTheorem1Constants:
    def test_symmetric_hops_equal(self, radio, symmetric_budget):
        log_gamma_1, log_gamma_2 = theorem1_constants(symmetric_budget, radio)
        assert log_gamma_1 == log_gamma_2

    def test_linear_in_noise(self, table1_budget):
        radio = make_radio()
        lo = theorem1_constants(table1_budget, radio)
        doubled = dataclasses.replace(
            radio, noise_power_dbm=radio.noise_power_dbm + 10.0 * math.log10(2.0)
        )
        hi = theorem1_constants(table1_budget, doubled)
        assert hi[0] == pytest.approx(lo[0] + math.log(2.0), abs=1e-12)
        assert hi[1] == pytest.approx(lo[1] + math.log(2.0), abs=1e-12)

    @pytest.mark.parametrize("convention", ["standard", "paper"])
    def test_frozen_reference_pair(self, radio, convention):
        budget = make_budget(convention=convention)
        log_gamma_1, log_gamma_2 = theorem1_constants(budget, radio)
        expected_1, expected_2 = FROZEN_GAMMA[convention]
        # Within 1e-12 in log: 1e-12 relative in gamma.
        assert log_gamma_1 == pytest.approx(math.log(expected_1), abs=1e-12)
        assert log_gamma_2 == pytest.approx(math.log(expected_2), abs=1e-12)

    def test_logs_do_not_overflow(self, radio):
        # K = 1500 dB: K (K + 1) alone is 1e300, and gamma_i itself is inf.
        budget = LinkBudget(1e-12, 1e-9, 1e150, 1e150)
        log_gamma_1, log_gamma_2 = theorem1_constants(budget, radio)
        expected = 2.0 * math.log(1e150) + math.log(snr_threshold(radio.rate) * radio.noise_power_w)
        assert log_gamma_1 == pytest.approx(expected - math.log(1e-12), rel=1e-14)
        assert log_gamma_2 == pytest.approx(expected - math.log(1e-9), rel=1e-14)
        assert math.isfinite(theorem1_residual(budget, PowerSplit(0.5, 0.5), radio))


class TestTheorem1Residual:
    def test_symmetric_equal_split_is_exact_zero(self, radio, symmetric_budget):
        split = PowerSplit.from_alpha(0.5, radio.total_power_w)
        assert theorem1_residual(symmetric_budget, split, radio) == 0.0

    def test_boundary_divergence(self, radio, table1_budget):
        def residual(alpha):
            return theorem1_residual(table1_budget, PowerSplit.from_alpha(alpha, radio.total_power_w), radio)

        assert residual(1e-9) > 100.0
        assert residual(1.0 - 1e-9) < -100.0

    def test_strictly_decreasing_in_alpha(self, radio):
        rng = random.Random(7)
        for _ in range(20):
            budget = random_budget(rng, radio)
            alphas = [0.01 + 0.98 * i / 60 for i in range(61)]
            values = [theorem1_residual(budget, PowerSplit.from_alpha(a, radio.total_power_w), radio) for a in alphas]
            assert all(b < a for a, b in zip(values, values[1:]))

    def test_rejects_boundary_powers(self, radio, table1_budget):
        with pytest.raises(ValueError):
            theorem1_residual(table1_budget, PowerSplit(0.0, 0.25), radio)

    @given(
        st.floats(min_value=-10.0, max_value=60.0),
        st.floats(min_value=-10.0, max_value=60.0),
        st.floats(min_value=-16.0, max_value=-4.0),
        st.floats(min_value=-16.0, max_value=-4.0),
        st.floats(min_value=-13.0, max_value=13.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_logit_derivative_matches_central_difference(self, k_su_db, k_ud_db, log_g_su, log_g_ud, u):
        # The Newton search takes the derivative in u = logit(alpha) from the
        # residual's own square roots; a central difference of the residual
        # in u checks it. With h = 1e-3 its truncation and its rounding (the
        # residual's terms reach 1e7 here) stayed below 6e-7 relative over
        # 1e5 scratch draws of these ranges.
        radio = make_radio()
        budget = LinkBudget(10.0**log_g_su, 10.0**log_g_ud, 10.0 ** (k_su_db / 10.0), 10.0 ** (k_ud_db / 10.0))

        def residual_at(u):
            return theorem1_residual(budget, split(u), radio)

        def split(u):
            return PowerSplit.from_alpha(0.5 + 0.5 * math.tanh(0.5 * u), radio.total_power_w)

        h = 1e-3
        central = (residual_at(u + h) - residual_at(u - h)) / (2.0 * h)
        at_u = split(u)
        residual, derivative = optimizer._theorem1_residual_du(
            budget, theorem1_constants(budget, radio), at_u.p_s, at_u.p_u
        )
        assert residual == residual_at(u)
        assert derivative <= -1.75
        assert derivative == pytest.approx(central, rel=2e-6)


class TestSolveTheorem1:
    def test_symmetric_gives_half(self, radio, symmetric_budget):
        result = solve_theorem1(symmetric_budget, radio)
        assert result.alpha_star == pytest.approx(0.5, abs=1e-8)
        assert result.method == "theorem1"
        assert result.p_s + result.p_u == pytest.approx(radio.total_power_w, rel=1e-12)

    def test_close_to_exact_minimizer(self, radio, table1_budget):
        approx = solve_theorem1(table1_budget, radio)
        exact = minimize_outage_exact(table1_budget, radio)
        assert abs(approx.alpha_star - exact.alpha_star) <= 0.05

    def test_stronger_second_hop_shifts_alpha_up(self, radio, table1_budget):
        base_t1 = solve_theorem1(table1_budget, radio)
        base_exact = minimize_outage_exact(table1_budget, radio)
        boosted = LinkBudget(
            g_su=table1_budget.g_su,
            g_ud=table1_budget.g_ud * 4.0,
            k_su=table1_budget.k_su,
            k_ud=table1_budget.k_ud,
        )
        boost_t1 = solve_theorem1(boosted, radio)
        boost_exact = minimize_outage_exact(boosted, radio)
        assert boost_t1.alpha_star > base_t1.alpha_star
        assert boost_exact.alpha_star > base_exact.alpha_star

    def test_residual_near_zero_at_solution(self, radio, table1_budget):
        result = solve_theorem1(table1_budget, radio)
        assert abs(result.residual) < 1e-5

    @pytest.mark.parametrize(
        "budget, evaluations",
        [(make_budget(), 5), (make_symmetric_budget(), 1)],
        ids=["table1", "symmetric"],
    )
    def test_residual_evaluations(self, radio, budget, evaluations):
        # The same Newton search as the exact solver, counting its ends. It
        # starts at the balance point gamma_1 / (gamma_1 + gamma_2), the root
        # itself on symmetric hops; a cold search from the bracket end took
        # 10 and 4.
        assert solve_theorem1(budget, radio).iterations == evaluations

    @pytest.mark.parametrize(
        "budget, edge, evaluations",
        [
            (LinkBudget(3.6e-07, 0.036, 0.1, 300.0), 1.0 - 1e-6, 2),
            (LinkBudget(0.036, 3.6e-07, 300.0, 0.1), 1e-6, 2),
        ],
        ids=["hi", "lo"],
    )
    def test_one_signed_residual_gives_the_edge(self, radio, budget, edge, evaluations):
        # One hop has 1e5 times less mean gain and a K factor of 0.1 against
        # 300, so the residual keeps one sign over the whole bracket and the
        # root sits at the end that gives that hop the most power, where the
        # exact optimum sits too. The search starts inside the bracket, so
        # it evaluates the start and then that end.
        result = solve_theorem1(budget, radio)
        assert (result.alpha_star, result.iterations) == (edge, evaluations)
        assert minimize_outage_exact(budget, radio).alpha_star == edge

    @pytest.mark.parametrize("mirrored", [False, True])
    def test_log_gamma_gap_past_the_exp_range(self, radio, mirrored):
        # K = 1500 dB on one hop, 0 dB on the other, full-power SNR margins
        # of 10 and 1e11: log gamma_1 - log gamma_2 = +-713, so the balance
        # point's logistic would overflow as 1 / (1 + exp(-gap)). The
        # residual is then about K (2 / sqrt(10 alpha) - 1) on the strong
        # hop's side, with its root at alpha = 0.4.
        u = snr_threshold(radio.rate) * radio.noise_power_w / radio.total_power_w
        hops = [(10.0 * u, 1e150), (1e11 * u, 1.0)]
        if mirrored:
            hops.reverse()
        (g_su, k_su), (g_ud, k_ud) = hops
        budget = LinkBudget(g_su, g_ud, k_su, k_ud)
        log_gamma_1, log_gamma_2 = theorem1_constants(budget, radio)
        assert abs(log_gamma_1 - log_gamma_2) > 710.0
        result = solve_theorem1(budget, radio)
        assert result.alpha_star == pytest.approx(0.6 if mirrored else 0.4, abs=1e-8)

    def test_region_of_fidelity_narrows_with_k(self):
        # Where Theorem 1 holds: the share of solved budgets whose theorem1
        # row meets criterion 5's bounds (alpha gap <= 0.05, outage ratio
        # <= 1.10), per 10 dB band of the smaller hop's K. A seeded pool over
        # the paper's ranges: each hop's K_0 from -10 to 40 dB and K_pi/2 up
        # to 10 dB above it, h_u 100-2000 m, L 500-3000 m, r_s on [0, L],
        # R in {0.5, 1, 2, 4} and P_t from 1 mW to 10 W. Saturated budgets,
        # and those whose exact outage underflows to 0, have no ratio.
        rng = random.Random(11)
        bands = {band: [0, 0] for band in (-10, 0, 10, 20, 30)}  # band -> [within, solved]
        for _ in range(600):
            endpoints = []
            for _ in range(2):
                k0_db = rng.uniform(-10.0, 40.0)
                endpoints.append(RicianEndpoints(k0_db=k0_db, kpi2_db=k0_db + rng.uniform(0.0, 10.0)))
            h_u, length = rng.uniform(100.0, 2000.0), rng.uniform(500.0, 3000.0)
            geometry = LinkGeometry(h_u=h_u, r_s=rng.uniform(0.0, length), L=length)
            radio = make_radio(total_power_w=10.0 ** rng.uniform(-3.0, 1.0), rate=rng.choice([0.5, 1.0, 2.0, 4.0]))
            budget = link_budget(geometry, TABLE1["env_su"], TABLE1["env_ud"], *endpoints, radio, "paper")
            try:
                approx = solve_theorem1(budget, radio)
            except BracketError:
                continue
            exact = minimize_outage_exact(budget, radio, theorem1=approx)
            if exact.outage == 0.0:
                continue
            k_db = 10.0 * math.log10(min(budget.k_su, budget.k_ud))
            band = bands[min(30, 10 * math.floor(k_db / 10.0))]
            band[0] += abs(approx.alpha_star - exact.alpha_star) <= 0.05 and approx.outage / exact.outage <= 1.10
            band[1] += 1
        assert bands == {-10: [61, 135], 0: [64, 134], 10: [57, 115], 20: [14, 51], 30: [0, 7]}
        # About half below 20 dB, then falling: 0.45, 0.48, 0.50, 0.27, 0.
        shares = [within / solved for within, solved in bands.values()]
        assert min(shares[:3]) > shares[3] > shares[4]

    def test_saturation_check_skips_hops_below_the_diagonal(self, radio, table1_budget, monkeypatch):
        # Where b <= a, Q_1(a, b) > 1/2, so the check cannot fire: at full
        # power both reference hops are there, and the kernel is not asked.
        # The saturated budgets still reach it, and solve_theorem1 raises
        # before it forms the Theorem 1 constants; a NaN raises too.
        calls = []
        true_kernel = outage._log_marcum

        def kernel(a, b):
            calls.append((a, b))
            return true_kernel(a, b)

        monkeypatch.setattr(outage, "_log_marcum", kernel)
        lo, hi = 1e-6, 1.0 - 1e-6
        total = radio.total_power_w
        assert not outage._saturated(table1_budget, radio, hi * total, (1.0 - lo) * total)
        assert calls == []
        for saturated in (make_radio(rate=511.9), make_radio(total_power_w=1e-318)):
            with pytest.raises(BracketError, match="^saturated objective: "):
                solve_theorem1(make_budget(radio=saturated), saturated)
            assert calls
            calls.clear()
        monkeypatch.setattr(outage, "_link_args", lambda *args: [(1.0, 0.5), (1.0, math.nan)])
        with pytest.raises(ValueError):
            outage._saturated(table1_budget, radio, hi * total, (1.0 - lo) * total)

    @given(
        st.floats(min_value=-14.0, max_value=-4.0),
        st.floats(min_value=-14.0, max_value=-4.0),
        st.floats(min_value=-10.0, max_value=60.0),
        st.floats(min_value=-10.0, max_value=60.0),
        st.floats(min_value=-3.0, max_value=1.0),
        st.sampled_from([1.0, 2.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_hop_terms_change_no_bit(self, g_su, g_ud, k_su, k_ud, pt, rate):
        # The theorem1 row's outage comes from the hop terms that the exact
        # search then takes as its first slope evaluation: the same bits as
        # end_to_end_outage at that split, and the same exact row as a
        # search that evaluates its start itself. Its residual is the public
        # theorem1_residual at that split, to the bit.
        budget = LinkBudget(10.0**g_su, 10.0**g_ud, 10.0 ** (k_su / 10.0), 10.0 ** (k_ud / 10.0))
        radio = make_radio(total_power_w=10.0**pt, rate=rate)
        try:
            approx = solve_theorem1(budget, radio)
        except BracketError:
            assume(False)
        split = PowerSplit.from_alpha(approx.alpha_star, radio.total_power_w)
        assert approx.outage.hex() == end_to_end_outage(budget, split, radio).hex()
        assert approx.residual.hex() == theorem1_residual(budget, split, radio).hex()
        handed = minimize_outage_exact(budget, radio, theorem1=approx)
        cold = minimize_outage_exact(budget, radio, theorem1=dataclasses.replace(approx, _hops=None))
        assert result_bytes(handed) == result_bytes(cold) == result_bytes(minimize_outage_exact(budget, radio))


class TestMinimizeOutageExact:
    @pytest.mark.parametrize("mirrored", [False, True])
    def test_cliff_returns_the_live_side(self, radio, mirrored):
        # K = 1500 dB makes the strong hop nearly deterministic: its survival
        # jumps from 0 to 1 within far less than alpha_tol of alpha = 0.1
        # (0.9 mirrored), and the final bracket straddles the jump. The end
        # where that hop fails reads an outage of 1 - 1e-16; the other end,
        # 8.2e-12.
        u = snr_threshold(radio.rate) * radio.noise_power_w / radio.total_power_w
        hops = [(10.0 * u, 1e150), (1e11 * u, 1.0)]
        if mirrored:
            hops.reverse()
        (g_su, k_su), (g_ud, k_ud) = hops
        budget = LinkBudget(g_su, g_ud, k_su, k_ud)
        result = minimize_outage_exact(budget, radio)
        assert result.alpha_star == pytest.approx(0.9 if mirrored else 0.1, abs=1e-8)
        split = PowerSplit.from_alpha(result.alpha_star, radio.total_power_w)
        assert result.outage <= 1e-11
        assert end_to_end_outage(budget, split, radio) <= 1e-11

    @pytest.mark.parametrize("foreign", ["budget", "total-power", "bracket"])
    def test_foreign_theorem1_is_ignored(self, radio, table1_budget, foreign):
        # A theorem1 result of another objective once seeded the search with
        # its own hop terms. Handed the reference row, the reference budget
        # with both gains 30 times weaker read alpha 0.1375 and the
        # reference's outage, 8.5e-5, where the closed form gives 0.664 at
        # that split. Such a hand-off is ignored, bit for bit.
        budget, cfg, handed = table1_budget, DEFAULT_SOLVER, solve_theorem1(table1_budget, radio)
        if foreign == "budget":
            budget = LinkBudget(budget.g_su / 30.0, budget.g_ud / 30.0, budget.k_su, budget.k_ud)
        elif foreign == "total-power":
            handed = solve_theorem1(budget, make_radio(total_power_w=1.0))
        else:
            # The theorem1 root, alpha 0.0029, lies below this bracket.
            budget = LinkBudget(budget.g_su * 1e3, budget.g_ud, budget.k_su, budget.k_ud)
            handed, cfg = solve_theorem1(budget, radio), SolverConfig(bracket_epsilon=0.005)
            assert handed.alpha_star < cfg.bracket_epsilon
        cold = minimize_outage_exact(budget, radio, cfg)
        assert result_bytes(minimize_outage_exact(budget, radio, cfg, theorem1=handed)) == result_bytes(cold)
        split = PowerSplit.from_alpha(cold.alpha_star, radio.total_power_w)
        assert cold.outage == end_to_end_outage(budget, split, radio)

    def test_large_k_keeps_half_the_theorem1_survival(self):
        # K from 150 to 1500 dB per hop, full-power SNR margins 10^-0.5 to
        # 10^3 and R in {0.5, 1, 2}. At such K the log slope is rounding
        # noise. The search then ends anywhere, and the exact row is the
        # best split it evaluated, which includes the Theorem 1 start. When
        # the row was the end of the final bracket, 19 of these budgets lost
        # more than half the theorem1 row's survival. The log survivals are
        # taken afresh from the kernel at each row's split.
        rng = random.Random(1)

        def log_survival(budget, radio, alpha):
            split = PowerSplit.from_alpha(alpha, radio.total_power_w)
            return sum(specfun._log_marcum(a, b)[0] for a, b in outage._link_args(budget, radio, split.p_s, split.p_u))

        solved = 0
        for _ in range(1000):
            radio = make_radio(rate=rng.choice([0.5, 1.0, 2.0]))
            unit_gain = snr_threshold(radio.rate) * radio.noise_power_w / radio.total_power_w
            k_su, k_ud = (10.0 ** rng.uniform(15.0, 150.0) for _ in range(2))
            g_su, g_ud = (unit_gain * 10.0 ** rng.uniform(-0.5, 3.0) for _ in range(2))
            budget = LinkBudget(g_su, g_ud, k_su, k_ud)
            try:
                approx = solve_theorem1(budget, radio)
            except BracketError:
                continue
            exact = minimize_outage_exact(budget, radio, theorem1=approx)
            floor = log_survival(budget, radio, approx.alpha_star) - math.log(2.0)
            assert log_survival(budget, radio, exact.alpha_star) >= floor, (budget, radio.rate)
            solved += 1
        assert solved == 730

    def test_symmetric_gives_half(self, radio, symmetric_budget):
        # Near the flat minimum the outage changes by less than one ulp for
        # |alpha - 0.5| below ~1e-7, so localization past that is noise; the
        # bracket width itself still converges to alpha_tol.
        result = minimize_outage_exact(symmetric_budget, radio)
        assert result.alpha_star == pytest.approx(0.5, abs=1e-6)
        assert result.residual <= 1e-8
        assert result.method == "exact"

    def test_beats_midpoint(self, radio):
        rng = random.Random(11)
        for _ in range(5):
            budget = random_budget(rng, radio)
            result = minimize_outage_exact(budget, radio)
            midpoint = end_to_end_outage(
                budget, PowerSplit.from_alpha(0.5, radio.total_power_w), radio
            )
            assert result.outage <= midpoint + 1e-18

    def test_outage_decreases_with_budget(self, table1_budget):
        outages = [
            minimize_outage_exact(table1_budget, make_radio(total_power_w=pt)).outage
            for pt in (0.25, 0.5, 1.0)
        ]
        assert outages[0] > outages[1] > outages[2]

    def test_respects_power_budget(self, radio, table1_budget):
        result = minimize_outage_exact(table1_budget, radio)
        assert result.p_s + result.p_u == pytest.approx(radio.total_power_w, rel=1e-12)

    @pytest.mark.parametrize("budget", ["table1", "symmetric"])
    def test_slope_evaluations_and_no_grid(self, radio, budget, monkeypatch):
        # Newton from the Theorem 1 root; a cold Brent search took 11 and 3.
        # On symmetric hops that root is 0.5, where the slope is exactly 0:
        # a bracket of width 0 at the first evaluation.
        symmetric = budget == "symmetric"
        budget, evaluations = (make_symmetric_budget(), 1) if symmetric else (make_budget(), 4)
        grid_calls, marcum_calls, bessel_calls = [], [], []
        true_grid, true_marcum = outage.end_to_end_outage_grid, outage._log_marcum
        true_bessel = specfun._bessel_series

        def grid(*args):
            grid_calls.append(args)
            return true_grid(*args)

        def marcum(a, b):
            marcum_calls.append(b)
            return true_marcum(a, b)

        def bessel(*args):
            bessel_calls.append(args)
            return true_bessel(*args)

        monkeypatch.setattr(outage, "end_to_end_outage_grid", grid)
        monkeypatch.setattr(outage, "_log_marcum", marcum)
        monkeypatch.setattr(specfun, "_bessel_series", bessel)
        res = minimize_outage_exact(budget, radio)
        assert grid_calls == [] and bessel_calls == []  # the kernel gives the Bessel terms
        assert len(marcum_calls) == 2 * res.iterations  # one Marcum call per hop per slope evaluation
        assert res.iterations == evaluations
        assert (res.residual == 0.0) if symmetric else (0.0 < res.residual <= 1e-8)

    @pytest.mark.parametrize(
        "radio",
        [make_radio(rate=511.9), make_radio(total_power_w=1e-318)],
        ids=["rate-511.9", "power-1e-318"],
    )
    def test_saturated_objective_raises(self, radio):
        with pytest.raises(BracketError, match="^saturated objective: "):
            minimize_outage_exact(make_budget(radio=radio), radio)

    def test_saturated_probe_raises(self, radio, table1_budget, monkeypatch):
        # Both hops' Q_1 read 0 at a probe that the full-power check (which
        # asks the kernel nothing for these hops, since b <= a) lets through.
        monkeypatch.setattr(outage, "_log_marcum", lambda a, b: (-math.inf, 0.0, -math.inf, 1.0, -math.inf))
        with pytest.raises(BracketError, match="^saturated objective: "):
            minimize_outage_exact(table1_budget, radio)

    def test_saturated_budget_raises(self):
        # The weak hop's Q_1 at full power is 7.5e-78, so its outage rounds
        # to 1 at every split; a series that read its complement as
        # 1 - 8.7e-15 once solved it with an outage of 1 - 5.2e-15.
        radio = make_radio()
        budget = LinkBudget(2.4275357150761724e-12, 2.2451228781494336e-15, 433.9960844480393, 3.2180625729638317)
        with pytest.raises(BracketError, match="^saturated objective: "):
            minimize_outage_exact(budget, radio)

    def test_deep_tail_objective_solves(self, radio):
        # K = 30 dB on both hops with a power margin of 1e8: both hazards
        # underflow to 0 in linear space at the first probe, but their logs
        # stay finite, so the slope has its root, where the log survival's
        # two hop terms balance.
        u = snr_threshold(radio.rate) * radio.noise_power_w / radio.total_power_w
        budget = LinkBudget(1e8 * u, 3e8 * u, 1000.0, 1000.0)
        res = minimize_outage_exact(budget, radio)
        # Newton lands where the slope rounds to exactly 0: a bracket of
        # width 0, checked by the signs below.
        assert res.residual == 0.0
        assert res.iterations == 3
        assert res.outage == 0.0  # far below the double range

        def log_slope(alpha):
            split = PowerSplit.from_alpha(alpha, radio.total_power_w)
            (_, _, _, _, log_hb_1, _), (_, _, _, _, log_hb_2, _) = outage._link_terms(budget, radio, split.p_s, split.p_u)
            return log_hb_1 + math.log1p(-alpha) - log_hb_2 - math.log(alpha)

        assert log_slope(res.alpha_star - 1e-8) > 0.0 > log_slope(res.alpha_star + 1e-8)

    def test_root_against_mpmath_slope(self, radio, table1_budget):
        # The paper reference: the slope g = d log S/d alpha, at 40 digits
        # from the same float inputs, changes sign across alpha* +- alpha_tol.
        # Each hop's survival is Q_1 = 1 - int_0^b t exp(-(t^2 + a^2)/2) I_0(a t) dt,
        # and its hazard the integrand at b over Q_1.
        cfg = SolverConfig()
        res = minimize_outage_exact(table1_budget, radio, cfg)
        scale = snr_threshold(radio.rate) * radio.noise_power_w

        def slope(alpha):
            g = mp.mpf(0)
            for k, gain, share, sign in (
                (table1_budget.k_su, table1_budget.g_su, alpha, 1),
                (table1_budget.k_ud, table1_budget.g_ud, 1 - alpha, -1),
            ):
                a = mp.sqrt(2 * mp.mpf(k))
                b = mp.sqrt(2 * (mp.mpf(k) + 1) * mp.mpf(scale) / (share * mp.mpf(radio.total_power_w) * mp.mpf(gain)))
                density = lambda t: t * mp.exp(-(t * t + a * a) / 2) * mp.besseli(0, a * t)
                g += sign * density(b) / (1 - mp.quad(density, [0, b])) * b / (2 * share)
            return g

        with mp.workdps(40):
            alpha = mp.mpf(res.alpha_star)
            assert slope(alpha - cfg.alpha_tol) > 0 > slope(alpha + cfg.alpha_tol)

    def test_lopsided_high_k_evaluations(self, radio):
        # K of 20-25 dB, one hop's full-power SNR margin near 1 and the
        # other's 10^2-10^6. At bracket ends where a hop's Q_1 underflowed,
        # linear hazards read inf and the search bisected: these budgets took
        # 16, 15, 21, 20, 18, 21, 12, 14, 11, 23 and 16 evaluations. Log
        # hazards stay finite there, and a cold Brent search took
        # 10, 10, 12, 11, 11, 11, 12, 9, 9, 13 and 12. Bisecting in logit
        # alpha, not alpha, keeps the 64 in total of Newton with Brent's
        # fallback (76 with bisection in alpha). The fifth budget is
        # saturated.
        rng = random.Random(1)
        unit_gain = snr_threshold(radio.rate) * radio.noise_power_w / radio.total_power_w
        iterations = []
        for _ in range(12):
            k_su, k_ud = (10.0 ** (rng.uniform(20.0, 25.0) / 10.0) for _ in range(2))
            log_margins = [rng.uniform(-0.5, 0.5), rng.uniform(2.0, 6.0)]
            rng.shuffle(log_margins)
            budget = LinkBudget(unit_gain * 10.0 ** log_margins[0], unit_gain * 10.0 ** log_margins[1], k_su, k_ud)
            try:
                iterations.append(minimize_outage_exact(budget, radio).iterations)
            except BracketError:
                iterations.append(None)
        assert iterations == [5, 8, 7, 4, None, 4, 7, 7, 5, 6, 4, 7]

    def test_random_budget_evaluations(self, radio):
        # 2000 budgets with K from -20 to 27 dB per hop and full-power SNR
        # margins from 1e-6 to 1e12, 1091 of them solvable. A cold Brent
        # search took 10.8 evaluations on average and at most 22 on these,
        # and a cold Brent search of the Theorem 1 residual 10.76 and 24.
        rng = random.Random(5)
        unit_gain = snr_threshold(radio.rate) * radio.noise_power_w / radio.total_power_w
        iterations, theorem1_iterations = [], []
        for _ in range(2000):
            k_su, k_ud = (10.0 ** (rng.uniform(-20.0, 27.0) / 10.0) for _ in range(2))
            margins = [10.0 ** rng.uniform(-6.0, 12.0) for _ in range(2)]
            budget = LinkBudget(unit_gain * margins[0], unit_gain * margins[1], k_su, k_ud)
            try:
                approx = solve_theorem1(budget, radio)
            except BracketError:
                continue
            res = minimize_outage_exact(budget, radio, theorem1=approx)
            assert 0.0 <= res.residual <= 1e-8
            iterations.append(res.iterations)
            theorem1_iterations.append(approx.iterations)
        assert len(iterations) == 1091
        assert max(iterations) <= 22
        assert sum(iterations) <= 4.0 * len(iterations)  # 3.94 here
        assert max(theorem1_iterations) <= 15
        assert sum(theorem1_iterations) <= 5.6 * len(theorem1_iterations)  # 5.55 here

    def test_paper_family_evaluations(self):
        # L in {1000, 1500, 2000} m, R in {1, 2} and 20 powers from 0.01 to
        # 10 W: the regime of the paper's sweeps. A cold Brent search took
        # 10.6 evaluations on average and at most 12, and a cold Brent search
        # of the Theorem 1 residual 9.84 and 12.
        iterations, theorem1_iterations = [], []
        for L in (1000.0, 1500.0, 2000.0):
            for rate in (1.0, 2.0):
                for i in range(20):
                    radio = make_radio(total_power_w=10.0 ** (-2.0 + 3.0 * i / 19), rate=rate)
                    budget = make_budget(L=L, radio=radio)
                    approx = solve_theorem1(budget, radio)
                    res = minimize_outage_exact(budget, radio, theorem1=approx)
                    assert 0.0 <= res.residual <= 1e-8
                    iterations.append(res.iterations)
                    theorem1_iterations.append(approx.iterations)
        assert max(iterations) <= 6
        assert sum(iterations) <= 4.5 * len(iterations)  # 4.30 here
        assert max(theorem1_iterations) <= 5

    @given(
        st.floats(min_value=-12.0, max_value=-6.0),
        st.floats(min_value=-12.0, max_value=-6.0),
        st.floats(min_value=-10.0, max_value=45.0),
        st.floats(min_value=-10.0, max_value=45.0),
        st.floats(min_value=-3.0, max_value=1.0),
        st.floats(min_value=0.1, max_value=4.0),
        st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
    )
    @settings(max_examples=100, deadline=None)
    def test_slope_and_outage_share_one_rounding(self, g_su, g_ud, k_su, k_ud, pt, rate, alpha):
        # The slope that the exact solver zeroes and the outage that it
        # reports hand the Marcum kernel the same (a, b) of each hop, bit for
        # bit, so both come from one rounding of the hop model.
        budget = LinkBudget(10.0**g_su, 10.0**g_ud, 10.0 ** (k_su / 10.0), 10.0 ** (k_ud / 10.0))
        radio = make_radio(total_power_w=10.0**pt, rate=rate)
        split = PowerSplit.from_alpha(alpha, radio.total_power_w)
        slope_args, outage_args = [], []

        def recorder(calls, kernel):
            def record(a, b):
                calls.append((a, b))
                return kernel(a, b)

            return record

        kernel = outage._log_marcum
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(outage, "_log_marcum", recorder(slope_args, kernel))
            outage._link_terms(budget, radio, split.p_s, split.p_u)
            patch.setattr(outage, "_log_marcum", recorder(outage_args, kernel))
            end_to_end_outage(budget, split, radio)
        assert len(slope_args) == 2
        assert slope_args == outage_args

    @given(
        st.floats(min_value=-12.0, max_value=-6.0),
        st.floats(min_value=-12.0, max_value=-6.0),
        st.floats(min_value=-10.0, max_value=45.0),
        st.floats(min_value=-10.0, max_value=45.0),
        st.floats(min_value=-3.0, max_value=1.0),
        st.floats(min_value=0.1, max_value=4.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_outage_from_the_last_slope_evaluation(self, g_su, g_ud, k_su, k_ud, pt, rate):
        # The exact row's outage is built from the hop terms of the slope
        # evaluation at the returned alpha, with no Marcum call of its own:
        # bit for bit the outage that end_to_end_outage gives at that split.
        # Handing over the theorem1 result changes nothing in the row.
        budget = LinkBudget(10.0**g_su, 10.0**g_ud, 10.0 ** (k_su / 10.0), 10.0 ** (k_ud / 10.0))
        radio = make_radio(total_power_w=10.0**pt, rate=rate)
        try:
            approx = solve_theorem1(budget, radio)
        except BracketError:
            assume(False)
        res = minimize_outage_exact(budget, radio, theorem1=approx)
        split = PowerSplit.from_alpha(res.alpha_star, radio.total_power_w)
        assert res.outage == end_to_end_outage(budget, split, radio)
        assert minimize_outage_exact(budget, radio) == res

    def test_log_hazards_match_linear_hazards(self, radio, table1_budget):
        # Where nothing underflows, log Q_1 and log(hazard * b) are the logs
        # of marcum_q1 and of -b dQ_1/db / Q_1 = b^2 exp(-(a - b)^2/2) I_0e(ab) / Q_1,
        # with scipy's I_0e, not the Marcum nodes that both sides share.
        scale = 2.0 * snr_threshold(radio.rate) * radio.noise_power_w
        for alpha in (0.01, 0.2, 0.5, 0.9):
            split = PowerSplit.from_alpha(alpha, radio.total_power_w)
            hops = outage._link_terms(table1_budget, radio, split.p_s, split.p_u)
            for (_, _, log_q, _, log_hb, _), k, gain, power in zip(
                hops,
                (table1_budget.k_su, table1_budget.k_ud),
                (table1_budget.g_su, table1_budget.g_ud),
                (split.p_s, split.p_u),
            ):
                a, b = math.sqrt(2.0 * k), math.sqrt(scale * (k + 1.0) / gain / power)
                q = marcum_q1(a, b)
                assert log_q == pytest.approx(math.log(q), rel=1e-12, abs=1e-15)
                hazard_b = b * b * math.exp(-0.5 * (a - b) ** 2) * i0e(a * b) / q
                assert log_hb == pytest.approx(math.log(hazard_b), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("budget", ["table1", "deep-tail"])
    def test_log_hazard_derivative_matches_finite_differences(self, radio, budget):
        # The fourth entry is d log(hazard * b)/d log b. Scaling both powers
        # by e^(-2 eps) scales every b by e^eps.
        if budget == "table1":
            budget = make_budget()
        else:
            u = snr_threshold(radio.rate) * radio.noise_power_w / radio.total_power_w
            budget = LinkBudget(1e8 * u, 3e8 * u, 1000.0, 1000.0)
        eps = 1e-5
        for alpha in (0.01, 0.2, 0.5, 0.9):
            split = PowerSplit.from_alpha(alpha, radio.total_power_w)
            hops, up, down = (
                outage._link_terms(budget, radio, split.p_s * scale, split.p_u * scale)
                for scale in (1.0, math.exp(-2.0 * eps), math.exp(2.0 * eps))
            )
            for (*_, derivative), (*_, log_hb_up, _), (*_, log_hb_down, _) in zip(hops, up, down):
                assert derivative == pytest.approx((log_hb_up - log_hb_down) / (2.0 * eps), rel=1e-6, abs=1e-6)

    @given(
        st.floats(min_value=-10.0, max_value=40.0),
        st.floats(min_value=-10.0, max_value=40.0),
        st.floats(min_value=-1.0, max_value=4.0),
        st.floats(min_value=-1.0, max_value=4.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_no_better_split_by_noncentral_chi_square(self, k_su_db, k_ud_db, log_margin_su, log_margin_ud):
        # Each hop's mean SNR at full power is 10^log_margin times the SNR
        # threshold.
        radio = make_radio()
        k_su, k_ud = 10.0 ** (k_su_db / 10.0), 10.0 ** (k_ud_db / 10.0)
        unit_gain = snr_threshold(radio.rate) * radio.noise_power_w / radio.total_power_w
        budget = LinkBudget(unit_gain * 10.0**log_margin_su, unit_gain * 10.0**log_margin_ud, k_su, k_ud)
        try:
            exact = minimize_outage_exact(budget, radio)
            approx = solve_theorem1(budget, radio)
        except BracketError:
            assume(False)

        def oracle(alpha):
            split = PowerSplit.from_alpha(alpha, radio.total_power_w)
            hops = [
                ncx2.cdf(2.0 * (k + 1.0) * unit_gain * radio.total_power_w / (p * g), 2.0, 2.0 * k)
                for k, g, p in ((k_su, budget.g_su, split.p_s), (k_ud, budget.g_ud, split.p_u))
            ]
            return hops[0] + hops[1] - hops[0] * hops[1]

        best = oracle(exact.alpha_star)
        # Below ~1e-30 ncx2.cdf loses relative accuracy: on one budget checked
        # with mpmath it gave 3.73e-47 for a true outage of 4.74e-47.
        assume(best > 1e-30)
        for alpha in (exact.alpha_star - 1e-3, exact.alpha_star + 1e-3, approx.alpha_star):
            if 0.0 < alpha < 1.0:
                assert best <= oracle(alpha) * (1.0 + 1e-12)

    def test_array_thresholds_skip_the_scalar_entry_point(self, radio, table1_budget, monkeypatch):
        # The benchmark's per-call tracer replaces this module attribute and
        # buckets each call by its scalar threshold b, so an array b must
        # reach the Marcum kernel another way.
        scalar = outage._log_marcum
        calls = []

        def scalar_only(a, b):
            if isinstance(b, np.ndarray):
                raise TypeError("array threshold at the scalar entry point")
            calls.append(b)
            return scalar(a, b)

        monkeypatch.setattr(outage, "_log_marcum", scalar_only)
        end_to_end_outage_grid(table1_budget, [0.0, 0.25, 0.5, 0.75], radio)
        assert calls == []
        exact = minimize_outage_exact(table1_budget, radio)
        # Both solver rows take their outages from slope terms.
        assert len(calls) == 2 * exact.iterations
        calls.clear()
        equal_power(radio, table1_budget)
        assert len(calls) == 2  # the equal row's outage stays two scalar calls


class TestLogSurvival:
    @given(
        st.floats(min_value=-10.0, max_value=30.0),
        st.floats(min_value=-10.0, max_value=30.0),
        st.floats(min_value=-3.0, max_value=3.0),
        st.floats(min_value=-3.0, max_value=3.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_concave_in_alpha(self, k_su_db, k_ud_db, log_margin_su, log_margin_ud):
        # log S = log Q_1(a_1, b_1) + log Q_1(a_2, b_2), with b_i^2 = c_i / p_i
        # over a 999-point alpha grid and the full-power SNR 10^log_margin
        # times the threshold, by ncx2.logsf: Q_1(a, b) = ncx2.sf(b^2, 2, a^2).
        alphas = np.linspace(0.001, 0.999, 999)
        logs = []
        for k_db, log_margin, share in ((k_su_db, log_margin_su, alphas), (k_ud_db, log_margin_ud, 1.0 - alphas)):
            k = 10.0 ** (k_db / 10.0)
            with np.errstate(divide="ignore"):  # an underflowing sf is -inf
                logs.append(ncx2.logsf(2.0 * (k + 1.0) / (10.0**log_margin * share), 2.0, 2.0 * k))
        log_s = logs[0] + logs[1]
        with np.errstate(invalid="ignore"):  # -inf - -inf, skipped below
            second = log_s[:-2] - 2.0 * log_s[1:-1] + log_s[2:]
        # Triples where a hop's logsf is below -400 are skipped: there scipy
        # loses accuracy (spurious second differences up to ~0.06 at depths
        # of -450 to -600) and underflows to -inf further down.
        trusted = np.all([np.min([h[:-2], h[1:-1], h[2:]], axis=0) > -400.0 for h in logs], axis=0)
        scale = 1.0 + np.max(np.abs([log_s[:-2], log_s[1:-1], log_s[2:]]), axis=0)
        assert np.all(second[trusted] <= 1e-12 * scale[trusted])

    def test_outage_not_convex_in_alpha(self):
        # The abstract calls the allocation problem convex. What holds is the
        # concavity of log S above, so the outage 1 - S is quasi-convex and
        # unimodal in alpha, but not convex: at L = 2000 m, R = 2 and
        # P_t = 0.05 W (paper convention) it bends down near alpha = 0.032,
        # where it flattens toward 1. Second differences over the 999-point
        # grid, with Q_1(a, b) = ncx2.sf(b^2, 2, a^2), so that the witness
        # does not rest on the Marcum code: O'' = -681 at alpha = 0.032, and
        # 577 of 997 interior cells are negative.
        pt = 0.05
        radio = make_radio(total_power_w=pt, rate=2.0)
        budget = make_budget(L=2000.0, radio=radio)
        alphas = np.arange(1, 1000) / 1000.0
        scale = snr_threshold(radio.rate) * radio.noise_power_w
        survival = 1.0
        for k, g, p in ((budget.k_su, budget.g_su, alphas * pt), (budget.k_ud, budget.g_ud, (1.0 - alphas) * pt)):
            survival = survival * ncx2.sf(2.0 * (k + 1.0) * scale / (p * g), 2.0, 2.0 * k)
        outages = 1.0 - survival
        second = (outages[:-2] - 2.0 * outages[1:-1] + outages[2:]) / 1e-6
        assert second[np.flatnonzero(alphas[1:-1] == 0.032)[0]] < -100.0
        assert count_sign_changes(outages.tolist()) == 1


class TestSlopeRoot:
    @pytest.mark.parametrize(
        "slope, root",
        [
            (lambda x: 0.3 - x, 0.3),
            (lambda x: math.log(0.7 / x), 0.7),
            # Infinite ends, as where a hop's threshold is infinite: bisection until
            # both bracket ends are finite.
            (lambda x: math.inf if x < 0.01 else (-math.inf if x > 0.99 else 0.2 - x), 0.2),
        ],
        ids=["linear", "log", "infinite-ends"],
    )
    def test_brackets_the_root(self, slope, root):
        cfg = SolverConfig()
        x, evaluations, width, value = optimizer._slope_root(lambda x: (slope(x), math.nan), 1e-6, 1.0 - 1e-6, 1e-6, cfg)
        assert value == slope(x)
        assert 0.0 <= width <= cfg.alpha_tol
        assert abs(x - root) <= cfg.alpha_tol
        assert evaluations <= 60

    @pytest.mark.parametrize(
        "slope, logit_derivative, start, evaluations",
        [
            # Linear in u = logit x: one Newton step lands where the value
            # rounds to 0.
            (lambda x: 1.0 - math.log(x / (1.0 - x)), lambda x: -1.0, 0.5, 2),
            # Linear in x, where Newton in u overshoots: the first step fails
            # the acceptance test, so the end across the root is evaluated.
            # Its derivative in u is about -1e-6, so Newton steps leave the
            # bracket, and the search bisects in u three times before they
            # pass the test.
            (lambda x: 0.3 - x, lambda x: -x * (1.0 - x), 0.9, 9),
            # Newton steps all the way from the far end.
            (lambda x: math.log(0.7 / x), lambda x: x - 1.0, 1e-6, 8),
        ],
        ids=["logit", "linear", "log-from-the-end"],
    )
    def test_newton_steps(self, slope, logit_derivative, start, evaluations):
        cfg = SolverConfig()
        f = lambda x: (slope(x), logit_derivative(x))
        x, count, width, value = optimizer._slope_root(f, 1e-6, 1.0 - 1e-6, start, cfg)
        assert value == slope(x)
        assert 0.0 <= width <= cfg.alpha_tol
        assert slope(x - cfg.alpha_tol) > 0.0 > slope(x + cfg.alpha_tol)
        assert count == evaluations

    @pytest.mark.parametrize("sign, edge", [(-1.0, 1e-6), (1.0, 1.0 - 1e-6)])
    def test_one_signed_slope_gives_the_edge(self, sign, edge):
        slope = lambda x: sign * (2.0 - x)
        f = lambda x: (slope(x), math.nan)
        assert optimizer._slope_root(f, 1e-6, 1.0 - 1e-6, 1e-6, SolverConfig()) == (
            edge, 1 if sign < 0 else 2, 0.0, slope(edge)
        )
        # From an interior start, the end on the root's side is evaluated
        # once a step needs it: here the first step, since a Newton step
        # fails the acceptance test.
        for f in (lambda x: (slope(x), math.nan), lambda x: (slope(x), -1.0)):
            assert optimizer._slope_root(f, 1e-6, 1.0 - 1e-6, 0.5, SolverConfig()) == (edge, 2, 0.0, slope(edge))

    @given(
        st.sampled_from(["lo", "below-half", "above-half", "hi"]),
        st.floats(min_value=-7.0, max_value=-0.5),
        st.sampled_from(["linear", "logit", "log", "cubic"]),
        st.booleans(),
        st.booleans(),
        st.floats(min_value=-14.0, max_value=14.0),
    )
    @settings(max_examples=500, deadline=None)
    def test_brackets_every_decreasing_family(self, side, log_offset, family, derivative, infinite_ends, start_u):
        # Roots log-uniform within 1e-7 to 0.3 of either end of (0, 1), or of
        # 0.5; those beyond [lo, hi] put the root at the nearer end. The
        # derivative in u is the family's own or NaN. With infinite ends the
        # value is +-inf, with a NaN derivative, within min(root, 1e-3) / 2
        # of 0 and min(1 - root, 1e-3) / 2 of 1, as where a hop's Q_1 is 0.
        cfg, lo, hi = SolverConfig(), 1e-6, 1.0 - 1e-6
        offset = 10.0**log_offset
        root = {"lo": offset, "below-half": 0.5 - offset, "above-half": 0.5 + offset, "hi": 1.0 - offset}[side]
        logit = lambda x: math.log(x / (1.0 - x))
        value, dvalue = {  # the value and its derivative in x
            "linear": (lambda x: root - x, lambda x: -1.0),
            "logit": (lambda x: logit(root) - logit(x), lambda x: -1.0 / (x * (1.0 - x))),
            "log": (lambda x: math.log(root / x), lambda x: -1.0 / x),
            "cubic": (lambda x: (root - x) ** 3 + 1e-3 * (root - x), lambda x: -3.0 * (root - x) ** 2 - 1e-3),
        }[family]
        cut_lo, cut_hi = 0.5 * min(root, 1e-3), 1.0 - 0.5 * min(1.0 - root, 1e-3)
        evaluated = []

        def f(x):
            evaluated.append(x)
            if infinite_ends and not cut_lo <= x <= cut_hi:
                return (math.inf if x < cut_lo else -math.inf), math.nan
            return value(x), dvalue(x) * x * (1.0 - x) if derivative else math.nan

        start = min(max(0.5 + 0.5 * math.tanh(0.5 * start_u), lo), hi)
        x, evaluations, width, at_x = optimizer._slope_root(f, lo, hi, start, cfg)
        assert x in evaluated
        assert evaluations == len(evaluated) <= 60
        assert at_x == f(x)[0]
        assert 0.0 <= width <= cfg.alpha_tol
        if lo + cfg.alpha_tol < root < hi - cfg.alpha_tol:
            assert value(x - cfg.alpha_tol) > 0.0 > value(x + cfg.alpha_tol)
        elif not lo < root < hi:
            assert abs(x - (lo if root < 0.5 else hi)) <= cfg.alpha_tol

    def test_stops_at_max_iter(self):
        slope = lambda x: (math.log(0.3 / x), math.nan)
        x, evaluations, width, value = optimizer._slope_root(slope, 1e-6, 1.0 - 1e-6, 1e-6, SolverConfig(max_iter=3))
        assert value == slope(x)[0]
        assert evaluations == 3
        assert width > 1e-8


class TestEqualPower:
    def test_halves_the_budget(self, table1_budget):
        result = equal_power(make_radio(total_power_w=0.25), table1_budget)
        assert result.p_s == pytest.approx(0.125, rel=1e-15)
        assert result.p_u == pytest.approx(0.125, rel=1e-15)
        assert result.alpha_star == 0.5
        assert result.method == "equal"

    def test_matches_exact_for_symmetric(self, radio, symmetric_budget):
        equal = equal_power(radio, symmetric_budget)
        exact = minimize_outage_exact(symmetric_budget, radio)
        assert equal.outage == pytest.approx(exact.outage, rel=1e-9)

    def test_dominated_for_asymmetric(self, radio, table1_budget):
        equal = equal_power(radio, table1_budget)
        exact = minimize_outage_exact(table1_budget, radio)
        assert exact.outage <= equal.outage

    def test_allocation_result_validation(self):
        with pytest.raises(ValueError):
            AllocationResult(
                alpha_star=0.0, p_s=0.0, p_u=0.25, outage=0.5,
                method="equal", iterations=0, residual=0.0,
            )
        with pytest.raises(ValueError):
            AllocationResult(
                alpha_star=0.5, p_s=0.125, p_u=0.125, outage=0.5,
                method="newton", iterations=0, residual=0.0,
            )

    def test_exact_outperforms_equal_over_paper_family(self):
        # The abstract's "significantly outperforms the conventional equal
        # power allocation": 120 budgets, L x R x P_t = 0.05..1.0 W.
        ratios = []
        for L in (1000.0, 1500.0, 2000.0):
            budget = make_budget(L=L)
            for rate in (1.0, 2.0):
                for pt in (0.05 * i for i in range(1, 21)):
                    radio = make_radio(total_power_w=pt, rate=rate)
                    ratios.append(equal_power(radio, budget).outage / minimize_outage_exact(budget, radio).outage)
        assert len(ratios) == 120
        # Measured: 1.716 (L 2000 m, R 1, P_t 1 W) and a median of 3.358.
        assert min(ratios) > 1.7
        assert np.median(ratios) > 3.3


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SolverConfig(max_iter=0), "max_iter must be positive"),
        (
            lambda: AllocationResult(
                alpha_star=0.5, p_s=0.125, p_u=0.125, outage=1.5, method="equal", iterations=0, residual=0.0
            ),
            "outage must be a probability",
        ),
    ],
    ids=["max-iter-zero", "outage-above-one"],
)
def test_value_types_reject_out_of_range_fields(build, message):
    with pytest.raises(ValueError, match=message):
        build()


class TestOutageGradient:
    def test_symmetric_zero_at_half(self, radio, symmetric_budget):
        split = PowerSplit.from_alpha(0.5, radio.total_power_w)
        assert abs(outage_gradient_ps(symmetric_budget, split, radio)) <= 1e-10

    @pytest.mark.parametrize("pt,L", [(0.25, 2000.0), (1.0, 2000.0), (0.25, 1000.0)])
    def test_matches_finite_differences(self, pt, L):
        rng = random.Random(3)
        radio = make_radio(total_power_w=pt)
        budget = make_budget(L=L)
        step = 1e-6
        for _ in range(10):
            alpha = rng.uniform(0.05, 0.95)
            p_s = alpha * pt
            grad = outage_gradient_ps(budget, PowerSplit(p_s, pt - p_s), radio)
            fd = (
                end_to_end_outage(budget, PowerSplit(p_s + step, pt - p_s - step), radio)
                - end_to_end_outage(budget, PowerSplit(p_s - step, pt - p_s + step), radio)
            ) / (2.0 * step)
            assert grad == pytest.approx(fd, rel=1e-5)

    def test_vanishes_at_exact_minimizer(self, radio, table1_budget):
        exact = minimize_outage_exact(table1_budget, radio)
        at_min = outage_gradient_ps(
            table1_budget, PowerSplit(exact.p_s, exact.p_u), radio
        )
        reference = outage_gradient_ps(
            table1_budget, PowerSplit.from_alpha(0.1, radio.total_power_w), radio
        )
        assert abs(at_min) <= 1e-6 * abs(reference)

    def test_positive_curvature_at_minimizer(self, radio, table1_budget):
        exact = minimize_outage_exact(table1_budget, radio)
        total = radio.total_power_w
        h = 1e-4

        def outage_at(alpha):
            return end_to_end_outage(table1_budget, PowerSplit.from_alpha(alpha, total), radio)

        second = (
            outage_at(exact.alpha_star + h)
            - 2.0 * outage_at(exact.alpha_star)
            + outage_at(exact.alpha_star - h)
        ) / h**2
        assert second > 0.0

    @pytest.mark.parametrize(
        "total_power_w, rate",
        # log S is about -790 at R = 6; at 1e-310 W both log hazards b h
        # overflow to inf, where -S times the hazard term would be NaN.
        [(0.25, 6.0), (1e-310, 1.0)],
        ids=["rate-6", "subnormal-power"],
    )
    def test_zero_where_the_survival_underflows(self, total_power_w, rate):
        radio = make_radio(total_power_w=total_power_w, rate=rate)
        budget = make_budget(radio=radio)
        split = PowerSplit.from_alpha(0.5, total_power_w)
        assert end_to_end_outage(budget, split, radio) == 1.0
        assert outage_gradient_ps(budget, split, radio) == 0.0

    def test_rejects_boundary_and_budget_violations(self, radio, table1_budget):
        with pytest.raises(ValueError):
            outage_gradient_ps(table1_budget, PowerSplit(0.0, 0.25), radio)
        with pytest.raises(ValueError):
            outage_gradient_ps(table1_budget, PowerSplit(0.1, 0.1), radio)


class TestSolverConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SolverConfig(bracket_epsilon=0.5)
        with pytest.raises(ValueError, match="1 - epsilon rounds to 1"):
            SolverConfig(bracket_epsilon=2.0**-54)
        assert 1.0 - SolverConfig(bracket_epsilon=math.nextafter(2.0**-54, 1.0)).bracket_epsilon < 1.0
        with pytest.raises(ValueError):
            SolverConfig(alpha_tol=1e-3)
