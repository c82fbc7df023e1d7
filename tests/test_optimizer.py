import dataclasses
import math
import random

import numpy as np
import pytest

from uavrelay import (
    AllocationResult,
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
    solve_theorem1,
    theorem1_constants,
    theorem1_residual,
)
from uavrelay import optimizer, outage

from conftest import make_budget, make_radio

# Frozen 50-digit evaluations of the root-equation constants at the
# reference parameters, per excess-loss convention.
FROZEN_GAMMA = {
    "standard": (82.762664335909885, 94.824867436279077),
    "paper": (0.064201497283378318, 0.86195482792445136),
}


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
        LinkGeometry.from_split(h_u, L, r_s), env_su, env_ud, endpoints, endpoints,
        radio, "paper",
    )


class TestTheorem1Constants:
    def test_symmetric_hops_equal(self, radio, symmetric_budget):
        consts = theorem1_constants(symmetric_budget, radio)
        assert consts.gamma_1 == consts.gamma_2

    def test_linear_in_noise(self, table1_budget):
        radio = make_radio()
        lo = theorem1_constants(table1_budget, radio)
        doubled = dataclasses.replace(
            radio, noise_power_dbm=radio.noise_power_dbm + 10.0 * math.log10(2.0)
        )
        hi = theorem1_constants(table1_budget, doubled)
        assert hi.gamma_1 == pytest.approx(2.0 * lo.gamma_1, rel=1e-12)
        assert hi.gamma_2 == pytest.approx(2.0 * lo.gamma_2, rel=1e-12)

    @pytest.mark.parametrize("convention", ["standard", "paper"])
    def test_frozen_reference_pair(self, radio, convention):
        budget = make_budget(convention=convention)
        consts = theorem1_constants(budget, radio)
        expected_1, expected_2 = FROZEN_GAMMA[convention]
        assert consts.gamma_1 == pytest.approx(expected_1, rel=1e-12)
        assert consts.gamma_2 == pytest.approx(expected_2, rel=1e-12)


class TestTheorem1Residual:
    def test_symmetric_equal_split_is_exact_zero(self, radio, symmetric_budget):
        consts = theorem1_constants(symmetric_budget, radio)
        split = PowerSplit.from_alpha(0.5, radio.total_power_w)
        assert theorem1_residual(split, consts, symmetric_budget.k_su, symmetric_budget.k_ud) == 0.0

    def test_boundary_divergence(self, radio, table1_budget):
        consts = theorem1_constants(table1_budget, radio)

        def residual(alpha):
            split = PowerSplit.from_alpha(alpha, radio.total_power_w)
            return theorem1_residual(split, consts, table1_budget.k_su, table1_budget.k_ud)

        assert residual(1e-9) > 100.0
        assert residual(1.0 - 1e-9) < -100.0

    def test_strictly_decreasing_in_alpha(self, radio):
        rng = random.Random(7)
        for _ in range(20):
            budget = random_budget(rng, radio)
            consts = theorem1_constants(budget, radio)
            alphas = [0.01 + 0.98 * i / 60 for i in range(61)]
            values = [
                theorem1_residual(
                    PowerSplit.from_alpha(a, radio.total_power_w),
                    consts,
                    budget.k_su,
                    budget.k_ud,
                )
                for a in alphas
            ]
            assert all(b < a for a, b in zip(values, values[1:]))

    def test_rejects_boundary_powers(self, radio, table1_budget):
        consts = theorem1_constants(table1_budget, radio)
        with pytest.raises(ValueError):
            theorem1_residual(PowerSplit(0.0, 0.25), consts, 10.0, 10.0)


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


class TestMinimizeOutageExact:
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

    def test_one_grid_call_then_scalar_probes(self, radio, table1_budget, monkeypatch):
        grid_calls, scalar_calls = [], []

        def grid(budget, alphas, radio, *args):
            grid_calls.append(len(alphas))
            return end_to_end_outage_grid(budget, alphas, radio, *args)

        def scalar(*args):
            scalar_calls.append(args)
            return end_to_end_outage(*args)

        monkeypatch.setattr(optimizer, "end_to_end_outage_grid", grid)
        monkeypatch.setattr(optimizer, "end_to_end_outage", scalar)
        cfg = SolverConfig()
        res = minimize_outage_exact(table1_budget, radio, cfg)
        assert grid_calls == [cfg.grid_points]
        assert len(scalar_calls) == res.iterations - cfg.grid_points + 1

    def test_array_thresholds_skip_the_scalar_entry_point(self, radio, table1_budget, monkeypatch):
        # The benchmark's per-call tracer replaces these module attributes and
        # buckets each call by its scalar threshold b, so an array b must
        # reach the Marcum kernel another way.
        assert callable(optimizer.marcum_q1) and callable(optimizer.marcum_q1_partial_b)
        scalar = outage._marcum_q1_complement
        calls = []

        def scalar_only(a, b):
            if isinstance(b, np.ndarray):
                raise TypeError("array threshold at the scalar entry point")
            calls.append(b)
            return scalar(a, b)

        monkeypatch.setattr(outage, "_marcum_q1_complement", scalar_only)
        end_to_end_outage_grid(table1_budget, [0.0, 0.25, 0.5, 0.75], radio)
        minimize_outage_exact(table1_budget, radio)
        assert calls  # the golden-section probes stay scalar calls


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

    def test_rejects_boundary_and_budget_violations(self, radio, table1_budget):
        with pytest.raises(ValueError):
            outage_gradient_ps(table1_budget, PowerSplit(0.0, 0.25), radio)
        with pytest.raises(ValueError):
            outage_gradient_ps(table1_budget, PowerSplit(0.1, 0.1), radio)


class TestSolverConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SolverConfig(bracket_epsilon=0.5)
        with pytest.raises(ValueError):
            SolverConfig(alpha_tol=1e-3)
        with pytest.raises(ValueError):
            SolverConfig(grid_points=10)
