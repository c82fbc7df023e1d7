"""Power-allocation optimization for the relay link.

Three routes to a power split are provided: the approximate closed-form root
equation solved by bisection, an exact numerical minimizer of the outage
used as ground truth, and the equal-split baseline. The analytic outage
derivative along the total-power constraint is exposed for consistency
checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channel import LinkBudget, RadioConfig
from .outage import PowerSplit, end_to_end_outage, end_to_end_outage_grid, hop_outage, snr_threshold
from .specfun import marcum_q1, marcum_q1_partial_b

__all__ = [
    "SolverConfig",
    "DEFAULT_SOLVER",
    "AllocationResult",
    "Theorem1Constants",
    "BracketError",
    "theorem1_constants",
    "theorem1_residual",
    "solve_theorem1",
    "minimize_outage_exact",
    "outage_gradient_ps",
    "equal_power",
]

_METHODS = ("theorem1", "exact", "equal")

#: Inverse golden ratio used by the bracketing minimizer.
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


class BracketError(RuntimeError):
    """The root-equation residual did not change sign over the search interval."""


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances for the allocation solvers.

    alpha_tol: absolute tolerance on the allocation factor.
    max_iter: iteration cap for the bisection and golden-section loops.
    bracket_epsilon: exclusion margin at alpha in {0, 1}, where the residual
        diverges and the outage degenerates.
    grid_points: resolution of the coarse scan that brackets the exact
        minimizer before refinement.
    """

    alpha_tol: float = 1e-8
    max_iter: int = 200
    bracket_epsilon: float = 1e-6
    grid_points: int = 201

    def __post_init__(self):
        if not 0.0 < self.bracket_epsilon < 0.01:
            raise ValueError("bracket_epsilon must lie in (0, 0.01)")
        if not 0.0 < self.alpha_tol <= 1e-6:
            raise ValueError("alpha_tol must lie in (0, 1e-6]")
        if self.grid_points < 101:
            raise ValueError("grid_points must be at least 101")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")


DEFAULT_SOLVER = SolverConfig()


@dataclass(frozen=True)
class AllocationResult:
    """A solved power split with its outage and solver diagnostics."""

    alpha_star: float
    p_s: float
    p_u: float
    outage: float
    method: str
    iterations: int
    residual: float

    def __post_init__(self):
        if not 0.0 < self.alpha_star < 1.0:
            raise ValueError("allocation factor must lie strictly inside (0, 1)")
        if not 0.0 <= self.outage <= 1.0:
            raise ValueError("outage must be a probability")
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}")


@dataclass(frozen=True)
class Theorem1Constants:
    """Per-hop constants of the approximate root equation, in watts."""

    gamma_1: float
    gamma_2: float

    def __post_init__(self):
        if self.gamma_1 <= 0.0 or self.gamma_2 <= 0.0:
            raise ValueError("root-equation constants must be positive")


def theorem1_constants(budget: LinkBudget, radio: RadioConfig) -> Theorem1Constants:
    """gamma_i = K_i (K_i + 1) (2^(2R) - 1) N_0 / G_i for each hop."""
    scale = snr_threshold(radio.rate) * radio.noise_power_w
    return Theorem1Constants(
        gamma_1=budget.k_su * (budget.k_su + 1.0) * scale / budget.g_su,
        gamma_2=budget.k_ud * (budget.k_ud + 1.0) * scale / budget.g_ud,
    )


def theorem1_residual(
    split: PowerSplit, consts: Theorem1Constants, k_su: float, k_ud: float
) -> float:
    """Natural log of the left-hand side of the approximate optimality equation.

    A root identifies the approximately optimal split. The residual runs from
    +inf at p_s -> 0 down to -inf at p_u -> 0, which guarantees bisection a
    bracket; for symmetric hops it vanishes exactly at the equal split.
    """
    if split.p_s <= 0.0 or split.p_u <= 0.0:
        raise ValueError("both powers must be positive")
    return (
        1.75 * math.log(split.p_u / split.p_s)
        + 0.75 * math.log(consts.gamma_1 / consts.gamma_2)
        + 0.5 * math.log(k_ud / k_su)
        + 2.0 * math.sqrt(consts.gamma_1 / split.p_s)
        - 2.0 * math.sqrt(consts.gamma_2 / split.p_u)
        + (k_ud - k_su)
    )


def solve_theorem1(
    budget: LinkBudget, radio: RadioConfig, cfg: SolverConfig = DEFAULT_SOLVER
) -> AllocationResult:
    """Solve the approximate root equation for the allocation factor.

    Bisects the log-domain residual over [bracket_epsilon, 1 - bracket_epsilon]
    down to ``cfg.alpha_tol``; the boundary divergences make bisection
    unconditionally convergent whenever the endpoint residuals differ in sign.
    When one hop is in certain outage at every split, whether from a zero
    mean SNR or from constants that overflow, the BracketError names the
    saturated objective.
    """
    lo, hi = cfg.bracket_epsilon, 1.0 - cfg.bracket_epsilon
    if _saturated(budget, radio, lo, hi):
        raise BracketError(
            "saturated objective: the outage is 1 at every split, since one hop"
            " misses the SNR threshold even at full power"
        )
    consts = theorem1_constants(budget, radio)
    total = radio.total_power_w

    def residual(alpha: float) -> float:
        return theorem1_residual(
            PowerSplit.from_alpha(alpha, total), consts, budget.k_su, budget.k_ud
        )

    r_lo, r_hi = residual(lo), residual(hi)
    if r_lo == 0.0:
        alpha = lo
        iterations = 0
    elif r_hi == 0.0:
        alpha = hi
        iterations = 0
    elif (r_lo > 0.0) == (r_hi > 0.0):
        raise BracketError(
            f"residual has the same sign at both brackets ({r_lo:.3g}, {r_hi:.3g})"
        )
    else:
        iterations = 0
        while hi - lo > cfg.alpha_tol and iterations < cfg.max_iter:
            mid = 0.5 * (lo + hi)
            r_mid = residual(mid)
            iterations += 1
            if (r_mid > 0.0) == (r_lo > 0.0):
                lo, r_lo = mid, r_mid
            else:
                hi = mid
        alpha = 0.5 * (lo + hi)
    return _allocation_at(budget, radio, alpha, "theorem1", iterations, residual(alpha))


def _saturated(budget: LinkBudget, radio: RadioConfig, lo: float, hi: float) -> bool:
    """Whether one hop is in outage with probability 1 even at the most power
    an allocation factor in [lo, hi] gives it, hence at every such split.

    A zero mean SNR, from a power so small that it underflows, is full outage.
    """
    noise, total = radio.noise_power_w, radio.total_power_w
    snr_su = PowerSplit.from_alpha(hi, total).p_s * budget.g_su / noise
    snr_ud = PowerSplit.from_alpha(lo, total).p_u * budget.g_ud / noise
    return any(
        snr == 0.0 or hop_outage(k, snr, radio.rate) == 1.0
        for k, snr in ((budget.k_su, snr_su), (budget.k_ud, snr_ud))
    )


def _allocation_at(
    budget: LinkBudget, radio: RadioConfig, alpha: float, method: str, iterations: int, residual: float
) -> AllocationResult:
    """The split at allocation factor alpha of the total power, with its outage."""
    split = PowerSplit.from_alpha(alpha, radio.total_power_w)
    outage = end_to_end_outage(budget, split, radio)
    return AllocationResult(alpha, split.p_s, split.p_u, outage, method, iterations, residual)


def minimize_outage_exact(
    budget: LinkBudget, radio: RadioConfig, cfg: SolverConfig = DEFAULT_SOLVER
) -> AllocationResult:
    """Minimize the closed-form outage over the allocation factor.

    A coarse scan over ``cfg.grid_points`` values of alpha, evaluated in one
    batch, brackets the best cell (unimodality is empirical, so the grid
    guards against missing the basin), then golden-section refinement narrows
    the bracket to ``cfg.alpha_tol``. The total power constraint is treated
    as active: p_u = P_t - p_s.
    """
    total = radio.total_power_w

    def objective(alpha: float) -> float:
        return end_to_end_outage(budget, PowerSplit.from_alpha(alpha, total), radio)

    lo_edge, hi_edge = cfg.bracket_epsilon, 1.0 - cfg.bracket_epsilon
    step = (hi_edge - lo_edge) / (cfg.grid_points - 1)
    grid = [lo_edge + i * step for i in range(cfg.grid_points)]
    values = end_to_end_outage_grid(budget, grid, radio)
    best = min(range(cfg.grid_points), key=values.__getitem__)

    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, cfg.grid_points - 1)]
    iterations = cfg.grid_points

    c = hi - _INVPHI * (hi - lo)
    d = lo + _INVPHI * (hi - lo)
    f_c, f_d = objective(c), objective(d)
    iterations += 2
    while hi - lo > cfg.alpha_tol and iterations < cfg.max_iter + cfg.grid_points:
        if f_c < f_d:
            hi, d, f_d = d, c, f_c
            c = hi - _INVPHI * (hi - lo)
            f_c = objective(c)
        else:
            lo, c, f_c = c, d, f_d
            d = lo + _INVPHI * (hi - lo)
            f_d = objective(d)
        iterations += 1

    return _allocation_at(budget, radio, 0.5 * (lo + hi), "exact", iterations, hi - lo)


def outage_gradient_ps(
    budget: LinkBudget, split: PowerSplit, radio: RadioConfig
) -> float:
    """Derivative of the end-to-end outage in p_s along p_u = P_t - p_s.

    Assembled from the Marcum Q chain rule: the noncentrality arguments do
    not depend on the powers, and the threshold arguments scale as
    p^(-1/2), so d(beta_1)/d(p_s) = -coef_1 * p_s^(-3/2) / 2 and
    d(beta_2)/d(p_s) = +coef_2 * p_u^(-3/2) / 2.
    """
    if split.p_s <= 0.0 or split.p_u <= 0.0:
        raise ValueError("gradient is defined only for interior splits")
    if not math.isclose(split.total, radio.total_power_w, rel_tol=1e-9):
        raise ValueError("split must exhaust the total power budget")

    scale = 2.0 * snr_threshold(radio.rate) * radio.noise_power_w
    coef_1 = math.sqrt(scale * (budget.k_su + 1.0) / budget.g_su)
    coef_2 = math.sqrt(scale * (budget.k_ud + 1.0) / budget.g_ud)
    a_1 = math.sqrt(2.0 * budget.k_su)
    a_2 = math.sqrt(2.0 * budget.k_ud)
    b_1 = coef_1 / math.sqrt(split.p_s)
    b_2 = coef_2 / math.sqrt(split.p_u)

    q_1 = marcum_q1(a_1, b_1)
    q_2 = marcum_q1(a_2, b_2)
    dq_1 = marcum_q1_partial_b(a_1, b_1) * (-0.5 * coef_1 * split.p_s**-1.5)
    dq_2 = marcum_q1_partial_b(a_2, b_2) * (0.5 * coef_2 * split.p_u**-1.5)
    return -(dq_1 * q_2 + dq_2 * q_1)


def equal_power(radio: RadioConfig, budget: LinkBudget) -> AllocationResult:
    """Baseline split with half the budget on each hop."""
    return _allocation_at(budget, radio, 0.5, "equal", 0, 0.0)
