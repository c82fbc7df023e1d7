"""Power-allocation optimization for the relay link.

Three routes to a power split are provided: the approximate closed-form root
equation, an exact minimizer of the outage used as ground truth, and the
equal-split baseline. The exact minimizer solves d log S/d alpha = 0 for the
link survival S = 1 - outage, which is log-concave in alpha. Both equations
decrease in alpha, and one bracketed Newton search solves each, the
approximate one from the balance point of its two hops and the exact one
from the approximate root. The analytic outage derivative along the
total-power constraint, exposed for consistency checks, comes from the same
per-hop chain rule. All of them read the hop terms of ``outage._link_terms``,
so this module makes no Marcum call of its own.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

from .channel import LinkBudget, RadioConfig
from .outage import PowerSplit, _link_args, _link_outage, _link_terms, _saturated, snr_threshold

__all__ = [
    "SolverConfig",
    "DEFAULT_SOLVER",
    "AllocationResult",
    "BracketError",
    "theorem1_constants",
    "theorem1_residual",
    "solve_theorem1",
    "minimize_outage_exact",
    "outage_gradient_ps",
    "equal_power",
]

_METHODS = ("theorem1", "exact", "equal")

_SATURATED = (
    "saturated objective: the outage is 1 at every split, since one hop"
    " misses the SNR threshold even at full power"
)


class BracketError(RuntimeError):
    """The outage is 1 at every split, so no allocation factor is optimal."""


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances for the allocation solvers.

    alpha_tol: absolute tolerance on the allocation factor: the width of
        the final bracket of both solvers.
    max_iter: cap on the evaluations of the root search of both solvers,
        counting the bracket ends.
    bracket_epsilon: exclusion margin at alpha in {0, 1}, where the residual
        diverges and the outage degenerates.
    """

    alpha_tol: float = 1e-8
    max_iter: int = 200
    bracket_epsilon: float = 1e-6

    def __post_init__(self):
        if not 0.0 < self.bracket_epsilon < 0.01 or 1.0 - self.bracket_epsilon == 1.0:
            raise ValueError("bracket_epsilon must lie in (0, 0.01) and exceed ~5.6e-17, where 1 - epsilon rounds to 1")
        if not 0.0 < self.alpha_tol <= 1e-6:
            raise ValueError("alpha_tol must lie in (0, 1e-6]")
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
    # Both hops' outage._link_terms at alpha_star: an exact search's first slope.
    _hops: list | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not 0.0 < self.alpha_star < 1.0:
            raise ValueError("allocation factor must lie strictly inside (0, 1)")
        if not 0.0 <= self.outage <= 1.0:
            raise ValueError("outage must be a probability")
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}")


def theorem1_constants(budget: LinkBudget, radio: RadioConfig) -> tuple[float, float]:
    """(log gamma_1, log gamma_2): the natural logs of each hop's constant
    gamma_i = K_i (K_i + 1) (2^(2R) - 1) N_0 / G_i of the approximate root
    equation, in watts. Each is a sum of logs, since gamma_i itself can
    overflow where K is large."""
    log_scale = math.log(snr_threshold(radio.rate)) + math.log(radio.noise_power_w)
    return (
        math.log(budget.k_su) + math.log1p(budget.k_su) + log_scale - math.log(budget.g_su),
        math.log(budget.k_ud) + math.log1p(budget.k_ud) + log_scale - math.log(budget.g_ud),
    )


def theorem1_residual(budget: LinkBudget, split: PowerSplit, radio: RadioConfig) -> float:
    """Natural log of the left-hand side of the approximate optimality equation.

    A root identifies the approximately optimal split. The residual decreases
    from +inf at p_s -> 0 to -inf at p_u -> 0, so it has one root; for
    symmetric hops it vanishes exactly at the equal split. Each
    sqrt(gamma_i / p_i) is exp((log gamma_i - log p_i) / 2), which is
    a_i b_i / 2 and so finite wherever the Marcum arguments are.
    """
    return _theorem1_residual_du(budget, theorem1_constants(budget, radio), split.p_s, split.p_u)[0]


def _theorem1_residual_du(
    budget: LinkBudget, log_gammas: tuple[float, float], p_s: float, p_u: float
) -> tuple[float, float]:
    """``theorem1_residual`` at the powers p_s and p_u, from the budget's
    ``theorem1_constants``, and its derivative in u = logit(alpha) along the
    total power, -1.75 - (1 - alpha) sqrt(gamma_1 / p_s) - alpha sqrt(gamma_2 / p_u),
    which is negative and takes the two square roots the residual forms."""
    if p_s <= 0.0 or p_u <= 0.0:
        raise ValueError("both powers must be positive")
    log_gamma_1, log_gamma_2 = log_gammas
    root_1 = math.exp(0.5 * (log_gamma_1 - math.log(p_s)))
    root_2 = math.exp(0.5 * (log_gamma_2 - math.log(p_u)))
    residual = (
        1.75 * math.log(p_u / p_s)
        + 0.75 * (log_gamma_1 - log_gamma_2)
        + 0.5 * math.log(budget.k_ud / budget.k_su)
        + 2.0 * root_1
        - 2.0 * root_2
        + (budget.k_ud - budget.k_su)
    )
    total = p_s + p_u
    return residual, -1.75 - p_u / total * root_1 - p_s / total * root_2


def solve_theorem1(
    budget: LinkBudget, radio: RadioConfig, cfg: SolverConfig = DEFAULT_SOLVER
) -> AllocationResult:
    """Solve the approximate root equation for the allocation factor.

    ``_slope_root`` finds the one root of the decreasing log-domain residual
    over [bracket_epsilon, 1 - bracket_epsilon] to ``cfg.alpha_tol`` by
    Newton steps from the balance point gamma_1 / (gamma_1 + gamma_2), the
    root on symmetric hops, taken as the logistic of log gamma_1 - log gamma_2,
    since that gap can pass 709, where exp overflows. A residual that keeps
    its sign over the whole bracket puts the root at that end.
    ``iterations`` counts residual evaluations, ends included, and
    ``residual`` is the residual at the returned alpha. The outage comes from
    the hop terms there, kept for ``minimize_outage_exact``.
    When one hop is in certain outage at every split, whether from a zero
    mean SNR or from constants that overflow, a BracketError names the
    saturated objective.
    """
    lo, hi = cfg.bracket_epsilon, 1.0 - cfg.bracket_epsilon
    total = radio.total_power_w
    if _saturated(budget, radio, hi * total, (1.0 - lo) * total):
        raise BracketError(_SATURATED)
    log_gammas = theorem1_constants(budget, radio)

    def residual(alpha: float) -> tuple[float, float]:
        return _theorem1_residual_du(budget, log_gammas, alpha * total, (1.0 - alpha) * total)

    start = min(max(_logistic(log_gammas[0] - log_gammas[1]), lo), hi)
    alpha, evaluations, _, value = _slope_root(residual, lo, hi, start, cfg)
    return _allocation_at(budget, radio, alpha, "theorem1", evaluations, value)


def _allocation_at(
    budget: LinkBudget,
    radio: RadioConfig,
    alpha: float,
    method: str,
    iterations: int,
    residual: float,
    hops: list | None = None,
) -> AllocationResult:
    """The split at allocation factor alpha of the total power, with its outage
    from both hops' ``outage._link_terms`` there: ``hops`` where given, else
    evaluated here. The result keeps them."""
    split = PowerSplit.from_alpha(alpha, radio.total_power_w)
    if hops is None:
        hops = _link_terms(budget, radio, split.p_s, split.p_u)
    outage = _link_outage(hops)
    if not 0.0 <= outage <= 1.0:  # a numerical fault, reported as a solver failure
        raise RuntimeError(f"outage {outage!r} at alpha {alpha!r} is not a probability")
    return AllocationResult(alpha, split.p_s, split.p_u, outage, method, iterations, residual, hops)


def minimize_outage_exact(
    budget: LinkBudget,
    radio: RadioConfig,
    cfg: SolverConfig = DEFAULT_SOLVER,
    *,
    theorem1: AllocationResult | None = None,
) -> AllocationResult:
    """Minimize the closed-form outage over the allocation factor.

    The survival S = Q_1(a_1, b_1) Q_1(a_2, b_2) is log-concave in alpha:
    Q_1 is log-concave in b (Sun, Baricz & Zhou, IEEE T-IT 56(3), 2010), and
    each b is convex and decreasing in its own hop's power, which is linear
    in alpha. So the outage 1 - S is least at the one root of the slope

        g(alpha) = d log S/d alpha = h_1 b_1 / (2 alpha) - h_2 b_2 / (2 (1 - alpha))

    (see ``outage._link_terms``). ``_slope_root`` brackets the root of
    f = log(h_1 b_1 (1 - alpha)) - log(h_2 b_2 alpha), which has g's sign,
    over [bracket_epsilon, 1 - bracket_epsilon] to ``cfg.alpha_tol`` in at
    most ``cfg.max_iter`` slope evaluations. It starts at the alpha of
    ``theorem1``, a ``solve_theorem1`` result whose hop terms are the slope
    evaluation there: they must be this budget and radio's (a, b) at an alpha
    in this cfg's bracket, else (or if it is None) the start is solved here.
    It takes Newton steps on f in u = logit(alpha):

        df/du = -((E_1 + 2) (1 - alpha) + (E_2 + 2) alpha) / 2,

    with E_i = d log(h_i b_i)/d(log b_i), since b_1 falls as alpha^(-1/2) and
    b_2 as (1 - alpha)^(-1/2). ``solve_theorem1`` has checked for a hop in
    certain outage at full power; a probe where hop 1's Q_1 is 0 reads g > 0,
    hop 2's g < 0, and both a saturated objective: a BracketError, never an
    arbitrary alpha. A nearly deterministic hop (K near its 1500 dB cap) can
    take its survival from 0 to 1 within the final bracket, and at such K
    the log slope can be rounding noise. So the result is the alpha the
    search ends on, unless a split it evaluated has more than twice the link
    survival there; the evaluated split with the greatest survival is then
    returned. Rounding-level gaps never flip the choice, and since the
    start is evaluated, the exact row never has less than half the theorem1
    row's survival. The outage is taken from the hop terms of the slope
    evaluation at the returned alpha, with no further Marcum call.
    ``iterations`` counts slope evaluations, not the residual evaluations of
    the start, and ``residual`` is the search's final bracket width. The
    total power constraint is treated as active: p_u = P_t - p_s.
    """
    lo, hi = cfg.bracket_epsilon, 1.0 - cfg.bracket_epsilon
    total = radio.total_power_w
    # NaN, where no hop terms are handed over, fails the bracket test.
    start = math.nan if theorem1 is None or theorem1._hops is None else theorem1.alpha_star
    if not lo <= start <= hi or [hop[:2] for hop in theorem1._hops] != _link_args(
        budget, radio, start * total, (1.0 - start) * total
    ):
        theorem1 = solve_theorem1(budget, radio, cfg)
    evaluated = {theorem1.alpha_star: theorem1._hops}  # alpha -> its hop terms

    def slope(alpha: float) -> tuple[float, float]:
        hops = evaluated.get(alpha)
        if hops is None:
            hops = evaluated[alpha] = _link_terms(budget, radio, alpha * total, (1.0 - alpha) * total)
        (_, _, log_q_1, _, log_hb_1, elastic_1), (_, _, log_q_2, _, log_hb_2, elastic_2) = hops
        if log_q_1 == log_q_2 == -math.inf:
            raise BracketError(_SATURATED)
        if log_hb_1 == log_hb_2 == -math.inf:  # no hazard on either hop, so g = 0
            return 0.0, math.nan
        value = (log_hb_1 + math.log1p(-alpha)) - (log_hb_2 + math.log(alpha))
        return value, -0.5 * ((elastic_1 + 2.0) * (1.0 - alpha) + (elastic_2 + 2.0) * alpha)

    alpha, evaluations, width, _ = _slope_root(slope, lo, hi, theorem1.alpha_star, cfg)

    def log_survival(x: float) -> float:
        (_, _, log_q_1, _, _, _), (_, _, log_q_2, _, _, _) = evaluated[x]
        return log_q_1 + log_q_2

    best = max(evaluated, key=log_survival)
    if log_survival(best) > log_survival(alpha) + math.log(2.0):
        alpha = best
    return _allocation_at(budget, radio, alpha, "exact", evaluations, width, evaluated[alpha])


def _logistic(u: float) -> float:
    """1 / (1 + exp(-u)), in a form that cannot overflow."""
    return 0.5 + 0.5 * math.tanh(0.5 * u)


def _slope_root(f, lo: float, hi: float, start: float, cfg: SolverConfig) -> tuple[float, int, float, float]:
    """Root of a decreasing function on [lo, hi] within (0, 1) by Newton
    steps safeguarded by bisection.

    ``f(x)`` returns the value at x and its derivative in u = log(x/(1 - x)),
    or NaN where it has none (the exact minimizer's log slope where a hop's
    Q_1 is 0 or its log hazard is past the double range). Both steps are
    taken in u, where the log slope's terms log x and log(1 - x) are
    linear, so that a start near an end of (0, 1) reaches the root in a few
    steps.

    The search starts at ``start`` in [lo, hi]. Until a value changes
    sign, the far side of the bracket is the end of [lo, hi] on the root's
    side, which is evaluated only once a step needs it; a value of the
    root's side there (<= 0 at lo, >= 0 at hi) puts the root at that end.
    Returns the root, the evaluations of ``f``, the final bracket width and
    the value of ``f`` at the root, which was its last evaluation.

    Each step starts from the last point evaluated, an end of the bracket.
    It is a Newton step where the function decreases there and the step
    passes Brent's acceptance test, and a bisection in u otherwise; an
    infinite value gives a Newton step out of the bracket, so it bisects
    too. A Newton step shorter than half the tolerance is carried a quarter
    of the tolerance past the root it predicts, so that its value can close
    the bracket. The search stops once the bracket is narrower than
    ``cfg.alpha_tol`` (width 0 if a value is exactly 0), or at
    ``cfg.max_iter`` evaluations. Follows ``rtsafe`` in Press et al.,
    Numerical Recipes, 3rd ed. (2007), sec. 9.4, with the acceptance test of
    Brent, Algorithms for Minimization without Derivatives (1973), ch. 4.
    """
    x_cur = start
    f_cur, d_cur = f(x_cur)
    evaluations = 1
    # x_cur is the last point evaluated and x_blk the bracket end across the
    # root from it, an end of [lo, hi] not yet evaluated while blk_evaluated
    # is False; s_cur and s_pre are the last two steps.
    x_blk, blk_evaluated = (hi if f_cur > 0.0 else lo), False
    s_pre = s_cur = x_blk - x_cur
    while True:
        # Half the tolerance, and never below the spacing of doubles at x_cur.
        delta = 0.5 * cfg.alpha_tol + 2.0 * sys.float_info.epsilon * abs(x_cur)
        s_bis = 0.5 * (x_blk - x_cur)
        if f_cur == 0.0 or abs(s_bis) < delta or evaluations >= cfg.max_iter:
            break
        # Brent's acceptance test: a step toward x_blk must be shorter than
        # half the step before last and land within 3/4 of the way to x_blk.
        bound = min(abs(s_pre), 3.0 * abs(s_bis) - delta)
        u_cur = math.log(x_cur / (1.0 - x_cur))
        s_new = math.nan
        if d_cur < 0.0:  # Newton in u, which heads for x_blk, since f decreases
            s_new = _logistic(u_cur - f_cur / d_cur) - x_cur
        if 2.0 * abs(s_new) < bound:
            s_pre, s_cur = s_cur, s_new
            x_next = x_cur + (s_cur if abs(s_cur) > delta else s_cur + math.copysign(0.5 * delta, s_bis))
        elif not blk_evaluated:
            x_next = x_blk
        else:  # bisection in u
            s_pre = s_cur = _logistic(0.5 * (u_cur + math.log(x_blk / (1.0 - x_blk)))) - x_cur
            x_next = x_cur + (s_cur if abs(s_cur) > delta else math.copysign(delta, s_bis))
        f_next, d_next = f(x_next)
        evaluations += 1
        if (f_next > 0.0) != (f_cur > 0.0):
            x_blk, blk_evaluated = x_cur, True
        x_cur, f_cur, d_cur = x_next, f_next, d_next
    return x_cur, evaluations, 0.0 if f_cur == 0.0 else abs(x_blk - x_cur), f_cur


def outage_gradient_ps(
    budget: LinkBudget, split: PowerSplit, radio: RadioConfig
) -> float:
    """Derivative of the end-to-end outage in p_s along p_u = P_t - p_s.

    With survival S = Q_1(a_1, b_1) Q_1(a_2, b_2) and the per-hop hazards of
    ``outage._link_terms``, dO/dp_s = -S g / P_t, where
    g / P_t = d log S/dp_s = h_1 b_1 / (2 p_s) - h_2 b_2 / (2 p_u).
    """
    if split.p_s <= 0.0 or split.p_u <= 0.0:
        raise ValueError("gradient is defined only for interior splits")
    if not math.isclose(split.total, radio.total_power_w, rel_tol=1e-9):
        raise ValueError("split must exhaust the total power budget")
    (_, _, log_q_1, _, log_hb_1, _), (_, _, log_q_2, _, log_hb_2, _) = _link_terms(budget, radio, split.p_s, split.p_u)
    survival = math.exp(log_q_1 + log_q_2)
    if survival == 0.0:  # the outage is 1 to double precision around this split
        return 0.0
    return -survival * (math.exp(log_hb_1) / (2.0 * split.p_s) - math.exp(log_hb_2) / (2.0 * split.p_u))


def equal_power(radio: RadioConfig, budget: LinkBudget) -> AllocationResult:
    """Baseline split with half the budget on each hop."""
    return _allocation_at(budget, radio, 0.5, "equal", 0, 0.0)
