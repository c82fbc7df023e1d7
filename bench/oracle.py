"""Independent check of every CLI output the benchmark collects.

Runs after timing. Each closed-form outage cell is recomputed per hop as
``scipy.stats.ncx2.cdf(b**2, 2, a**2)`` (1 - Q_1(a, b)) with a and b taken
from the scenario's link budget, and the hops are combined as
1 - (1 - o1)(1 - o2), written o1 + o2 - o1*o2 so that tiny outages keep
their digits. ``validate`` rows must also put the Monte Carlo estimate within
``MC_SIGMAS`` standard errors of the oracle, and the exit code must match
the command's own |z| > 3 verdict.

A cell passes when |program - oracle| <= RTOL*|oracle| + ATOL. ATOL is a
few ulp of 1, the resolution of the survival probability 1 - outage. Cells
that pass only through ATOL are not failures, but they are counted and
reported as deep-tail cells with their worst relative error: at this commit
the Marcum complement series has an absolute error floor near 1e-16, so its
relative accuracy decays below outages of ~1e-8 (high-k shows this on about
half of its grid), while ncx2 stays within ~1e-13 relative down to ~1e-30.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy.stats import ncx2

from uavrelay.channel import HopEnvironment, LinkGeometry, RadioConfig, RicianEndpoints, link_budget

SWEEP_HEADER = "override_name,override_value,alpha,p_s_w,p_u_w,outage_closed_form,method"
VALIDATE_HEADER = "alpha,outage_closed_form,outage_mc,std_err,z_score"
# Printed cells carry 13 significant digits. The powers are rounded to that,
# and the outage moves ~b^2 times faster than the power near large K, so the
# relative tolerance leaves room for that rounding on top of the oracle's own
# accuracy.
RTOL = 1e-7
ATOL = 2e-15
MC_SIGMAS = 5.0
Z_LIMIT = 3.0


class Verdict(NamedTuple):
    """What a correct output contained."""

    validate_rows: int
    z_rejects: int  # 0 or 1: whether a validate row had |z| > 3
    tail_cells: int  # cells within ATOL but not within RTOL of the oracle
    tail_worst_rel: float


def _radio(scn: dict, rate: float | None = None, total: float | None = None) -> RadioConfig:
    radio = scn["radio"]
    return RadioConfig(
        f_c=radio["f_c_mhz"] * 1e6,
        n=radio["path_loss_exponent"],
        noise_power_dbm=radio["noise_power_dbm"],
        rate=radio["rate"] if rate is None else rate,
        total_power_w=radio["total_power_w"] if total is None else total,
    )


def _budget(scn: dict, radio: RadioConfig):
    geometry = scn["geometry"]
    return link_budget(
        LinkGeometry.midpoint(geometry["h_u"], geometry["L"]),
        HopEnvironment(**scn["env_su"]),
        HopEnvironment(**scn["env_ud"]),
        RicianEndpoints(**scn["rician_su"]),
        RicianEndpoints(**scn["rician_ud"]),
        radio,
        scn["excess_loss_convention"],
    )


def _outage(budget, radio: RadioConfig, p_s: np.ndarray, p_u: np.ndarray) -> np.ndarray:
    threshold = (2.0 ** (2.0 * radio.rate) - 1.0) * radio.noise_power_w

    def hop(k: float, gain: float, power: np.ndarray) -> np.ndarray:
        b_sq = 2.0 * (k + 1.0) * threshold / (power * gain)
        return ncx2.cdf(b_sq, 2.0, 2.0 * k)

    o1 = hop(budget.k_su, budget.g_su, p_s)
    o2 = hop(budget.k_ud, budget.g_ud, p_u)
    return o1 + o2 - o1 * o2


def _option(argv: list[str], flag: str) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else None


def _grid(spec: str) -> list[float]:
    start, stop, count = spec.split(":")
    start, stop, count = float(start), float(stop), int(count)
    if count == 1:
        return [start]
    step = (stop - start) / (count - 1)
    return [start + i * step for i in range(count)]


def _table(text: str, header: str) -> list[list[str]]:
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    if not lines or lines[0] != header:
        raise ValueError(f"header is {lines[:1]!r}")
    return [line.split(",") for line in lines[1:]]


def _check_close(got: np.ndarray, want: np.ndarray, what: str) -> tuple[int, float]:
    """Raise on a failing cell; returns (deep-tail cells, their worst relative error)."""
    bad = ~np.isclose(got, want, rtol=RTOL, atol=ATOL)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"{what} row {i}: program {got[i]!r} vs oracle {want[i]!r}")
    tail = ~np.isclose(got, want, rtol=RTOL, atol=0.0)
    rel = np.abs(got - want)[tail & (want > 0.0)] / want[tail & (want > 0.0)]
    return int(tail.sum()), float(rel.max(initial=0.0))


def _check_sweep(argv: list[str], scn: dict, text: str) -> tuple[int, float]:
    rows = _table(text, SWEEP_HEADER)
    if argv[0] == "sweep-power":
        pts = [float(v) for v in _option(argv, "--pt").split(",")]
        rates = [float(v) for v in _option(argv, "--R").split(",")]
        expected = [("R", rate, pt, None) for rate in rates for pt in pts for _ in range(3)]
    else:
        total = scn["radio"]["total_power_w"]
        alphas = _grid(_option(argv, "--alpha-grid"))
        expected = [("pt", total, total, a) for a in alphas] + [("pt", total, total, None)] * 2
    if len(rows) != len(expected):
        raise ValueError(f"{len(rows)} rows, expected {len(expected)}")
    groups: dict[tuple[float, float], list[tuple[float, float, float]]] = {}
    for row, (name, value, total, alpha) in zip(rows, expected):
        if row[0] != name or float(row[1]) != value:
            raise ValueError(f"override cells {row[:2]} where {name},{value} was expected")
        if (row[6] == "grid") != (alpha is not None) or row[6] not in ("grid", "exact", "theorem1", "equal"):
            raise ValueError(f"unexpected method {row[6]!r}")
        if alpha is not None and not math.isclose(float(row[2]), alpha, rel_tol=1e-11):
            raise ValueError(f"grid alpha {row[2]} where {alpha} was expected")
        p_s, p_u = float(row[3]), float(row[4])
        if not math.isclose(p_s + p_u, total, rel_tol=1e-11):
            raise ValueError(f"powers {p_s} + {p_u} do not add up to {total}")
        groups.setdefault((value if name == "R" else None, total), []).append((p_s, p_u, float(row[5])))
    tail_cells, worst = 0, 0.0
    for (rate, total), cells in groups.items():
        radio = _radio(scn, rate=rate, total=total)
        p_s, p_u, got = (np.array(col) for col in zip(*cells))
        count, rel = _check_close(got, _outage(_budget(scn, radio), radio, p_s, p_u), f"{argv[0]} rate={radio.rate}")
        tail_cells, worst = tail_cells + count, max(worst, rel)
    return tail_cells, worst


def _check_validate(argv: list[str], scn: dict, text: str, code: int) -> Verdict:
    rows = [[float(cell) for cell in row] for row in _table(text, VALIDATE_HEADER)]
    alphas = _grid(_option(argv, "--alpha-grid"))
    if len(rows) != len(alphas):
        raise ValueError(f"{len(rows)} rows, expected {len(alphas)}")
    radio = _radio(scn)
    alpha, closed, p_mc, std_err, z = (np.array(col) for col in zip(*rows))
    if not np.allclose(alpha, alphas, rtol=1e-11, atol=0.0):
        raise ValueError(f"alphas {alpha} where {alphas} were expected")
    total = radio.total_power_w
    oracle = _outage(_budget(scn, radio), radio, alpha * total, (1.0 - alpha) * total)
    tail = _check_close(closed, oracle, "validate")
    trials = int(_option(argv, "--trials") or 1_000_000)
    spread = np.where(std_err > 0.0, MC_SIGMAS * std_err, MC_SIGMAS / trials)
    if np.any(np.abs(p_mc - oracle) > spread):
        raise ValueError(f"MC estimate {p_mc} is more than {MC_SIGMAS} SE from the oracle {oracle}")
    rejected = bool(np.any(np.abs(z) > Z_LIMIT))
    if code != (4 if rejected else 0):
        raise ValueError(f"exit code {code} disagrees with max |z| = {np.max(np.abs(z)):.3f}")
    return Verdict(len(rows), int(rejected), *tail)


def check(argv: list[str], scenario: dict, text: str, code: int) -> Verdict:
    """Raise ValueError if an output is wrong; otherwise say what it contained."""
    if argv[0] == "validate":
        return _check_validate(argv, scenario, text, code)
    if code != 0:
        raise ValueError(f"exit code {code}")
    return Verdict(0, 0, *_check_sweep(argv, scenario, text))
