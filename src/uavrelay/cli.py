"""Command-line harness: sweeps, solver runs, and Monte Carlo validation.

Scenario files are JSON with the sections shown in ``DEFAULT_SCENARIO``;
every field is optional and unknown keys are rejected before any computation
runs. Geometry is in meters, powers in watts, the carrier in MHz, and losses
in dB; conversions to internal units happen at load time. All outputs are
deterministic for a fixed scenario and seed.

Exit codes: 0 success, 2 scenario or argument error, 3 solver failure (a
saturated objective, a root search that does not converge, a non-finite
result, or an outage that is not a probability), 4 validation failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import sys
import typing

from . import __version__
from .channel import (
    EXCESS_LOSS_CONVENTIONS,
    HopEnvironment,
    LinkBudget,
    LinkGeometry,
    RadioConfig,
    RicianEndpoints,
    link_budget,
)
from .mcsim import SimSpec, estimate_outage
from .optimizer import equal_power, minimize_outage_exact, solve_theorem1, theorem1_residual
from .outage import PowerSplit, end_to_end_outage

__all__ = [
    "Scenario",
    "ScenarioError",
    "DEFAULT_SCENARIO",
    "load_scenario",
    "cmd_sweep_alpha",
    "cmd_sweep_power",
    "cmd_solve",
    "cmd_validate",
    "main",
    "console_main",
]

EXIT_OK = 0
EXIT_SCENARIO = 2
EXIT_SOLVER = 3
EXIT_VALIDATION = 4

SWEEP_HEADER = "override_name,override_value,alpha,p_s_w,p_u_w,outage_closed_form,method"
VALIDATE_HEADER = "alpha,outage_closed_form,outage_mc,std_err,z_score"
SOLVE_HEADER = "method,alpha,p_s_w,p_u_w,outage,iterations,residual"
#: Row template of each table, one slot per header column: %s for a name,
#: %d for a count and %.12e for a float, which must be finite. A sweep row is
#: its override's prefix, formatted once per override value, then its cells.
SWEEP_PREFIX = "%s,%.12e,"
SWEEP_CELLS = "%.12e,%.12e,%.12e,%.12e,%s"
VALIDATE_ROW = "%.12e,%.12e,%.12e,%.12e,%.12e"
SOLVE_ROW = "%s,%.12e,%.12e,%.12e,%.12e,%d,%.12e"

#: Default scenario; values follow the reference system parameter table.
DEFAULT_SCENARIO = {
    "geometry": {"h_u": 1000.0, "L": 2000.0, "r_s": None},
    "env_su": {"a": 0.28, "b": 9.6, "eta_los_db": 1.0, "eta_nlos_db": 20.0},
    "env_ud": {"a": 0.136, "b": 11.95, "eta_los_db": 1.6, "eta_nlos_db": 23.0},
    "rician_su": {"k0_db": 5.0, "kpi2_db": 15.0},
    "rician_ud": {"k0_db": 5.0, "kpi2_db": 15.0},
    "radio": {
        "f_c_mhz": 2000.0,
        "path_loss_exponent": 3.0,
        "noise_power_dbm": -110.0,
        "rate": 1.0,
        "total_power_w": 0.25,
    },
    "sim": {"trials": 1_000_000, "seed": 12345, "chunk_size": 100_000},
    "excess_loss_convention": "standard",
}

#: Scenario keys that differ from their field name, with the factor that
#: converts the scenario unit to the internal one.
_RENAMED = {"f_c_mhz": ("f_c", 1e6), "path_loss_exponent": ("n", 1.0)}


class ScenarioError(ValueError):
    """Raised for malformed scenario files or command arguments."""


def _merge_scenario(data: dict) -> dict:
    """Overlay a scenario dict on the defaults, rejecting unknown keys."""
    if not isinstance(data, dict):
        raise ScenarioError("scenario root must be a JSON object")
    merged = {key: dict(val) if isinstance(val, dict) else val for key, val in DEFAULT_SCENARIO.items()}
    for section, content in data.items():
        if section not in DEFAULT_SCENARIO:
            raise ScenarioError(f"unknown scenario key {section!r}")
        if isinstance(DEFAULT_SCENARIO[section], dict):
            if not isinstance(content, dict):
                raise ScenarioError(f"scenario section {section!r} must be an object")
            for key, value in content.items():
                if key not in DEFAULT_SCENARIO[section]:
                    raise ScenarioError(f"unknown scenario key {section!r}.{key!r}")
                merged[section][key] = value
        else:
            merged[section] = content
    return merged


def _field_values(section: str, content: dict) -> dict:
    """Constructor arguments of one section, checked and typed by its fields.

    Keys whose default is null may stay null and are then left out.
    """
    values = {}
    for key, value in content.items():
        if value is None and DEFAULT_SCENARIO[section][key] is None:
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ScenarioError(f"scenario field {section!r}.{key!r} must be a number")
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an integer beyond the double range
            raise ScenarioError(f"scenario field {section!r}.{key!r} must lie in the double range") from None
        if not finite:
            raise ScenarioError(f"scenario field {section!r}.{key!r} must be finite")
        name, scale = _RENAMED.get(key, (key, 1.0))
        if name in _INTEGER_FIELDS[section]:
            if value != int(value):
                raise ScenarioError(f"scenario field {section!r}.{key!r} must be an integer")
            values[name] = int(value)
        else:
            values[name] = float(value) * scale
    return values


def _reject_constant(name: str):
    raise ScenarioError(f"scenario numbers must be finite, not {name}")


@dataclasses.dataclass(frozen=True)
class Scenario:
    """A fully validated scenario with internal units."""

    geometry: LinkGeometry
    env_su: HopEnvironment
    env_ud: HopEnvironment
    rician_su: RicianEndpoints
    rician_ud: RicianEndpoints
    radio: RadioConfig
    sim: SimSpec
    excess_loss_convention: str
    sha256: str

    def budget(self) -> LinkBudget:
        """The link budget; a geometry or radio outside the model is a ScenarioError."""
        try:
            return link_budget(
                self.geometry, self.env_su, self.env_ud, self.rician_su, self.rician_ud,
                self.radio, self.excess_loss_convention,
            )
        except (ValueError, OverflowError) as exc:
            raise ScenarioError(f"invalid link budget: {exc}") from exc


#: The dataclass each scenario section builds, read from the Scenario fields,
#: and the fields of each whose annotation asks for an integer.
_SECTIONS = {
    name: cls for name, cls in typing.get_type_hints(Scenario).items() if dataclasses.is_dataclass(cls)
}
_INTEGER_FIELDS = {s: {f.name for f in dataclasses.fields(c) if f.type == "int"} for s, c in _SECTIONS.items()}


def load_scenario(
    path: str | None,
    *,
    seed: int | None = None,
    trials: int | None = None,
    convention: str | None = None,
) -> Scenario:
    """Load and validate a scenario file, applying command-line overrides."""
    if path is None:
        data = {}
    else:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle, parse_constant=_reject_constant)
        except OSError as exc:
            raise ScenarioError(f"cannot read scenario file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"scenario file is not valid JSON: {exc}") from exc

    merged = _merge_scenario(data)
    if seed is not None:
        merged["sim"]["seed"] = seed
    if trials is not None:
        merged["sim"]["trials"] = trials
    if convention is not None:
        merged["excess_loss_convention"] = convention

    convention_value = merged["excess_loss_convention"]
    if convention_value not in EXCESS_LOSS_CONVENTIONS:
        raise ScenarioError(f"excess_loss_convention must be one of {EXCESS_LOSS_CONVENTIONS}")

    try:
        values = {section: _field_values(section, merged[section]) for section in _SECTIONS}
        geometry = values.pop("geometry")
        geometry.setdefault("r_s", 0.5 * geometry["L"])  # null r_s: relay at the midpoint
        sections = {section: _SECTIONS[section](**kwargs) for section, kwargs in values.items()}
        sections["geometry"] = LinkGeometry(**geometry)
    except ScenarioError:
        raise
    except (ValueError, OverflowError) as exc:
        raise ScenarioError(f"invalid scenario value: {exc}") from exc

    canonical = json.dumps(merged, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    return Scenario(**sections, excess_loss_convention=convention_value, sha256=digest)


def _lines(template: str, rows: list[tuple]) -> list[str]:
    """Each row formatted by ``template``.

    Raises RuntimeError if a cell in a %.12e slot is not finite.
    """
    float_slots = [spec.startswith(".12e") for spec in template.split("%")[1:]]
    for is_float, column in zip(float_slots, zip(*rows)):
        if is_float and not all(map(math.isfinite, column)):
            raise RuntimeError("refusing to emit a non-finite value")
    return [template % row for row in rows]


def _render(scenario: Scenario, header: str, lines: list[str]) -> str:
    head = [
        f"# uavrelay {__version__}",
        f"# scenario_sha256: {scenario.sha256}",
        f"# seed: {scenario.sim.seed}",
        header,
    ]
    return "\n".join(head + lines) + "\n"


def _solve_both(budget: LinkBudget, radio: RadioConfig) -> tuple:
    """The exact and theorem1 allocations of one budget. The exact solve
    starts from the theorem1 result, so the budget's saturation check and
    Theorem 1 search run once."""
    approx = solve_theorem1(budget, radio)
    return minimize_outage_exact(budget, radio, theorem1=approx), approx


def _cells(prefix: str, results) -> list[str]:
    """Sweep rows of solved allocations, each headed by ``prefix``."""
    rows = [(res.alpha_star, res.p_s, res.p_u, res.outage, res.method) for res in results]
    return [prefix + line for line in _lines(SWEEP_CELLS, rows)]


def _sweep(scenario: Scenario, overlays: list[tuple], rows) -> str:
    """Sweep table of the overlays ``(name, value, swept scenario)``.

    Every overlay's link budget is formed before any solve, so an invalid
    one exits 2 before a solver failure can exit 3. ``rows(swept, budget,
    prefix)`` returns an overlay's lines, each headed by its ``SWEEP_PREFIX``,
    which is formatted once."""
    budgets = [swept.budget() for _, _, swept in overlays]
    lines = []
    for (name, value, swept), budget in zip(overlays, budgets):
        [prefix] = _lines(SWEEP_PREFIX, [(name, value)])
        lines += rows(swept, budget, prefix)
    return _render(scenario, SWEEP_HEADER, lines)


def cmd_sweep_alpha(scenario: Scenario, alpha_grid: tuple[float, float, int], overlays: list[tuple]) -> str:
    """Closed-form outage over the alpha grid (START, STOP, COUNT), plus
    both solver allocations.

    The grid is one float array from ``_arrays._alpha_grid`` to the text
    block of ``_arrays._grid_rows``, which formats each cell as
    ``SWEEP_CELLS`` does."""
    from ._arrays import _alpha_grid, _grid_rows, _outage_grid

    alphas = _alpha_grid(*alpha_grid)
    if not ((alphas > 0.0) & (alphas < 1.0)).all():  # NaN fails both
        raise ScenarioError("alpha grid values must lie strictly inside (0, 1)")

    def rows(swept, budget, prefix):
        outages = _outage_grid(budget, alphas, swept.radio)
        cells = _cells(prefix, _solve_both(budget, swept.radio))
        return [_grid_rows(prefix, alphas, swept.radio.total_power_w, outages), *cells]

    return _sweep(scenario, overlays, rows)


def cmd_sweep_power(scenario: Scenario, pt_grid: list[float], overlays: list[tuple]) -> str:
    """Outage of the exact, approximate, and equal allocations over a power grid."""
    for total in pt_grid:
        if total <= 0.0:
            raise ScenarioError("total power grid values must be positive")

    def rows(swept, budget, prefix):
        results = []
        for total in pt_grid:
            radio = dataclasses.replace(swept.radio, total_power_w=total)
            results += [*_solve_both(budget, radio), equal_power(radio, budget)]
        return _cells(prefix, results)

    return _sweep(scenario, overlays, rows)


def cmd_solve(scenario: Scenario) -> str:
    """All three allocations plus the root-equation residual at the exact one."""
    budget = scenario.budget()
    exact, approx = _solve_both(budget, scenario.radio)
    equal = equal_power(scenario.radio, budget)
    rows = [
        (res.method, res.alpha_star, res.p_s, res.p_u, res.outage, res.iterations, res.residual)
        for res in (exact, approx, equal)
    ]
    comments = [
        ("residual_at_exact", theorem1_residual(budget, PowerSplit(exact.p_s, exact.p_u), scenario.radio)),
        ("vs_exact_alpha_gap", abs(approx.alpha_star - exact.alpha_star)),
    ]
    # No ratio to a zero exact outage, nor one past the double range.
    ratio = approx.outage / exact.outage if exact.outage > 0.0 else math.inf
    if math.isfinite(ratio):
        comments.append(("vs_exact_outage_ratio", ratio))
    text = _render(scenario, SOLVE_HEADER, _lines(SOLVE_ROW, rows))
    return text + "\n".join(_lines("# theorem1_%s: %.12e", comments)) + "\n"


def cmd_validate(scenario: Scenario, alphas: list[float]) -> tuple[str, bool]:
    """Closed form against the Monte Carlo estimate, row per alpha.

    Each row gets an independent stream (base seed advanced by the row
    index). z is a score statistic: the gap over sqrt(p (1 - p) / trials)
    of the closed-form p. Returns the report and whether every |z| stayed
    within 3.
    """
    for alpha in alphas:
        if not 0.0 <= alpha <= 1.0:
            raise ScenarioError("alpha values must lie in [0, 1]")
    budget = scenario.budget()
    total = scenario.radio.total_power_w
    rows = []
    passed = True
    for index, alpha in enumerate(alphas):
        split = PowerSplit.from_alpha(alpha, total)
        closed = end_to_end_outage(budget, split, scenario.radio)
        spec = dataclasses.replace(scenario.sim, seed=(scenario.sim.seed + index) % 2**64)
        estimate = estimate_outage(budget, split, scenario.radio, spec)
        # Score test: the binomial spread that the closed form predicts.
        # The estimate's own spread shrinks when its count comes out low.
        spread = closed * (1.0 - closed) / estimate.trials
        if spread > 0.0:
            z_score = (estimate.p_hat - closed) / math.sqrt(spread)
        else:
            # No spread (a closed form of 0 or 1, or one so small that the
            # spread underflows): score the raw gap per trial.
            z_score = (estimate.p_hat - closed) * estimate.trials
        passed = passed and abs(z_score) <= 3.0
        rows.append((alpha, closed, estimate.p_hat, estimate.std_err, z_score))
    return _render(scenario, VALIDATE_HEADER, _lines(VALIDATE_ROW, rows)), passed


def _alpha_grid_bounds(text: str) -> tuple[float, float, int]:
    """START, STOP and COUNT of an ``--alpha-grid`` value, checked: COUNT in
    [1, ``_MAX_GRID_POINTS``] and STOP not below START."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ScenarioError("--alpha-grid expects START:STOP:COUNT")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ScenarioError(f"bad --alpha-grid: {exc}") from exc
    if not 1 <= count <= _MAX_GRID_POINTS:
        raise ScenarioError(f"--alpha-grid count must lie in [1, {_MAX_GRID_POINTS}]")
    if stop < start:
        raise ScenarioError("--alpha-grid stop must not precede start")
    return start, stop, count


def _parse_alpha_grid(text: str) -> list[float]:
    """The points of an ``--alpha-grid`` value as Python floats: the array
    of ``_arrays._alpha_grid``, which ``sweep-alpha`` keeps as it is."""
    from ._arrays import _alpha_grid

    return _alpha_grid(*_alpha_grid_bounds(text)).tolist()


def _parse_float_list(text: str, flag: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ScenarioError(f"bad {flag}: {exc}") from exc
    if not values:
        raise ScenarioError(f"{flag} needs at least one value")
    if not all(math.isfinite(v) and v > 0.0 for v in values):
        raise ScenarioError(f"{flag} values must be finite and positive")
    return values


def _overlays(args: argparse.Namespace, scenario: Scenario, *names: str) -> list[tuple[str, float, Scenario]]:
    """The swept scenarios of a sweep, as ``(name, value, swept scenario)``.

    One per value of the one override flag in ``names`` that was given, or
    else the scenario itself, held at its own value of the first name. A
    distance override redeploys the relay at the midpoint, matching the
    sweep convention of the reference experiments.
    """
    given = [name for name in names if getattr(args, name) is not None]
    if len(given) > 1:
        raise ScenarioError(f"choose one of --{names[0]} or --{names[1]} for a sweep")
    if not given:
        own = {"pt": scenario.radio.total_power_w, "L": scenario.geometry.L}
        return [(names[0], own[names[0]], scenario)]
    [name] = given
    overlays = []
    for value in _parse_float_list(getattr(args, name), f"--{name}"):
        try:
            if name == "L":
                swept = dataclasses.replace(scenario, geometry=LinkGeometry.midpoint(scenario.geometry.h_u, value))
            else:
                radio = dataclasses.replace(scenario.radio, **{{"pt": "total_power_w", "R": "rate"}[name]: value})
                swept = dataclasses.replace(scenario, radio=radio)
        except ValueError as exc:
            raise ScenarioError(f"invalid --{name} value {value}: {exc}") from exc
        overlays.append((name, value, swept))
    return overlays


_DEFAULT_ALPHA_GRID = "0.01:0.99:99"
_DEFAULT_VALIDATE_GRID = "0.1:0.9:5"
# Largest --alpha-grid COUNT, checked before the grid is built: 100x the
# 999 points of the benchmark's high-k grid.
_MAX_GRID_POINTS = 100_000
_DEFAULT_PT_GRID = "0.05,0.1,0.15,0.2,0.25,0.3,0.35,0.4,0.45,0.5,0.55,0.6,0.65,0.7,0.75,0.8,0.85,0.9,0.95,1.0"


@functools.cache  # built on first use, then shared by every call in the process
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uavrelay",
        description="Outage and power allocation for a dual-hop UAV relay link.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_shared(cmd):
        cmd.add_argument("--scenario", metavar="PATH", help="scenario JSON file")
        cmd.add_argument("--out", metavar="PATH", help="write output to a file instead of stdout")
        cmd.add_argument("--seed", type=int, help="override the simulation seed")
        cmd.add_argument("--trials", type=int, help="override the Monte Carlo trial count")
        cmd.add_argument(
            "--excess-loss-convention",
            choices=EXCESS_LOSS_CONVENTIONS,
            help="excess path-loss convention override",
        )

    sweep_alpha = sub.add_parser("sweep-alpha", help="outage versus allocation factor")
    add_shared(sweep_alpha)
    sweep_alpha.add_argument("--alpha-grid", default=_DEFAULT_ALPHA_GRID, metavar="START:STOP:COUNT")
    sweep_alpha.add_argument("--pt", metavar="LIST", help="comma list of total powers to sweep, W")
    sweep_alpha.add_argument("--L", metavar="LIST", help="comma list of end-to-end distances, m")

    sweep_power = sub.add_parser("sweep-power", help="outage versus total power per scheme")
    add_shared(sweep_power)
    sweep_power.add_argument("--pt", default=_DEFAULT_PT_GRID, metavar="LIST", help="total power grid, W")
    sweep_power.add_argument("--L", metavar="LIST", help="comma list of distances to overlay, m")
    sweep_power.add_argument("--R", metavar="LIST", help="comma list of rates to overlay, bits/s/Hz")

    solve = sub.add_parser("solve", help="solve the allocation for one scenario")
    add_shared(solve)

    validate = sub.add_parser("validate", help="check the closed form against Monte Carlo")
    add_shared(validate)
    validate.add_argument("--alpha-grid", default=_DEFAULT_VALIDATE_GRID, metavar="START:STOP:COUNT")

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK

    try:
        scenario = load_scenario(
            args.scenario,
            seed=args.seed,
            trials=args.trials,
            convention=args.excess_loss_convention,
        )
        code = EXIT_OK
        if args.command == "sweep-alpha":
            grid = _alpha_grid_bounds(args.alpha_grid)
            text = cmd_sweep_alpha(scenario, grid, _overlays(args, scenario, "pt", "L"))
        elif args.command == "sweep-power":
            grid = _parse_float_list(args.pt, "--pt")
            text = cmd_sweep_power(scenario, grid, _overlays(args, scenario, "L", "R"))
        elif args.command == "solve":
            text = cmd_solve(scenario)
        else:
            text, passed = cmd_validate(scenario, _parse_alpha_grid(args.alpha_grid))
            code = EXIT_OK if passed else EXIT_VALIDATION
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO
    except (RuntimeError, OverflowError) as exc:  # a BracketError, an open search, a non-finite output, or an overflow
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER

    if args.out is None:
        sys.stdout.write(text)
        return code
    try:
        with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"error: cannot write output file: {exc}", file=sys.stderr)
        return EXIT_SCENARIO
    return code


def console_main() -> None:
    sys.exit(main())
