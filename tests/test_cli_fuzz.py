"""Seeded fuzz of the command line over wide scenario and argument ranges.

Every case writes one scenario file and runs one argv through ``cli.main``.
A case passes when the exit code is 0, 2, 3 or 4, stderr holds at most one
line, and no exception escapes ``main``: a traceback never counts as a clean
refusal. Nor does Python's own overflow text on stderr, which names no input.
Exits 0 and 4 print a complete table with finite cells, exits 2 and 3 print
nothing, and at each power of ``solve`` and ``sweep-power`` the exact row's
outage is at most twice the equal split's. The draws are deterministic, so a
failing case reproduces from its index.
"""

import collections
import contextlib
import io
import json
import math
import random

from uavrelay import cli

CASES = 2400
SEED = 1905
CLEAN_EXITS = {cli.EXIT_OK, cli.EXIT_SCENARIO, cli.EXIT_SOLVER, cli.EXIT_VALIDATION}
HEADERS = {
    "solve": cli.SOLVE_HEADER,
    "sweep-alpha": cli.SWEEP_HEADER,
    "sweep-power": cli.SWEEP_HEADER,
    "validate": cli.VALIDATE_HEADER,
}
#: The text cells of the tables: the methods and the override names.
NAMES = {"grid", "exact", "theorem1", "equal", "pt", "L", "R"}
#: What Python says when a float operation leaves the double range.
OVERFLOW_TEXTS = ("math range error", "Numerical result out of range")


def _wide(rng):
    """Log-uniform over 1e-310...1e308, subnormals included."""
    return 10.0 ** rng.uniform(-310.0, 308.0)


def _rate(rng):
    return rng.choice([rng.uniform(0.0, 511.9), 10.0 ** rng.uniform(-20.0, math.log10(511.9))])


def _sometimes(rng, draw, share=0.1):
    """``draw(rng)``, or None (the key is left out) for most fields."""
    return draw(rng) if rng.random() < share else None


def _sections(rng):
    """A scenario dict in which each field is drawn wide or left at its default."""
    draws = {
        "geometry": {"h_u": _wide, "L": _wide, "r_s": _wide},
        "env_su": {"a": _wide, "b": _wide, "eta_los_db": _wide, "eta_nlos_db": _wide},
        "env_ud": {"a": _wide, "b": _wide, "eta_los_db": _wide, "eta_nlos_db": _wide},
        "radio": {
            "f_c_mhz": _wide,
            "noise_power_dbm": lambda r: r.uniform(-300.0, 300.0),
            "rate": _rate,
            "total_power_w": _wide,
        },
        "sim": {"seed": lambda r: r.randrange(2**64), "chunk_size": lambda r: r.randint(1, 10**9 - 1)},
    }
    scenario = {}
    for section, fields in draws.items():
        values = {key: _sometimes(rng, draw) for key, draw in fields.items()}
        scenario[section] = {key: value for key, value in values.items() if value is not None}
    for section in ("rician_su", "rician_ud"):
        endpoints = _sometimes(rng, lambda r: sorted(r.uniform(-4000.0, 3082.0) for _ in range(2)), 0.2)
        if endpoints is not None:
            scenario[section] = dict(zip(("k0_db", "kpi2_db"), endpoints))
    return scenario


def _values(rng, draw):
    return ",".join(repr(draw(rng)) for _ in range(rng.randint(1, 2)))


def _alpha_grid(rng, low, high):
    start, stop = sorted(rng.uniform(low, high) for _ in range(2))
    return f"{start!r}:{stop!r}:{rng.randint(1, 4)}"


def _argv(rng):
    command = rng.choice(["solve", "sweep-alpha", "sweep-power", "validate"])
    argv = [command, "--excess-loss-convention", rng.choice(["standard", "paper"])]
    if command == "sweep-alpha":
        argv += ["--alpha-grid", _alpha_grid(rng, 1e-9, 1.0 - 1e-9)]
        flag = rng.choice([None, "--pt", "--L"])
    elif command == "sweep-power":
        argv += ["--pt", _values(rng, _wide)]
        flag = rng.choice([None, "--L", "--R"])
    else:
        flag = None
    if flag is not None:
        argv += [flag, _values(rng, _rate if flag == "--R" else _wide)]
    if command == "validate":
        argv += ["--alpha-grid", _alpha_grid(rng, 0.0, 1.0), "--trials", str(rng.choice([1, 17, 2000]))]
    return argv


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _table_rows(command, out):
    """The data rows of a complete table: the command's header after the
    ``#`` preamble, then at least one row of as many cells, each a name or a
    finite number."""
    table = [line.split(",") for line in out.splitlines() if not line.startswith("#")]
    assert len(table) > 1 and table[0] == HEADERS[command].split(","), out
    for row in table[1:]:
        assert len(row) == len(table[0]), row
        assert all(cell in NAMES or math.isfinite(float(cell)) for cell in row), row
    return table[1:]


def _assert_exact_within_twice_equal(command, rows):
    """At each power, the exact row's outage is at most twice the equal row's."""
    if command == "solve":
        points = [{row[0]: float(row[4]) for row in rows}]
    elif command == "sweep-power":
        # Each power's rows are exact, theorem1 and equal, in that order.
        assert [row[6] for row in rows] == ["exact", "theorem1", "equal"] * (len(rows) // 3), rows
        points = [{row[6]: float(row[5]) for row in rows[i : i + 3]} for i in range(0, len(rows), 3)]
    else:
        return
    for point in points:
        assert point["exact"] <= 2.0 * point["equal"], (rows, point)


def test_every_case_exits_cleanly(tmp_path):
    rng = random.Random(SEED)
    path = tmp_path / "scenario.json"
    codes = collections.Counter()
    for index in range(CASES):
        scenario, argv = _sections(rng), _argv(rng)
        path.write_text(json.dumps(scenario), encoding="utf-8")
        case = (index, argv, scenario)
        try:
            code, out, err = _run(argv + ["--scenario", str(path)])
        except Exception as exc:
            raise AssertionError(f"case {case} raised") from exc
        assert code in CLEAN_EXITS, case
        assert len(err.splitlines()) <= 1, (case, err)
        assert not any(text in err for text in OVERFLOW_TEXTS), (case, err)
        if code in (cli.EXIT_OK, cli.EXIT_VALIDATION):
            try:
                _assert_exact_within_twice_equal(argv[0], _table_rows(argv[0], out))
            except AssertionError as exc:
                raise AssertionError(f"case {case}") from exc
        else:
            assert out == "", case
        codes[code] += 1
    # The draws reach past every check into the solvers, not only into the
    # refusals. (Exit 4, a Monte Carlo disagreement, is rare on any draw.)
    assert min(codes[code] for code in (cli.EXIT_OK, cli.EXIT_SCENARIO, cli.EXIT_SOLVER)) > CASES // 20, codes
