"""Seeded fuzz of the command line over wide scenario and argument ranges.

Every case writes one scenario file and runs one argv through ``cli.main``.
A case passes when the exit code is 0, 2, 3 or 4, stderr holds at most one
line, and no exception escapes ``main``: a traceback never counts as a clean
refusal. The draws are deterministic, so a failing case reproduces from its
index.
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
        "solver": {
            "alpha_tol": lambda r: 10.0 ** r.uniform(-320.0, -6.0),
            "max_iter": lambda r: r.randint(1, 3),
            "bracket_epsilon": lambda r: 10.0 ** r.uniform(-320.0, -2.0),
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
        codes[code] += 1
    # The draws reach past every check into the solvers, not only into the
    # refusals. (Exit 4, a Monte Carlo disagreement, is rare on any draw.)
    assert min(codes[code] for code in (cli.EXIT_OK, cli.EXIT_SCENARIO, cli.EXIT_SOLVER)) > CASES // 20, codes
