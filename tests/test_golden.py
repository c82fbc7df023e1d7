"""Golden CLI outputs: exit code and stdout, byte for byte.

Each case replays one argv through ``cli.main`` and compares the result with
``tests/golden/<case>.txt``, whose first line is ``exit: <code>`` and whose
remainder is the exact stdout. The files pin what the CLI prints, so a
refactor of the loader or the commands must reproduce them unchanged. To
rewrite them after a deliberate output change, run
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from uavrelay import cli

GOLDEN_DIR = Path(__file__).parent / "golden"

PAPER = ["--excess-loss-convention", "paper"]

#: Every section set, with integer-valued floats, r_s and a non-default chunk size.
FULL_SCENARIO = {
    "geometry": {"h_u": 900, "L": 2000, "r_s": 800.0},
    "env_su": {"a": 0.28, "b": 9.6, "eta_los_db": 1, "eta_nlos_db": 20.0},
    "env_ud": {"a": 0.136, "b": 11.95, "eta_los_db": 1.6, "eta_nlos_db": 23},
    "rician_su": {"k0_db": 4, "kpi2_db": 14.0},
    "rician_ud": {"k0_db": 5.0, "kpi2_db": 15},
    "radio": {
        "f_c_mhz": 2400,
        "path_loss_exponent": 3,
        "noise_power_dbm": -110,
        "rate": 1,
        "total_power_w": 0.5,
    },
    "solver": {"alpha_tol": 1e-9, "max_iter": 150, "bracket_epsilon": 1e-6},
    "sim": {"trials": 40000, "seed": 99, "chunk_size": 7000},
    "excess_loss_convention": "paper",
}

HIGH_K_SCENARIO = {
    "rician_su": {"k0_db": 20.0, "kpi2_db": 30.0},
    "rician_ud": {"k0_db": 17.0, "kpi2_db": 27.0},
}

DEEP_TAIL_SCENARIO = {
    "rician_su": {"k0_db": 35.0, "kpi2_db": 45.0},
    "rician_ud": {"k0_db": 32.0, "kpi2_db": 42.0},
}

#: case name -> (argv, scenario written to a file and passed by --scenario, or None).
CASES = {
    "solve_default": (["solve"], None),
    "solve_paper": (["solve", *PAPER], None),
    "sweep_alpha_pt": (["sweep-alpha", *PAPER, "--alpha-grid", "0.1:0.9:9", "--pt", "0.25,1.0"], None),
    "sweep_alpha_L": (["sweep-alpha", *PAPER, "--alpha-grid", "0.2:0.8:4", "--L", "1000,1500,2000"], None),
    # K near 25 dB: Marcum a*b well above 25, so the quadrature takes its window branch, and
    # the grid edges put b on both sides of a.
    "sweep_alpha_high_k": (["sweep-alpha", *PAPER, "--alpha-grid", "0.001:0.999:199"], HIGH_K_SCENARIO),
    # K near 40 dB: grid outages with three-digit exponents, subnormal ones and exact zeros.
    "sweep_alpha_deep_tail": (["sweep-alpha", *PAPER, "--alpha-grid", "0.91:0.97:121"], DEEP_TAIL_SCENARIO),
    "sweep_power_R": (["sweep-power", *PAPER, "--pt", "0.1,0.25,0.5", "--R", "1,2"], None),
    "sweep_power_L": (["sweep-power", *PAPER, "--pt", "0.1,0.5", "--L", "1000,3000"], None),
    "sweep_power_default": (["sweep-power", *PAPER], None),
    "validate_seed": (["validate", "--trials", "50000", "--seed", "7"], None),
    "validate_paper": (["validate", "--trials", "50000", "--seed", "7", *PAPER], None),
    "full_solve": (["solve"], FULL_SCENARIO),
    "full_validate": (["validate", "--alpha-grid", "0.3:0.7:3"], FULL_SCENARIO),
    "bad_max_iter": (["solve"], {"solver": {"max_iter": 2.5}}),
    "bad_string_value": (["solve"], {"radio": {"rate": "1"}}),
    "bad_root": (["solve"], [1]),
    "bad_section": (["solve"], {"radio": 5}),
    "bad_convention": (["solve"], {"excess_loss_convention": "bogus"}),
    "bad_rician_order": (["solve"], {"rician_su": {"k0_db": 10.0, "kpi2_db": 5.0}}),
    "conflict_sweep_alpha": (["sweep-alpha", "--pt", "0.25", "--L", "1000"], None),
    "conflict_sweep_power": (["sweep-power", "--L", "1000", "--R", "1"], None),
}


def run_case(name: str, workdir: Path) -> str:
    """Golden text of one case: its exit line followed by the captured stdout."""
    argv, scenario = CASES[name]
    argv = list(argv)
    if scenario is not None:
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(scenario), encoding="utf-8")
        argv += ["--scenario", str(path)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return f"exit: {code}\n{stdout.getvalue()}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, tmp_path):
    expected = (GOLDEN_DIR / f"{name}.txt").read_bytes()
    assert run_case(name, tmp_path).encode("utf-8") == expected


#: case name -> (argv, scenario or None, SHA-256 of stdout). The digests
#: were taken before the alpha-grid kernel evaluated its rows in blocks and
#: the sweep emitter formatted each override cell once. On the 999-point
#: high-K grid the larger row groups span several kernel blocks, and each
#: override value heads 1001 rows.
FROZEN_DIGESTS = {
    "sweep_alpha_high_k_999": (
        ["sweep-alpha", *PAPER, "--alpha-grid", "0.001:0.999:999", "--pt", "0.25,1.0"],
        HIGH_K_SCENARIO,
        "6c8077402ba9770f0c76cd29e396ea363f8c56547b861f13fd12ed02f19fc90b",
    ),
    "sweep_power_paper_sweep": (
        ["sweep-power", *PAPER, "--pt", "0.05,0.1,0.25,0.5,1.0", "--R", "1,2"],
        None,
        "3f9e2357955a74534f52133f1caf5e4d6807cb9c03b9a24eb04f79fdec0d604f",
    ),
}


@pytest.mark.parametrize("name", sorted(FROZEN_DIGESTS))
def test_frozen_digest(name, tmp_path):
    argv, scenario, digest = FROZEN_DIGESTS[name]
    if scenario is not None:
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario), encoding="utf-8")
        argv = [*argv, "--scenario", str(path)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(argv) == 0
    assert hashlib.sha256(stdout.getvalue().encode("utf-8")).hexdigest() == digest


def test_every_golden_file_has_a_case():
    assert sorted(path.stem for path in GOLDEN_DIR.glob("*.txt")) == sorted(CASES)


if __name__ == "__main__":
    import tempfile

    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            text = run_case(case, Path(tmp))
            (GOLDEN_DIR / f"{case}.txt").write_bytes(text.encode("utf-8"))
            print(case, text.splitlines()[0], file=sys.stderr)
