import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from uavrelay import _arrays, cli, optimizer, outage, specfun
from uavrelay import LinkBudget, OutageEstimate, PowerSplit, equal_power, minimize_outage_exact, theorem1_residual
from uavrelay.cli import (
    EXIT_OK,
    EXIT_SCENARIO,
    EXIT_SOLVER,
    EXIT_VALIDATION,
    ScenarioError,
    load_scenario,
    main,
)
from uavrelay.optimizer import BracketError


def write_scenario(tmp_path, name="scenario.json", **sections):
    path = tmp_path / name
    path.write_text(json.dumps(sections), encoding="utf-8")
    return str(path)


def paper_scenario(tmp_path, **extra):
    sections = {"excess_loss_convention": "paper"}
    sections.update(extra)
    return write_scenario(tmp_path, **sections)


def symmetric_scenario(tmp_path):
    return write_scenario(
        tmp_path,
        name="symmetric.json",
        excess_loss_convention="paper",
        env_ud={"a": 0.28, "b": 9.6, "eta_los_db": 1.0, "eta_nlos_db": 20.0},
    )


def rician_scenario_text(k_db):
    """Scenario JSON with K of ``k_db`` dB at every elevation of both hops."""
    endpoints = {"k0_db": k_db, "kpi2_db": k_db}
    return json.dumps({"rician_su": endpoints, "rician_ud": endpoints, "excess_loss_convention": "paper"})


def _unconverged(*args):
    raise RuntimeError("I_0(1.4) series did not converge in 3 terms")


def parse_rows(text, header):
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    assert lines[0] == header
    return [line.split(",") for line in lines[1:]]


def solver_rows(command, text):
    """Method -> (alpha, outage) of the solver rows of a solve or sweep report."""
    if command == "solve":
        return {row[0]: (float(row[1]), float(row[4])) for row in parse_rows(text, cli.SOLVE_HEADER)}
    return {row[-1]: (float(row[2]), float(row[5])) for row in parse_rows(text, cli.SWEEP_HEADER) if row[-1] != "grid"}


class TestScenarioLoading:
    def test_defaults_load_without_file(self):
        scenario = load_scenario(None)
        assert scenario.radio.f_c == pytest.approx(2000e6)
        assert scenario.radio.total_power_w == pytest.approx(0.25)
        assert scenario.geometry.r_s == pytest.approx(1000.0)
        assert scenario.excess_loss_convention == "standard"

    def test_partial_override(self, tmp_path):
        path = write_scenario(tmp_path, radio={"total_power_w": 0.5})
        scenario = load_scenario(path)
        assert scenario.radio.total_power_w == pytest.approx(0.5)
        assert scenario.radio.rate == pytest.approx(1.0)

    def test_unknown_section_rejected(self, tmp_path):
        path = write_scenario(tmp_path, radios={"total_power_w": 0.5})
        with pytest.raises(ScenarioError, match="radios"):
            load_scenario(path)

    def test_unknown_nested_key_rejected(self, tmp_path):
        path = write_scenario(tmp_path, radio={"total_power": 0.5})
        with pytest.raises(ScenarioError, match="total_power"):
            load_scenario(path)

    def test_invalid_value_rejected(self, tmp_path):
        path = write_scenario(tmp_path, geometry={"h_u": -5.0})
        with pytest.raises(ScenarioError):
            load_scenario(path)

    def test_rate_must_be_positive(self, tmp_path):
        path = write_scenario(tmp_path, radio={"rate": 0.0})
        with pytest.raises(ScenarioError):
            load_scenario(path)

    def test_flag_overrides(self, tmp_path):
        path = write_scenario(tmp_path)
        scenario = load_scenario(path, seed=99, trials=5000, convention="paper")
        assert scenario.sim.seed == 99
        assert scenario.sim.trials == 5000
        assert scenario.excess_loss_convention == "paper"

    def test_default_table_matches_dataclass_fields(self):
        tables = {key for key, value in cli.DEFAULT_SCENARIO.items() if isinstance(value, dict)}
        assert tables == set(cli._SECTIONS)
        for section, cls in cli._SECTIONS.items():
            keys = {cli._RENAMED.get(key, (key,))[0] for key in cli.DEFAULT_SCENARIO[section]}
            fields = {field.name for field in dataclasses.fields(cls) if field.init}
            assert keys == fields, section

    def test_invalid_link_budget_is_a_scenario_error(self, tmp_path):
        path = write_scenario(tmp_path, geometry={"h_u": 0.01, "L": 0.02})
        with pytest.raises(ScenarioError, match="mean path gains"):
            load_scenario(path).budget()

    def test_relay_split_override(self, tmp_path):
        path = write_scenario(tmp_path, geometry={"r_s": 600.0})
        scenario = load_scenario(path)
        assert scenario.geometry.r_s == pytest.approx(600.0)
        assert scenario.geometry.r_d == pytest.approx(1400.0)


_EPSILON_LINE = (
    "error: invalid scenario value: bracket_epsilon must lie in (0, 0.01) and exceed ~5.6e-17, where 1 - epsilon rounds to 1"
)


class TestExitCodes:
    def test_unknown_key_exits_2(self, tmp_path, capsys):
        path = write_scenario(tmp_path, bogus={"x": 1})
        assert main(["solve", "--scenario", path]) == EXIT_SCENARIO
        assert "bogus" in capsys.readouterr().err

    def test_bad_alpha_grid_exits_2(self, tmp_path, capsys):
        path = paper_scenario(tmp_path)
        assert main(["sweep-alpha", "--scenario", path, "--alpha-grid", "nope"]) == EXIT_SCENARIO
        assert main(["sweep-alpha", "--scenario", path, "--alpha-grid", "0:1:5"]) == EXIT_SCENARIO

    def test_conflicting_overrides_exit_2(self, tmp_path):
        path = paper_scenario(tmp_path)
        code = main(
            ["sweep-alpha", "--scenario", path, "--pt", "0.25", "--L", "1000"]
        )
        assert code == EXIT_SCENARIO

    def test_missing_file_exits_2(self):
        assert main(["solve", "--scenario", "/nonexistent.json"]) == EXIT_SCENARIO

    @pytest.mark.parametrize("command", ["solve", "sweep-alpha"])
    def test_unwritable_out_exits_2(self, tmp_path, capsys, command):
        out = tmp_path / "missing" / "x.csv"
        assert main([command, "--out", str(out)]) == EXIT_SCENARIO
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: cannot write output file: ")
        assert str(out) in captured.err and not out.parent.exists()

    def test_unknown_flag_exits_2(self, capsys):
        assert main(["solve", "--frobnicate"]) == EXIT_SCENARIO

    def test_reused_parser_keeps_no_state(self, capsys):
        # One parser serves every call in the process: flags given to one
        # call, and a call that fails to parse, leave the next one unchanged.
        assert cli._build_parser() is cli._build_parser()
        argv = ["sweep-alpha", "--excess-loss-convention", "paper"]
        assert main(argv + ["--alpha-grid", "0.5:0.5:1", "--pt", "0.5"]) == EXIT_OK
        assert len(parse_rows(capsys.readouterr().out, cli.SWEEP_HEADER)) == 3
        assert main(["sweep-alpha", "--frobnicate"]) == EXIT_SCENARIO
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--frobnicate" in captured.err
        assert main(argv) == EXIT_OK
        rows = parse_rows(capsys.readouterr().out, cli.SWEEP_HEADER)
        assert len(rows) == 99 + 2
        assert {row[1] for row in rows} == {"2.500000000000e-01"}

    @pytest.mark.parametrize(
        "scenario_text, argv",
        [
            ('{"radio": {"total_power_w": NaN}}', ["solve"]),
            ('{"geometry": {"h_u": Infinity}}', ["solve"]),
            ('{"solver": {"max_iter": 1e400}}', ["solve"]),
            ('{"geometry": {"h_u": 1' + "0" * 400 + "}}", ["solve"]),
            ('{"geometry": {"h_u": 0.01, "L": 0.02}}', ["solve"]),
            ('{"geometry": {"h_u": 0.01}}', ["sweep-alpha", "--L", "0.02"]),
            (None, ["sweep-power", "--pt", "nan"]),
            (None, ["sweep-alpha", "--pt", "nan"]),
            (None, ["sweep-power", "--L", "nan"]),
            (None, ["sweep-alpha", "--L", "inf"]),
            (None, ["sweep-power", "--R", "inf", "--pt", "0.1"]),
            ('{"radio": {"rate": 600}}', ["solve"]),
            (None, ["sweep-power", "--R", "600", "--pt", "0.1"]),
            ('{"radio": {"noise_power_dbm": 4000}}', ["solve"]),
            ('{"radio": {"noise_power_dbm": -4000}}', ["solve"]),
            ('{"radio": {"rate": 1e-17}}', ["solve"]),
            (None, ["sweep-power", "--R", "1e-17", "--pt", "0.1"]),
            # K above 1e150 (1500 dB). At 1545 dB the Theorem 1 constants
            # overflowed, at 3079 dB the Marcum a b did (a traceback), and at
            # 3080 dB the closed form read a false certain outage.
            (rician_scenario_text(1545.0), ["solve"]),
            (rician_scenario_text(3079.0), ["sweep-alpha"]),
            (rician_scenario_text(3080.0), ["validate"]),
        ],
        ids=[
            "nan-power",
            "infinite-height",
            "max-iter-overflow",
            "integer-beyond-float",
            "gain-above-unity",
            "gain-above-unity-after-L",
            "sweep-power-pt-nan",
            "sweep-alpha-pt-nan",
            "sweep-power-L-nan",
            "sweep-alpha-L-inf",
            "sweep-power-R-inf",
            "rate-threshold-overflow",
            "sweep-power-R-threshold-overflow",
            "noise-power-overflow",
            "noise-power-underflow",
            "rate-threshold-underflow",
            "sweep-power-R-threshold-underflow",
            "rician-k-1545db",
            "rician-k-3079db",
            "rician-k-3080db",
        ],
    )
    def test_out_of_model_values_exit_2(self, tmp_path, capsys, scenario_text, argv):
        if scenario_text is not None:
            path = tmp_path / "scenario.json"
            path.write_text(scenario_text, encoding="utf-8")
            argv = argv + ["--scenario", str(path)]
        assert main(argv) == EXIT_SCENARIO
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")

    def test_bracket_failure_exits_3(self, tmp_path, monkeypatch):
        path = paper_scenario(tmp_path)

        def explode(*args, **kwargs):
            raise BracketError("no sign change")

        monkeypatch.setattr(cli, "solve_theorem1", explode)
        assert main(["solve", "--scenario", path]) == EXIT_SOLVER

    @pytest.mark.parametrize("command", ["solve", "sweep-alpha", "sweep-power"])
    @pytest.mark.parametrize(
        "scenario",
        [
            # The SNR threshold is out of reach at every split, and the root
            # equation's constants overflow to inf.
            {"radio": {"rate": 511.9}},
            {"radio": {"noise_power_dbm": 3000}},
            # Subnormal powers: each hop's mean SNR underflows to 0 at every
            # split, and so does p_s at the lower bracket end.
            {"radio": {"total_power_w": 1e-318}, "excess_loss_convention": "paper"},
            # As above, under `standard`, with powers that stay positive at
            # the bracket ends; the root-equation residual overflows instead.
            {
                "rician_su": {"k0_db": 10.510378902985291, "kpi2_db": 13.767755569500476},
                "rician_ud": {"k0_db": 7.540060816532338, "kpi2_db": 13.35435396941673},
                "radio": {
                    "total_power_w": 5.3602725e-316,
                    "rate": 0.040226070693807105,
                    "noise_power_dbm": -219.39813132022633,
                },
                "geometry": {"h_u": 1742.7792516586358, "L": 8415.549469267444},
                "excess_loss_convention": "standard",
            },
        ],
        ids=["rate-511.9", "noise-3000-dbm", "power-underflow", "residual-overflow"],
    )
    def test_saturated_objective_exits_3(self, tmp_path, capsys, command, scenario):
        argv = [command, "--scenario", write_scenario(tmp_path, **scenario)]
        if command == "sweep-power" and "total_power_w" in scenario["radio"]:
            argv += ["--pt", repr(scenario["radio"]["total_power_w"])]
        assert main(argv) == EXIT_SOLVER
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "solver error: saturated objective: the outage is 1 at every split,"
            " since one hop misses the SNR threshold even at full power"
        ]

    def test_budget_saturated_below_series_noise_exits_3(self, monkeypatch, capsys):
        # The weak hop's Q_1 at full power is 7.5e-78, so the outage is 1 at
        # every split. A series that read its complement as 1 - 8.7e-15
        # once "solved" this budget with an outage of 1 - 5.2e-15.
        budget = LinkBudget(2.4275357150761724e-12, 2.2451228781494336e-15, 433.9960844480393, 3.2180625729638317)
        monkeypatch.setattr(cli, "link_budget", lambda *args: budget)
        assert main(["solve"]) == EXIT_SOLVER
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("solver error: saturated objective: ")

    def test_subnormal_exact_outage_omits_the_outage_ratio(self, monkeypatch, capsys):
        # The exact outage is 4.2e-312 and the theorem1 outage 0.58, so their
        # ratio is past the double range. The ratio line once read inf, and
        # solve refused the whole report of a budget that sweep-power answers.
        budget = LinkBudget(1.7831178483593306e-13, 5.932099081039597e-13, 153216.16165976884, 268173.08765712345)
        monkeypatch.setattr(cli, "link_budget", lambda *args: budget)
        assert main(["sweep-power", "--pt", "0.25"]) == EXIT_OK
        capsys.readouterr()
        assert main(["solve"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = solver_rows("solve", captured.out)
        assert 0.0 < rows["exact"][1] < 1e-300 < 0.5 < rows["theorem1"][1]
        comments = [line.split(":")[0] for line in captured.out.splitlines() if line.startswith("# theorem1_")]
        assert comments == ["# theorem1_residual_at_exact", "# theorem1_vs_exact_alpha_gap"]

    @pytest.mark.parametrize(
        "budget, edge",
        [
            (LinkBudget(3.6e-07, 0.036, 0.1, 300.0), 1.0 - 1e-6),
            (LinkBudget(0.036, 3.6e-07, 300.0, 0.1), 1e-6),
        ],
        ids=["hi", "lo"],
    )
    def test_one_signed_residual_solves_at_the_edge(self, monkeypatch, capsys, budget, edge):
        # The Theorem 1 residual keeps one sign over the whole bracket: both
        # solvers put the split at the end that feeds the weak hop.
        monkeypatch.setattr(cli, "link_budget", lambda *args: budget)
        assert main(["solve"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = solver_rows("solve", captured.out)
        assert rows["theorem1"][0] == rows["exact"][0] == pytest.approx(edge, rel=1e-12)

    @pytest.mark.parametrize(
        "argv, exact_alpha",
        [(["solve"], 0.069674), (["sweep-power", "--pt", "0.05"], 0.069539), (["sweep-alpha"], 0.069674)],
        ids=["solve", "sweep-power", "sweep-alpha"],
    )
    def test_deep_tail_objective_solves(self, tmp_path, capsys, argv, exact_alpha):
        # K of 30-40 dB on both hops: both hazards underflow to 0 in linear
        # space at the first interior probe, but their logs, on which the
        # exact search runs, stay finite. The optimal outage itself
        # underflows to 0.
        k_endpoints = {"k0_db": 30.0, "kpi2_db": 40.0}
        path = paper_scenario(tmp_path, rician_su=k_endpoints, rician_ud=k_endpoints)
        assert main(argv + ["--scenario", path]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = solver_rows(argv[0], captured.out)
        assert rows["exact"][0] == pytest.approx(exact_alpha, abs=1e-6)
        assert abs(rows["theorem1"][0] - exact_alpha) < 2e-4

    @pytest.mark.parametrize(
        "argv, radio",
        [
            (["solve"], {"noise_power_dbm": 0.0, "total_power_w": 1e12}),
            (["sweep-alpha", "--alpha-grid", "0.1:0.9:5"], {"noise_power_dbm": 0.0, "total_power_w": 1e12}),
            (["solve"], {"noise_power_dbm": 100.0, "total_power_w": 1e25}),
        ],
        ids=["solve-0dbm", "sweep-alpha-0dbm", "solve-100dbm"],
    )
    def test_overflowing_theorem1_constant_answers(self, tmp_path, capsys, argv, radio):
        # K = 1500 dB on both hops: gamma_i = K_i (K_i + 1) (2^(2R) - 1) N_0 / G_i
        # overflows on one hop or both, but the root equation takes it in
        # logs. The parent died in a math domain error (0 dBm) or exited 3 on
        # a non-finite residual (100 dBm).
        k_endpoints = {"k0_db": 1500.0, "kpi2_db": 1500.0}
        path = paper_scenario(tmp_path, rician_su=k_endpoints, rician_ud=k_endpoints, radio=radio)
        assert main(argv + ["--scenario", path]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        header, numeric = (cli.SOLVE_HEADER, slice(1, None)) if argv[0] == "solve" else (cli.SWEEP_HEADER, slice(1, 6))
        rows = parse_rows(captured.out, header)
        assert rows and all(math.isfinite(float(cell)) for row in rows for cell in row[numeric])
        comments = [line for line in captured.out.splitlines() if line.startswith("# theorem1_")]
        assert all(math.isfinite(float(line.split(": ")[1])) for line in comments)

    def test_cancelling_log_slope_keeps_the_theorem1_split(self, tmp_path, capsys):
        # K = 200 dB on both hops at 1e100 W: both hops' log(hazard * b) are
        # about -1e20, whose spacing swallows the log alpha terms, so the
        # slope reads 0 wherever it is probed and the outage is 0 at every
        # split. The exact search starts at the Theorem 1 root and stops
        # there; it used to start at the bracket end and report 1e-6.
        k_endpoints = {"k0_db": 200.0, "kpi2_db": 200.0}
        path = paper_scenario(tmp_path, rician_su=k_endpoints, rician_ud=k_endpoints, radio={"total_power_w": 1e100})
        assert main(["solve", "--scenario", path]) == EXIT_OK
        rows = {row[0]: row for row in parse_rows(capsys.readouterr().out, cli.SOLVE_HEADER)}
        assert rows["exact"][1] == rows["theorem1"][1] != "1.000000000000e-06"
        assert rows["exact"][4:] == ["0.000000000000e+00", "1", "0.000000000000e+00"]

    @pytest.mark.parametrize(
        "r_s, k_su_db, k_ud_db, total_power_w",
        [
            # log(hazard * b) cancels two terms of about 1e120 on one hop, and
            # exp of what is left overflowed: exit 3 on "math range error",
            # although no hop is saturated.
            (1052.619, 1203.5351055777528, 955.3351873822082, 0.13313355893558876),
            # The log slope is rounding noise, and the search ended at
            # alpha = 0.934 with an outage of 1, while the theorem1 and equal
            # rows read 0.
            (1944.937, 698.3625997846729, 1126.5657422395434, 0.04212969506510837),
            # On the hop with b > a, log(hazard * b) was formed from
            # -(a - b)^2/2 and -log Q_1, both of size 2e53, so it was rounding
            # noise: the exact row read alpha 0.771 and an outage of 1, while
            # the equal row reads 0.
            (1708.801, 828.373018341847, 540.5016321733062, 0.008506422554209818),
        ],
        ids=["overflowing-hazard", "wandering-search", "missed-plateau"],
    )
    def test_large_k_exact_row_is_the_best_split_evaluated(self, tmp_path, capsys, r_s, k_su_db, k_ud_db, total_power_w):
        path = paper_scenario(
            tmp_path,
            geometry={"r_s": r_s},
            rician_su={"k0_db": k_su_db, "kpi2_db": k_su_db + 5.0},
            rician_ud={"k0_db": k_ud_db, "kpi2_db": k_ud_db + 5.0},
            radio={"total_power_w": total_power_w},
        )
        assert main(["solve", "--scenario", path]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = solver_rows("solve", captured.out)
        assert rows["exact"][1] == rows["equal"][1] == 0.0

    @pytest.mark.parametrize(
        "argv, rician_db, extra",
        [
            (["solve"], (23.5, 20.5), {"radio": {"total_power_w": 0.01}}),
            (["sweep-power", "--pt", "0.01"], (23.5, 20.5), {"radio": {"total_power_w": 0.01}}),
            (["validate", "--trials", "1000", "--alpha-grid", "0.005:0.995:100"], (30.0, 30.0), {}),
        ],
        ids=["solve", "sweep-power", "validate"],
    )
    def test_former_marcum_overflow_band_answers(self, tmp_path, capsys, argv, rician_db, extra):
        # K of about 28 dB and more near the outage transition, where the
        # Poisson series that the solvers' probes and validate's per-split
        # closed form once used overflowed (b^2/2 >= 700 with |a - b| < 9).
        su, ud = rician_db
        path = paper_scenario(
            tmp_path,
            rician_su={"k0_db": su, "kpi2_db": su + 10.0},
            rician_ud={"k0_db": ud, "kpi2_db": ud + 10.0},
            **extra,
        )
        assert main(argv + ["--scenario", path]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        if argv[0] == "validate":
            rows = parse_rows(captured.out, cli.VALIDATE_HEADER)
            assert len(rows) == 100
            assert all(0.0 <= float(row[1]) <= 1.0 for row in rows)
            return
        alpha, outage = solver_rows(argv[0], captured.out)["exact"]
        assert alpha == pytest.approx(0.06995, abs=1e-5)
        assert outage == pytest.approx(1.549e-2, rel=1e-3)

    @pytest.mark.parametrize("command", ["solve", "sweep-alpha"])
    def test_overflowing_mean_snr_answers(self, tmp_path, capsys, command):
        # p G / N_0 overflows to inf at every split, so each hop's b is 0:
        # no hop can fail, and the exact solver's slope has no hazard on
        # either side rather than a log of 0.
        path = paper_scenario(tmp_path, radio={"noise_power_dbm": -300, "total_power_w": 1e300})
        assert main([command, "--scenario", path]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        header, numeric = (cli.SOLVE_HEADER, slice(1, None)) if command == "solve" else (cli.SWEEP_HEADER, slice(1, 6))
        rows = parse_rows(captured.out, header)
        assert rows and all(math.isfinite(float(cell)) for row in rows for cell in row[numeric])

    @pytest.mark.parametrize(
        "target, name, value, message",
        [
            (cli, "theorem1_residual", lambda *args: math.inf, "refusing to emit a non-finite value"),
            # A RuntimeError from the Marcum kernel under the exact solver, as
            # from a Bessel series that does not converge. No CLI route
            # reaches that series now (the kernel's own Bessel terms replaced
            # it); specfun's tests cover the error itself.
            (outage, "_log_marcum", _unconverged, "I_0("),
        ],
        ids=["non-finite-value", "unconverged-series"],
    )
    def test_numeric_failure_exits_3(self, monkeypatch, capsys, target, name, value, message):
        monkeypatch.setattr(target, name, value)
        assert main(["solve", "--excess-loss-convention", "paper"]) == EXIT_SOLVER
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"solver error: {message}")

    def test_non_finite_solver_outage_exits_3(self, monkeypatch, capsys):
        monkeypatch.setattr(optimizer, "_link_outage", lambda *args: math.nan)
        assert main(["sweep-power", "--excess-loss-convention", "paper", "--pt", "0.25"]) == EXIT_SOLVER
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("solver error: outage nan at alpha ")

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("command", ["sweep-alpha", "sweep-power"])
    def test_non_finite_table_cell_exits_3(self, monkeypatch, capsys, command, bad):
        if command == "sweep-alpha":
            # One grid row's outage.
            true_grid = cli.end_to_end_outage_grid

            def patched(budget, alphas, radio):
                outages = true_grid(budget, alphas, radio)
                outages[len(outages) // 2] = bad
                return outages

            monkeypatch.setattr(cli, "end_to_end_outage_grid", patched)
        else:
            # The relay power of the equal split. A non-finite outage never
            # gets this far: the solvers reject it (see the test above).
            monkeypatch.setattr(
                cli, "equal_power", lambda radio, budget: dataclasses.replace(equal_power(radio, budget), p_u=bad)
            )
        assert main([command, "--excess-loss-convention", "paper"]) == EXIT_SOLVER
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["solver error: refusing to emit a non-finite value"]

    @pytest.mark.parametrize("r_s", [2100.0, -1.0])
    def test_relay_outside_the_link_exits_2(self, tmp_path, capsys, r_s):
        path = write_scenario(tmp_path, geometry={"L": 2000.0, "r_s": r_s})
        assert main(["solve", "--scenario", path]) == EXIT_SCENARIO
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: invalid scenario value: relay distance r_s must lie in [0, L]"
        ]

    @pytest.mark.parametrize(
        "scenario_text, argv",
        [
            ('{"radio": ', ["solve"]),
            (None, ["validate", "--alpha-grid", "0:2:3"]),
            (None, ["sweep-alpha", "--alpha-grid", "foo"]),
            (None, ["sweep-alpha", "--alpha-grid", "0.1:0.9:foo"]),
            (None, ["sweep-alpha", "--alpha-grid", "0.1:0.9:0"]),
            (None, ["sweep-alpha", "--alpha-grid", "0.9:0.1:3"]),
            # One point past the cap, which is checked before the grid is built.
            (None, ["sweep-alpha", "--alpha-grid", "0.1:0.9:100001"]),
            (None, ["sweep-alpha", "--pt", "abc"]),
            (None, ["sweep-power", "--pt", ","]),
        ],
        ids=[
            "malformed-json",
            "validate-alpha-above-one",
            "alpha-grid-one-part",
            "alpha-grid-count-not-integer",
            "alpha-grid-count-zero",
            "alpha-grid-descending",
            "alpha-grid-count-above-cap",
            "pt-not-a-number",
            "pt-no-value",
        ],
    )
    def test_malformed_arguments_exit_2(self, tmp_path, capsys, scenario_text, argv):
        if scenario_text is not None:
            path = tmp_path / "scenario.json"
            path.write_text(scenario_text, encoding="utf-8")
            argv = argv + ["--scenario", str(path)]
        assert main(argv) == EXIT_SCENARIO
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")

    def test_alpha_grid_cap_is_inclusive(self):
        assert len(cli._parse_alpha_grid("0:1:100000")) == 100_000
        with pytest.raises(ScenarioError, match=r"count must lie in \[1, 100000\]"):
            cli._parse_alpha_grid("0:1:100001")

    def test_sweep_power_rejects_a_nonpositive_total(self):
        # The parser already rejects it, so only a direct call reaches this check.
        scenario = load_scenario(None)
        with pytest.raises(ScenarioError, match="total power grid values must be positive"):
            cli.cmd_sweep_power(scenario, [0.0], [("L", 2000.0, scenario)])

    def test_invalid_override_precedes_any_solve(self, capsys):
        # 1e-320 W saturates the first distance's solve (exit 3), but the
        # second distance has no link budget, and every budget comes first.
        argv = ["sweep-power", "--excess-loss-convention", "paper", "--pt", "1e-320,0.25", "--L", "1000,1e308"]
        assert main(argv) == EXIT_SCENARIO
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: invalid link budget: mean path gains must lie in (0, 1)"]

    @pytest.mark.parametrize(
        "argv, sections, line",
        [
            # (4 pi f_c)^2 underflows to 0, the path gain's divisor.
            (
                ["solve"],
                {"radio": {"f_c_mhz": 1e-200}},
                "error: invalid scenario value: carrier frequency f_c must be positive,"
                " with a (4 pi f_c)^2 that does not underflow",
            ),
            # K0 is 0 in linear units, the divisor of K's elevation slope.
            (
                ["solve"],
                {"rician_su": {"k0_db": -3300}},
                "error: invalid scenario value: K at zenith angle 0 must be above about -3233 dB,"
                " where 10^(k0_db/10) underflows",
            ),
            # K_ud / K_su = 1e-330 rounds to 0, whose log the Theorem 1 residual takes.
            (
                ["solve"],
                {"rician_su": {"k0_db": 1500.0, "kpi2_db": 1500.0}, "rician_ud": {"k0_db": -1800.0, "kpi2_db": -1800.0}},
                "error: invalid link budget: Rician factors must lie in [1e-150, 1e150], i.e. within 1500 dB of 0 dB",
            ),
            # 1 - 1e-17 is 1.0, so the bracket would reach alpha = 1, where
            # the relay has no power.
            (["solve"], {"solver": {"bracket_epsilon": 1e-17}}, _EPSILON_LINE),
            (
                ["sweep-power", "--pt", "0.25"],
                {"rician_su": {"k0_db": 100.0, "kpi2_db": 100.0}, "solver": {"bracket_epsilon": 1e-17}},
                _EPSILON_LINE,
            ),
        ],
        ids=["carrier-square-underflows", "k0-underflows", "k-ratio-underflows", "epsilon-solve", "epsilon-sweep-power"],
    )
    def test_arithmetic_faults_in_the_input_exit_2(self, tmp_path, capsys, argv, sections, line):
        assert main(argv + ["--scenario", paper_scenario(tmp_path, **sections)]) == EXIT_SCENARIO
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [line]

    def test_scenario_field_error_is_not_wrapped_again(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text('{"radio": {"rate": 1e400}}', encoding="utf-8")  # 1e400 reads as inf
        assert main(["solve", "--scenario", str(path)]) == EXIT_SCENARIO
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: scenario field 'radio'.'rate' must be finite"]


class TestSolve:
    def test_symmetric_methods_agree(self, tmp_path, capsys):
        path = symmetric_scenario(tmp_path)
        assert main(["solve", "--scenario", path]) == EXIT_OK
        rows = parse_rows(capsys.readouterr().out, cli.SOLVE_HEADER)
        alphas = {row[0]: float(row[1]) for row in rows}
        assert set(alphas) == {"exact", "theorem1", "equal"}
        for value in alphas.values():
            assert value == pytest.approx(0.5, abs=1e-6)

    def test_reports_gap_metadata(self, tmp_path, capsys):
        path = paper_scenario(tmp_path)
        assert main(["solve", "--scenario", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "# theorem1_vs_exact_alpha_gap:" in out
        assert "# theorem1_vs_exact_outage_ratio:" in out
        assert "# theorem1_residual_at_exact:" in out

    def test_residual_at_exact_is_the_public_residual(self, tmp_path, capsys):
        path = paper_scenario(tmp_path)
        assert main(["solve", "--scenario", path]) == EXIT_OK
        out = capsys.readouterr().out
        scenario = load_scenario(path)
        budget, radio = scenario.budget(), scenario.radio
        exact = minimize_outage_exact(budget, radio, scenario.solver)
        residual = theorem1_residual(budget, PowerSplit(exact.p_s, exact.p_u), radio)
        assert f"# theorem1_residual_at_exact: {residual:.12e}" in out.splitlines()

    def test_byte_identical_reruns(self, tmp_path):
        path = paper_scenario(tmp_path)
        out_a = tmp_path / "a.txt"
        out_b = tmp_path / "b.txt"
        assert main(["solve", "--scenario", path, "--out", str(out_a)]) == EXIT_OK
        assert main(["solve", "--scenario", path, "--out", str(out_b)]) == EXIT_OK
        assert out_a.read_bytes() == out_b.read_bytes()


#: The request of the benchmark's paper-sweep pool: 10 budgets.
PAPER_SWEEP = ["sweep-power", "--pt", "0.05,0.1,0.25,0.5,1.0", "--R", "1,2"]


def count_solver_work(monkeypatch, argvs):
    """Per-request means of the solver work that ``argvs`` cause, by name:
    saturation checks, Theorem 1 searches (``solve_theorem1`` calls at the
    cli name) and residual evaluations, and Marcum kernel calls.
    ``_theorem1_residual_du`` counts every residual evaluation: the searches
    call it, and ``theorem1_residual`` goes through it. That the exact
    solve takes no outage of its own is structural: ``optimizer`` reaches
    the kernel only through ``outage`` (``test_package``'s layering test)."""
    counts = dict.fromkeys(["_saturated", "solve_theorem1", "_theorem1_residual_du", "kernel"], 0)

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(cli, "solve_theorem1", counted(cli.solve_theorem1, "solve_theorem1"))
    for name in ("_saturated", "_theorem1_residual_du"):
        monkeypatch.setattr(optimizer, name, counted(getattr(optimizer, name), name))
    kernel = counted(specfun._log_marcum, "kernel")
    monkeypatch.setattr(specfun, "_log_marcum", kernel)
    monkeypatch.setattr(outage, "_log_marcum", kernel)
    for argv in argvs:
        assert main(argv) == EXIT_OK
    return {key: value / len(argvs) for key, value in counts.items()}


class TestSolverSharing:
    """The exact solve starts from the theorem1 result of its budget, so each
    budget's saturation check and Theorem 1 search run once."""

    @pytest.mark.parametrize(
        "argv, budgets",
        [
            (["solve"], 1),
            (["sweep-alpha", "--alpha-grid", "0.1:0.9:9", "--pt", "0.1,0.25"], 2),
            (["sweep-power", "--pt", "0.05,0.25,1.0", "--R", "1,2"], 6),
        ],
        ids=["solve", "sweep-alpha", "sweep-power"],
    )
    def test_each_budget_solved_once_through_the_cli_names(self, monkeypatch, capsys, argv, budgets):
        # The benchmark's traced run wraps both solvers at these cli module
        # names and counts them as solves.
        calls = []

        def recorded(fn, name):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                calls.append((name, kwargs.get("theorem1"), result))
                return result

            return wrapper

        for name in ("minimize_outage_exact", "solve_theorem1"):
            monkeypatch.setattr(cli, name, recorded(getattr(cli, name), name))
        assert main(argv + ["--excess-loss-convention", "paper"]) == EXIT_OK
        assert [name for name, _, _ in calls] == ["solve_theorem1", "minimize_outage_exact"] * budgets
        for (_, _, approx), (_, handed, exact) in zip(calls[::2], calls[1::2]):
            assert handed is approx and exact.method == "exact"
        # The exact row is still printed before the theorem1 row.
        methods = [line.split(",")[0 if argv[0] == "solve" else -1] for line in capsys.readouterr().out.splitlines()]
        assert [m for m in methods if m in ("exact", "theorem1")] == ["exact", "theorem1"] * budgets

    def test_reference_sweep_counts(self, monkeypatch, capsys):
        # The parent of this sharing made 20 saturation checks and 20
        # Theorem 1 searches (208 residual evaluations), 190 kernel calls,
        # and one end_to_end_outage call per exact solve. Cold Brent searches
        # of the Theorem 1 residual made 109 residual evaluations and 150
        # kernel calls. Before the theorem1 row handed its hop terms to the
        # exact search, and before the saturation check skipped hops with
        # b <= a, 146 kernel calls; before the search returned its value at
        # the root, 60 residual evaluations.
        counts = count_solver_work(monkeypatch, [PAPER_SWEEP + ["--excess-loss-convention", "paper"]])
        assert counts == {
            "_saturated": 10,
            "solve_theorem1": 10,
            "_theorem1_residual_du": 50,
            "kernel": 106,
        }

    def test_paper_sweep_family_counts(self, monkeypatch, capsys, tmp_path):
        # 16 geometries over the benchmark pool's ranges, h_u 800-1200 m and
        # L 1600-2400 m. The parent of the sharing made 188.25 kernel calls,
        # 206.5 residual evaluations and 20 saturation checks per request
        # here, and cold Brent searches of the Theorem 1 residual 108.25
        # residual evaluations.
        argvs = []
        for h_u in (800.0, 933.0, 1067.0, 1200.0):
            for length in (1600.0, 1867.0, 2133.0, 2400.0):
                name = f"h{h_u:.0f}-L{length:.0f}.json"
                path = write_scenario(tmp_path, name, geometry={"h_u": h_u, "L": length}, excess_loss_convention="paper")
                argvs.append(PAPER_SWEEP + ["--scenario", path])
        counts = count_solver_work(monkeypatch, argvs)
        assert counts["_saturated"] == counts["solve_theorem1"] == 10
        assert counts["kernel"] <= 108.7  # 108.625 here, 148.25 before the hop terms were shared
        assert counts["_theorem1_residual_du"] <= 50.0  # 50 here: 5 per search


class TestSweepAlpha:
    def test_schema_and_methods(self, tmp_path, capsys):
        path = paper_scenario(tmp_path)
        code = main(
            [
                "sweep-alpha",
                "--scenario",
                path,
                "--alpha-grid",
                "0.1:0.9:9",
                "--pt",
                "0.25,1.0",
            ]
        )
        assert code == EXIT_OK
        rows = parse_rows(capsys.readouterr().out, cli.SWEEP_HEADER)
        assert len(rows) == 2 * (9 + 2)
        by_value = {}
        for row in rows:
            assert row[0] == "pt"
            by_value.setdefault(float(row[1]), []).append(row[6])
            outage = float(row[5])
            assert math.isfinite(outage) and 0.0 <= outage <= 1.0
        for methods in by_value.values():
            assert methods.count("grid") == 9
            assert methods.count("exact") == 1
            assert methods.count("theorem1") == 1

    def test_single_alpha_matches_equal_power(self, tmp_path, capsys):
        path = symmetric_scenario(tmp_path)
        code = main(["sweep-alpha", "--scenario", path, "--alpha-grid", "0.5:0.5:1"])
        assert code == EXIT_OK
        rows = parse_rows(capsys.readouterr().out, cli.SWEEP_HEADER)
        grid_rows = [row for row in rows if row[6] == "grid"]
        assert len(grid_rows) == 1
        scenario = load_scenario(path)
        expected = equal_power(scenario.radio, scenario.budget()).outage
        assert float(grid_rows[0][5]) == pytest.approx(expected, rel=1e-12)

    def test_power_sweep_minima_deepen(self, tmp_path, capsys):
        path = paper_scenario(tmp_path)
        code = main(
            [
                "sweep-alpha",
                "--scenario",
                path,
                "--alpha-grid",
                "0.05:0.95:19",
                "--pt",
                "0.25,0.5,1.0",
            ]
        )
        assert code == EXIT_OK
        rows = parse_rows(capsys.readouterr().out, cli.SWEEP_HEADER)
        minima = {}
        for row in rows:
            if row[6] == "grid":
                value = float(row[1])
                minima[value] = min(minima.get(value, 1.0), float(row[5]))
        assert minima[0.25] > minima[0.5] > minima[1.0]

    def test_grid_inside_the_scalar_overflow_band(self, tmp_path, capsys):
        # K near 28.5 dB at the relay, on a 999-point grid: thresholds in the
        # band where the Poisson series the package once used overflowed.
        path = paper_scenario(
            tmp_path,
            rician_su={"k0_db": 23.5, "kpi2_db": 33.5},
            rician_ud={"k0_db": 20.5, "kpi2_db": 30.5},
        )
        assert main(["sweep-alpha", "--scenario", path, "--alpha-grid", "0.001:0.999:999"]) == EXIT_OK
        rows = parse_rows(capsys.readouterr().out, cli.SWEEP_HEADER)
        outages = [float(row[5]) for row in rows if row[6] == "grid"]
        assert len(outages) == 999
        assert all(math.isfinite(value) and 0.0 <= value <= 1.0 for value in outages)
        assert 0.0 < min(outages) < 1e-100

    def test_distance_sweep_orders_curves(self, tmp_path, capsys):
        path = paper_scenario(tmp_path)
        code = main(
            [
                "sweep-alpha",
                "--scenario",
                path,
                "--alpha-grid",
                "0.2:0.8:4",
                "--L",
                "1000,1500,2000",
            ]
        )
        assert code == EXIT_OK
        rows = parse_rows(capsys.readouterr().out, cli.SWEEP_HEADER)
        curves = {}
        for row in rows:
            if row[6] == "grid":
                curves.setdefault(float(row[1]), []).append(float(row[5]))
        for shorter, longer in [(1000.0, 1500.0), (1500.0, 2000.0)]:
            assert all(a < b for a, b in zip(curves[shorter], curves[longer]))


class TestSweepPower:
    def test_optimal_dominates_equal(self, tmp_path, capsys):
        path = paper_scenario(tmp_path)
        code = main(
            [
                "sweep-power",
                "--scenario",
                path,
                "--pt",
                "0.1,0.25,0.5",
                "--R",
                "1,2",
            ]
        )
        assert code == EXIT_OK
        rows = parse_rows(capsys.readouterr().out, cli.SWEEP_HEADER)
        assert len(rows) == 2 * 3 * 3
        outages = {}
        for row in rows:
            total = round(float(row[3]) + float(row[4]), 6)
            outages[(row[0], float(row[1]), total, row[6])] = float(row[5])
        for rate in (1.0, 2.0):
            for pt in (0.1, 0.25, 0.5):
                exact = outages[("R", rate, pt, "exact")]
                equal = outages[("R", rate, pt, "equal")]
                assert exact <= equal + 1e-18

    def test_rate_increase_raises_outage(self, tmp_path, capsys):
        path = paper_scenario(tmp_path)
        main(
            ["sweep-power", "--scenario", path, "--pt", "0.25,0.5", "--R", "1,2"]
        )
        rows = parse_rows(capsys.readouterr().out, cli.SWEEP_HEADER)
        cell = {
            (float(r[1]), round(float(r[3]) + float(r[4]), 6), r[6]): float(r[5])
            for r in rows
        }
        for pt in (0.25, 0.5):
            for method in ("exact", "equal"):
                assert cell[(2.0, pt, method)] > cell[(1.0, pt, method)]

    def test_scenario_geometry_without_an_override(self, tmp_path, capsys):
        # With no --L or --R the table is at the scenario's own relay
        # position, so it repeats solve's rows.
        path = paper_scenario(tmp_path, geometry={"r_s": 500.0})
        assert main(["solve", "--scenario", path]) == EXIT_OK
        solved = {row[0]: row[1:5] for row in parse_rows(capsys.readouterr().out, cli.SOLVE_HEADER)}
        assert main(["sweep-power", "--scenario", path, "--pt", "0.25"]) == EXIT_OK
        rows = parse_rows(capsys.readouterr().out, cli.SWEEP_HEADER)
        assert {row[6]: row[2:6] for row in rows} == solved
        assert [row[:2] for row in rows] == [["L", "2.000000000000e+03"]] * 3
        assert solved["exact"][0] == "1.617653009267e-02"


class TestValidate:
    def test_passes_on_consistent_model(self, tmp_path, capsys):
        path = paper_scenario(tmp_path)
        code = main(
            [
                "validate",
                "--scenario",
                path,
                "--alpha-grid",
                "0.3:0.7:3",
                "--trials",
                "200000",
            ]
        )
        assert code == EXIT_OK
        rows = parse_rows(capsys.readouterr().out, cli.VALIDATE_HEADER)
        assert len(rows) == 3
        for row in rows:
            assert abs(float(row[4])) <= 3.0

    def test_boundary_alpha_degenerate_pass(self, tmp_path, capsys):
        path = paper_scenario(tmp_path)
        code = main(
            [
                "validate",
                "--scenario",
                path,
                "--alpha-grid",
                "0:0:1",
                "--trials",
                "20000",
            ]
        )
        assert code == EXIT_OK
        row = parse_rows(capsys.readouterr().out, cli.VALIDATE_HEADER)[0]
        assert float(row[1]) == 1.0
        assert float(row[2]) == 1.0
        assert float(row[4]) == 0.0

    @pytest.mark.parametrize(
        "command,header,column",
        [("sweep-alpha", cli.SWEEP_HEADER, 5), ("validate", cli.VALIDATE_HEADER, 1)],
    )
    def test_underflowing_split_is_full_outage(self, capsys, command, header, column):
        # p_s * G / N0 underflows to 0 at this alpha: a degenerate full outage.
        argv = [command, "--excess-loss-convention", "paper", "--alpha-grid", "1e-320:1e-320:1"]
        assert main(argv + ["--trials", "20000"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        assert parse_rows(captured.out, header)[0][column] == "1.000000000000e+00"

    def test_subnormal_closed_form_scores_the_raw_gap(self, monkeypatch, capsys):
        # The closed form is 1.1e-320, so p (1 - p) / n underflows to 0 at
        # 20 000 trials. That spread once raised ZeroDivisionError out of
        # main; with no spread, z is the raw gap per trial.
        budget = LinkBudget(1.57814109191836e-13, 1.63904068192873e-12, 88210.06589316114, 448208.86324859166)
        monkeypatch.setattr(cli, "link_budget", lambda *args: budget)
        argv = ["validate", "--alpha-grid", "0.92047385351148:0.92047385351148:1", "--trials", "20000"]
        assert main(argv) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        [row] = parse_rows(captured.out, cli.VALIDATE_HEADER)
        closed = float(row[1])
        assert 0.0 < closed < 1e-300
        assert closed * (1.0 - closed) / 20_000 == 0.0
        assert float(row[4]) == (float(row[2]) - closed) * 20_000

    def test_corrupted_gain_fails_with_exit_4(self, tmp_path, capsys, monkeypatch):
        path = paper_scenario(tmp_path)
        true_outage = cli.end_to_end_outage

        def corrupted(budget, split, radio, *args, **kwargs):
            return min(1.0, 5.0 * true_outage(budget, split, radio, *args, **kwargs))

        monkeypatch.setattr(cli, "end_to_end_outage", corrupted)
        code = main(
            [
                "validate",
                "--scenario",
                path,
                "--alpha-grid",
                "0.5:0.5:1",
                "--trials",
                "200000",
            ]
        )
        assert code == EXIT_VALIDATION
        row = parse_rows(capsys.readouterr().out, cli.VALIDATE_HEADER)[0]
        assert abs(float(row[4])) > 3.0

    @pytest.mark.parametrize(
        "closed_events,mc_events,z",
        [
            # 10 events where 22.1 were expected: the estimate's own standard
            # error would give the Wald z -3.83 and fail a correct model.
            (22.1, 10, -12.1 / math.sqrt(22.1 * (1.0 - 22.1 / 200_000))),
            (22.1, 0, -math.sqrt(22.1 / (1.0 - 22.1 / 200_000))),
            # A degenerate closed form scores the raw gap per trial.
            (0.0, 3, 3.0),
            (200_000.0, 199_999, -1.0),
        ],
    )
    def test_z_is_scored_against_the_closed_form(self, monkeypatch, capsys, closed_events, mc_events, z):
        trials = 200_000
        monkeypatch.setattr(cli, "end_to_end_outage", lambda *args: closed_events / trials)

        def estimate(budget, split, radio, spec):
            p_hat = mc_events / trials
            return OutageEstimate(p_hat, math.sqrt(p_hat * (1.0 - p_hat) / trials), trials)

        monkeypatch.setattr(cli, "estimate_outage", estimate)
        argv = ["validate", "--alpha-grid", "0.3:0.3:1", "--trials", str(trials)]
        assert main(argv) == (EXIT_OK if abs(z) <= 3.0 else EXIT_VALIDATION)
        row = parse_rows(capsys.readouterr().out, cli.VALIDATE_HEADER)[0]
        assert float(row[4]) == pytest.approx(z, rel=1e-9)

    def test_byte_identical_reruns(self, tmp_path):
        path = paper_scenario(tmp_path)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        args = [
            "validate",
            "--scenario",
            path,
            "--alpha-grid",
            "0.4:0.6:2",
            "--trials",
            "50000",
            "--seed",
            "424242",
        ]
        assert main(args + ["--out", str(out_a)]) == EXIT_OK
        assert main(args + ["--out", str(out_b)]) == EXIT_OK
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_seed_recorded_in_preamble(self, tmp_path, capsys):
        path = paper_scenario(tmp_path)
        main(
            [
                "validate",
                "--scenario",
                path,
                "--alpha-grid",
                "0.5:0.5:1",
                "--trials",
                "20000",
                "--seed",
                "777",
            ]
        )
        out = capsys.readouterr().out
        assert "# seed: 777" in out
        assert "# scenario_sha256: " in out


def _slots(template):
    return re.findall(r"%[^a-z]*[a-z]", template)


_CELLS = {
    "%s": st.text(max_size=8),
    "%d": st.integers(),
    "%.12e": st.floats(allow_nan=False, allow_infinity=False),
}
_TABLES = [
    (cli.SWEEP_HEADER, cli.SWEEP_PREFIX + cli.SWEEP_CELLS),
    (cli.SOLVE_HEADER, cli.SOLVE_ROW),
    (cli.VALIDATE_HEADER, cli.VALIDATE_ROW),
]


def _table_rows(table):
    """A table and up to three rows of cells of its column types."""
    row = st.tuples(*(_CELLS[slot] for slot in _slots(table[1])))
    return st.tuples(st.just(table), st.lists(row, max_size=3))


def _powers_of_ten_and_neighbours():
    for p in range(-308, 309):
        power = float(f"1e{p}")
        yield from (math.nextafter(power, 0.0), power, math.nextafter(power, math.inf))


#: Doubles where a %.12e fast path can go wrong: decade edges, the decimal
#: ties d.dddddddddddd5 10^p (the nearest double lies above or below the tie),
#: exact binary ties, the ends of the double range, and two cells just below
#: a decade, which a fast path that accepted m in [1e12 - 0.5, 1e12) printed
#: as 1.000000000000e-282 and 1.000000000000e+257.
_EDGE_VALUES = [
    *_powers_of_ten_and_neighbours(),
    *(
        float(f"{d}.{tail}e{p}")
        for d in range(1, 10)
        for tail in ("5", "0000000000005", "9999999999995")
        for p in range(-308, 308, 5)
    ),
    2.0**-20, 5.0**20, 1234567890123.5,
    5e-324, 2.2250738585072014e-308, sys.float_info.max, 0.0,
    9.9999999999995e-283, 9.999999999999499e256,
]


def _array_cells(values):
    """``_arrays._format_e12`` of ``values``, one text per value. The buffer
    starts as 0xff bytes, so a byte the formatter leaves unwritten shows."""
    x = np.array(values, dtype=float)
    out = np.full(x.shape + (_arrays._CELL,), 0xFF, np.uint8)
    _arrays._format_e12(x, out)
    return [cell.tobytes().rstrip(b"\0").decode("latin-1") for cell in out]


def _record_lines(monkeypatch):
    """The (template, rows) of every ``cli._lines`` call, in call order."""
    emitted = []
    true_lines = cli._lines

    def recording(template, rows):
        emitted.append((template, rows))
        return true_lines(template, rows)

    monkeypatch.setattr(cli, "_lines", recording)
    return emitted


class TestRowTemplates:
    @pytest.mark.parametrize("header, template", _TABLES, ids=["sweep", "solve", "validate"])
    def test_one_slot_per_column(self, header, template):
        # A sweep row is its prefix then its cells, so the two templates
        # together hold one slot per header column.
        assert template == ",".join(_slots(template))
        assert len(_slots(template)) == len(header.split(","))

    @given(st.sampled_from(_TABLES).flatmap(_table_rows))
    def test_rows_render_cell_by_cell(self, case):
        (_, template), rows = case
        expected = [
            ",".join(f"{cell:.12e}" if slot == "%.12e" else str(cell) for slot, cell in zip(_slots(template), row))
            for row in rows
        ]
        assert cli._lines(template, rows) == expected

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve"],
            ["sweep-alpha", "--alpha-grid", "0.2:0.8:4", "--L", "1800,2200"],
            ["sweep-power", "--pt", "0.1,0.5", "--R", "1,2"],
            ["validate", "--alpha-grid", "0.3:0.7:2", "--trials", "20000"],
        ],
        ids=["solve", "sweep-alpha", "sweep-power", "validate"],
    )
    def test_every_cell_matches_its_slot(self, monkeypatch, capsys, argv):
        # An int in a %.12e slot, or a float in a %d or %s slot, would still
        # format, with other bytes than the cell's own format.
        emitted = _record_lines(monkeypatch)
        assert main(argv + ["--excess-loss-convention", "paper"]) == EXIT_OK
        kinds = {"%s": (str,), "%d": (int,), "%.12e": (float,)}
        assert emitted and all(rows for _, rows in emitted)
        for template, rows in emitted:
            for row in rows:
                assert len(row) == len(_slots(template))
                for slot, cell in zip(_slots(template), row):
                    assert isinstance(cell, kinds[slot]) and not isinstance(cell, bool), (template, row)

    def test_sweep_formats_each_override_value_once(self, monkeypatch, capsys):
        # Each override value's name and value cells are formatted once, as
        # the prefix of all its rows; the row cells hold no override cell.
        # The grid rows are one array block, so only the solver rows pass
        # through the row templates.
        emitted = _record_lines(monkeypatch)
        argv = ["sweep-alpha", "--alpha-grid", "0.2:0.8:4", "--pt", "0.25,1.0", "--excess-loss-convention", "paper"]
        assert main(argv) == EXIT_OK
        assert [rows for template, rows in emitted if template == cli.SWEEP_PREFIX] == [[("pt", 0.25)], [("pt", 1.0)]]
        assert [len(rows) for template, rows in emitted if template == cli.SWEEP_CELLS] == [2, 2]
        assert len(emitted) == 4
        data = capsys.readouterr().out.splitlines()[4:]
        assert [line.split(",", 2)[:2] for line in data] == [["pt", "2.500000000000e-01"]] * 6 + [["pt", "1.000000000000e+00"]] * 6
        assert [line.rsplit(",", 1)[1] for line in data] == (["grid"] * 4 + ["exact", "theorem1"]) * 2

    # The grid rows' array path is held to the % templates, which stay the
    # one formatting authority.
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_array_cells_at_the_edges(self, sign):
        values = [sign * value for value in _EDGE_VALUES]
        assert _array_cells(values) == ["%.12e" % value for value in values]

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
    def test_array_cells_match_the_template(self, values):
        assert _array_cells(values) == ["%.12e" % value for value in values]

    @given(
        st.lists(st.tuples(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), st.floats(0.0, 1.0)), min_size=1),
        st.floats(0.0, 1e300, exclude_min=True),
    )
    def test_grid_rows_match_the_templates(self, rows, total):
        [prefix] = cli._lines(cli.SWEEP_PREFIX, [("pt", total)])
        expected = [
            prefix + cli.SWEEP_CELLS % (alpha, alpha * total, (1.0 - alpha) * total, out, "grid") for alpha, out in rows
        ]
        got = _arrays._grid_rows(prefix, [alpha for alpha, _ in rows], total, [out for _, out in rows])
        assert got == "\n".join(expected)


def _src_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_cli_import_leaves_thread_pool_unloaded():
    # No command needs concurrent.futures, so importing the CLI must not pay
    # for it; every command's start-up would.
    done = subprocess.run(
        [sys.executable, "-c", "import sys, uavrelay.cli; print('concurrent.futures' in sys.modules)"],
        env=_src_env(), capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout.strip() == "False"


def test_validate_leaves_masked_arrays_unloaded():
    # numpy's set routines (np.unique, np.union1d) import numpy.ma on first
    # use, about 1 MB of resident memory for every validate process.
    code = "import sys, uavrelay.cli; uavrelay.cli.main(['validate', '--trials', '20000']); print('numpy.ma' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout.splitlines()[-1] == "False"


def test_python_m_uavrelay_runs_the_cli():
    golden = (Path(__file__).parent / "golden" / "solve_paper.txt").read_text(encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "uavrelay", "solve", "--excess-loss-convention", "paper"],
        env=_src_env(), capture_output=True, text=True, timeout=60,
    )
    assert f"exit: {done.returncode}\n{done.stdout}" == golden
