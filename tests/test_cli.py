import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from uavrelay import cli
from uavrelay import equal_power
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


def parse_rows(text, header):
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    assert lines[0] == header
    return [line.split(",") for line in lines[1:]]


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
        # Derived fields (r_d from L - r_s) and fields the CLI does not expose (c).
        not_keys = {"geometry": {"r_d"}, "radio": {"c"}}
        tables = {key for key, value in cli.DEFAULT_SCENARIO.items() if isinstance(value, dict)}
        assert tables == set(cli._SECTIONS)
        for section, cls in cli._SECTIONS.items():
            keys = {cli._RENAMED.get(key, (key,))[0] for key in cli.DEFAULT_SCENARIO[section]}
            fields = {field.name for field in dataclasses.fields(cls) if field.init}
            assert keys == fields - not_keys.get(section, set()), section

    def test_invalid_link_budget_is_a_scenario_error(self, tmp_path):
        path = write_scenario(tmp_path, geometry={"h_u": 0.01, "L": 0.02})
        with pytest.raises(ScenarioError, match="mean path gains"):
            load_scenario(path).budget()

    def test_relay_split_override(self, tmp_path):
        path = write_scenario(tmp_path, geometry={"r_s": 600.0})
        scenario = load_scenario(path)
        assert scenario.geometry.r_s == pytest.approx(600.0)
        assert scenario.geometry.r_d == pytest.approx(1400.0)


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

    def test_unknown_flag_exits_2(self, capsys):
        assert main(["solve", "--frobnicate"]) == EXIT_SCENARIO

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
        "radio", [{"rate": 511.9}, {"noise_power_dbm": 3000}], ids=["rate-511.9", "noise-3000-dbm"]
    )
    def test_saturated_objective_exits_3(self, tmp_path, capsys, command, radio):
        # The SNR threshold is out of reach at every split, and the root
        # equation's constants overflow to inf.
        path = write_scenario(tmp_path, radio=radio)
        assert main([command, "--scenario", path]) == EXIT_SOLVER
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "solver error: saturated objective: the outage is 1 at every split,"
            " since one hop misses the SNR threshold even at full power"
        ]


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

    def test_byte_identical_reruns(self, tmp_path):
        path = paper_scenario(tmp_path)
        out_a = tmp_path / "a.txt"
        out_b = tmp_path / "b.txt"
        assert main(["solve", "--scenario", path, "--out", str(out_a)]) == EXIT_OK
        assert main(["solve", "--scenario", path, "--out", str(out_b)]) == EXIT_OK
        assert out_a.read_bytes() == out_b.read_bytes()


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


def test_cli_import_leaves_thread_pool_unloaded():
    # Only validate needs the Monte Carlo thread pool, so importing the CLI
    # must not pay for concurrent.futures; every command's start-up would.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", "import sys, uavrelay.cli; print('concurrent.futures' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout.strip() == "False"
