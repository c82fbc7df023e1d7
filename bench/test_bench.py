"""Checks of the benchmark itself: counts repeat exactly, the traced run reports
the same counts, the oracle catches a wrong cell, and a checkout without the
program sources fails cleanly.

Run from the repository root: ``python3 -m pytest -q bench/test_bench.py``
(about a minute; the repository's own suite under ``tests/`` does not
collect this file).
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads

SEED = 7


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_counts_repeat_exactly(workload):
    first = run.repeat_counts(workload, SEED)
    second = run.repeat_counts(workload, SEED)
    assert first == second
    assert first["failures"] == {}
    assert (first["optimizer.solves_per_cmd"] > 0) == (workload != "mc-validate")
    assert first["mcsim.chunks_per_estimate"] == (10 if workload == "mc-validate" else 0)


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_traced_run_reports_the_repeat_counts(workload):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"]
    per_layer = json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert sorted(result["metrics"]) == sorted(metric["name"] for metric in per_layer)
    counts = run.repeat_counts(workload, SEED)
    for name, value in counts.items():
        if name in result["metrics"]:
            assert result["metrics"][name]["value"] == value, name


def test_overflow_probe_reaches_the_marcum_band():
    # Pins the known defect the high-k range stays below (ROADMAP item 2).
    # Once the Marcum kernel is fixed the probe reads "ok" and this changes.
    cli = run.load_program()
    plan = workloads.build("high-k", SEED, run.OUT / f"high-k-seed{SEED}")
    assert run.overflow_probe(cli.main, plan).startswith("OverflowError in specfun.")


def test_oracle_rejects_a_wrong_cell():
    cli = run.load_program()
    import oracle

    plan = workloads.build("paper-sweep", SEED, run.OUT / f"paper-sweep-seed{SEED}")
    argv = plan.argv(0)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    scenario = plan.scenarios[argv[2]]
    assert oracle.check(argv, scenario, out.getvalue(), 0).tail_cells == 0
    lines = out.getvalue().splitlines()
    cells = lines[-1].split(",")
    cells[5] = f"{float(cells[5]) * (1 + 1e-5):.12e}"
    corrupted = "\n".join(lines[:-1] + [",".join(cells)]) + "\n"
    with pytest.raises(ValueError):
        oracle.check(argv, scenario, corrupted, 0)
    with pytest.raises(ValueError):
        oracle.check(argv, scenario, "\n".join(lines[:-1]) + "\n", 0)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "paper-sweep", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
