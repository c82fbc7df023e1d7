"""Seeded inputs for the benchmark workloads.

Each workload is a pool of ``POOL_SIZE`` requests drawn from the workload
seed. The timed loop cycles through the pool, so every stretch of
``POOL_SIZE`` consecutive requests covers the same inputs. Continuous
parameters are drawn by stratified sampling: one uniform draw inside each of
``POOL_SIZE`` equal-width strata, with the strata shuffled per parameter.
Every seed therefore covers each parameter range evenly, and per-run medians
move little from one seed to the next.

The program only sees what this module generates: the scenario files it
writes and the argv of each request.
"""

from __future__ import annotations

import copy
import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

POOL_SIZE = 64

#: The reference system parameter table, written out in full so the oracle
#: can rebuild every link budget from the scenario file alone.
REFERENCE_SCENARIO = {
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
    # The paper convention is the regime with interior outage minima; under
    # the standard convention the reference outage is 1 for every split.
    "excess_loss_convention": "paper",
}

PAPER_SWEEP_PT = "0.05,0.1,0.25,0.5,1.0"
PAPER_SWEEP_R = "1,2"
HIGH_K_GRID = "0.001:0.999:999"
#: K range of ``high-k``. The Marcum series raises OverflowError from
#: K = 27.8 dB on (ROADMAP item 2); the range stops 0.8 dB short of that, so
#: every request succeeds and ``failed`` does not depend on run length. One
#: untimed probe request inside the band is reported by every high-k run.
HIGH_K_DB = (20.0, 27.0)
OVERFLOW_PROBE_K_DB = 28.5

#: Why each workload was chosen is in BENCHMARK.json and README.md.
NAMES = ("paper-sweep", "high-k", "mc-validate")


@dataclass(frozen=True)
class Plan:
    """The generated inputs of one workload at one seed."""

    workload: str
    seed: int
    workdir: Path
    scenarios: dict[str, dict]  # file path -> full scenario written there
    argvs: tuple[tuple[str, ...], ...]  # one argv per pool slot
    per_request_seed: bool  # validate requests add the request index to --seed

    def argv(self, index: int) -> list[str]:
        """argv of request ``index``; request i reuses pool slot i mod POOL_SIZE."""
        argv = list(self.argvs[index % len(self.argvs)])
        if self.per_request_seed:
            argv += ["--seed", str(self.seed + index)]
        return argv

    def digest(self) -> str:
        """SHA-256 over the scenario files and the argv of one pool pass.

        File paths enter by name only, so the digest does not depend on
        where the checkout lives.
        """
        prefix = f"{self.workdir}/"
        blob = json.dumps(
            {"scenarios": self.scenarios, "argv": [self.argv(i) for i in range(len(self.argvs))]},
            sort_keys=True,
        )
        return hashlib.sha256(blob.replace(prefix, "").encode("utf-8")).hexdigest()


def _stratified(rng: random.Random, lo: float, hi: float, n: int = POOL_SIZE) -> list[float]:
    strata = list(range(n))
    rng.shuffle(strata)
    return [lo + (hi - lo) * (s + rng.random()) / n for s in strata]


def _scenario(**sections) -> dict:
    scenario = copy.deepcopy(REFERENCE_SCENARIO)
    for section, values in sections.items():
        scenario[section].update(values)
    return scenario


def _high_k_scenario(k_db: float) -> dict:
    # K at the relay elevation (the midpoint sits at pi/4, where the dB
    # model gives the mean of the endpoints); the relay hop is 3 dB lower.
    return _scenario(
        rician_su={"k0_db": k_db - 5.0, "kpi2_db": k_db + 5.0},
        rician_ud={"k0_db": k_db - 8.0, "kpi2_db": k_db + 2.0},
    )


def overflow_probe(workdir: Path) -> list[str]:
    """Writes the scenario of the overflow-band probe; returns its argv."""
    path = workdir / "overflow-probe.json"
    scenario = _high_k_scenario(OVERFLOW_PROBE_K_DB)
    path.write_text(json.dumps(scenario, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return ["sweep-alpha", "--scenario", str(path), "--alpha-grid", HIGH_K_GRID]


def build(workload: str, seed: int, workdir: Path) -> Plan:
    """Draw the workload's pool from ``seed`` and write its scenario files."""
    if workload not in NAMES:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    scenarios: dict[str, dict] = {}
    argvs = []

    def add(scenario: dict, slot: int) -> str:
        path = str(workdir / f"scenario-{slot:02d}.json")
        scenarios[path] = scenario
        return path

    if workload == "paper-sweep":
        heights = _stratified(rng, 800.0, 1200.0)
        lengths = _stratified(rng, 1600.0, 2400.0)
        for slot, (h_u, length) in enumerate(zip(heights, lengths)):
            path = add(_scenario(geometry={"h_u": round(h_u, 3), "L": round(length, 3)}), slot)
            argvs.append(("sweep-power", "--scenario", path, "--pt", PAPER_SWEEP_PT, "--R", PAPER_SWEEP_R))
    elif workload == "high-k":
        for slot, k_db in enumerate(_stratified(rng, *HIGH_K_DB)):
            path = add(_high_k_scenario(round(k_db, 4)), slot)
            argvs.append(("sweep-alpha", "--scenario", path, "--alpha-grid", HIGH_K_GRID))
    else:
        path = add(_scenario(), 0)
        for alpha in _stratified(rng, 0.1, 0.9):
            argvs.append(("validate", "--scenario", path, "--alpha-grid", f"{alpha:.6f}:{alpha:.6f}:1"))

    for path, scenario in scenarios.items():
        Path(path).write_text(json.dumps(scenario, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return Plan(workload, seed, workdir, scenarios, tuple(argvs), workload == "mc-validate")
