"""Benchmark of the uavrelay CLI: seeded workloads run in process.

Usage, from the root of a checkout:

    python3 bench/run.py --workload paper-sweep --seed 1 --seconds 20 --trace 0

One client runs a closed loop in this process: each request is one
``uavrelay.cli.main(argv)`` call with stdout captured. Warm-up requests run
first and are not timed, ``gc.collect()`` runs between requests outside the
timer, and no thread or child process runs while requests are timed. After
timing, every collected output is checked against an independent oracle
(``oracle.py``). With ``--trace 0`` the last stdout line reports the
end-to-end metrics, with request times corrected for host speed by a fixed
reference timed after each request; with ``--trace 1`` untraced and traced
pool passes alternate and it reports the per-layer metrics (``spans.py``).
A run record with the environment goes to ``.bench_runs/records/``. See
README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_runs"
WARMUP_REQUESTS = 3
SETUP_SAMPLES = 11
IMPORTTIME_SAMPLES = 5
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
# Host-speed reference, timed after every timed request: a pure-Python loop
# (interpreter speed) for the closed-form workloads, a seeded numpy draw
# (array and memory speed) for the Monte Carlo one. The host's speed swings
# by up to 40% for minutes at a time, so request times are scaled to the
# speed at which the reference takes REFERENCE_MS (see README.md,
# "Host-speed correction").
REFERENCE_LOOP = 20_000
REFERENCE_DRAWS = 50_000
REFERENCE_MS = 2.0
REFERENCE_PART = {"paper-sweep": "python", "high-k": "python", "mc-validate": "numpy"}
OK_CODES = (0, 4)  # 4 is validate's |z| > 3 verdict, a correct answer


def load_program():
    """Import ``uavrelay`` from this checkout's ``src``; exits non-zero if it is missing."""
    if not (SRC / "uavrelay" / "__init__.py").is_file():
        sys.exit(f"error: no uavrelay sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import uavrelay.cli

    if Path(uavrelay.cli.__file__).resolve().parent.parent != SRC:
        sys.exit(f"error: imported uavrelay from {uavrelay.cli.__file__}, not {SRC}")
    return uavrelay.cli


# -- requests --------------------------------------------------------------


def _failure_kind(exc: BaseException) -> str:
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return f"{type(exc).__name__} in {Path(frame.filename).stem}.{frame.name}"


class Collector:
    """Outcomes of the requests of one run.

    Only the first output of each distinct argv is kept for the oracle, on
    disk so that it does not count in the peak RSS; later outputs of the
    same argv must be byte-identical to it.
    """

    def __init__(self, plan: workloads.Plan):
        self.plan = plan
        self.times: list[float] = []  # seconds of each successful timed request
        self.attempted = 0
        self.failures: dict[str, int] = {}
        self.first: dict[tuple, tuple[Path, int, str]] = {}  # argv -> output file, code, sha256
        self.mismatches: list[str] = []
        self.outputs = plan.workdir / "outputs"
        shutil.rmtree(self.outputs, ignore_errors=True)
        self.outputs.mkdir()

    def request(self, main, index: int, timed: bool = True) -> None:
        argv = self.plan.argv(index)
        stdout, stderr = io.StringIO(), io.StringIO()
        gc.collect()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            try:
                code = main(argv)
            except Exception as exc:  # a traceback is a failed request, not a crash
                code, failure = None, _failure_kind(exc)
            elapsed = time.perf_counter() - start
        if not timed:
            return
        self.attempted += 1
        if code not in OK_CODES:
            if code is not None:
                failure = f"exit {code}: {stderr.getvalue().strip()}"
            self.failures[failure] = self.failures.get(failure, 0) + 1
            return
        self.times.append(elapsed)
        text = stdout.getvalue()
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        key = tuple(argv)
        if key not in self.first:
            path = self.outputs / f"{len(self.first):05d}.csv"
            path.write_text(text, encoding="utf-8")
            self.first[key] = (path, code, digest)
        elif self.first[key][1:] != (code, digest):
            self.mismatches.append(f"request {index}: output differs from an earlier run of the same argv")

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def verify(self):
        """Oracle-check every distinct output; returns the summed ``oracle.Verdict``."""
        import oracle  # imports scipy, so only after peak RSS is read

        total = oracle.Verdict(0, 0, 0, 0.0)
        for argv, (path, code, _) in self.first.items():
            text = path.read_text(encoding="utf-8")
            try:
                verdict = oracle.check(list(argv), self.plan.scenarios[argv[2]], text, code)
            except (ValueError, IndexError, KeyError) as exc:
                self.mismatches.append(f"{' '.join(argv)}: {exc}")
                continue
            total = oracle.Verdict(*(a + b for a, b in zip(total[:3], verdict[:3])), max(total[3], verdict[3]))
        return total


def overflow_probe(main, plan: workloads.Plan) -> str:
    """Outcome of one untimed ``high-k`` request inside the Marcum overflow band.

    The pool stays below the band so that no timed request fails; this keeps
    the known defect (ROADMAP item 2) in every high-k report. Returns
    ``"ok"`` once the band is gone, or the failure kind.
    """
    argv = workloads.overflow_probe(plan.workdir)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except Exception as exc:
            return _failure_kind(exc)
    return "ok" if code == 0 else f"exit {code}"


def tail(times: list[float]) -> tuple[float, float]:
    """Highest ladder percentile with at least TAIL_BEYOND samples above it (nearest rank)."""
    ordered = sorted(times)
    n = len(ordered)
    for pct in TAIL_LADDER:
        if n * (1.0 - pct / 100.0) >= TAIL_BEYOND:
            return pct, ordered[max(math.ceil(pct / 100.0 * n) - 1, 0)]
    return 50.0, statistics.median(ordered)


# -- set-up and environment -------------------------------------------------


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def setup_seconds(scenario: str, samples: int, warm: bool = False) -> list[float]:
    """Fresh-interpreter times from launch until ``uavrelay.cli`` is imported and a scenario loaded.

    Unless ``warm``, one untimed launch first lets the byte-code cache fill.
    The child reads the same monotonic clock as this process.
    """
    code = (
        "import sys, time\n"
        "import uavrelay.cli\n"
        "uavrelay.cli.load_scenario(sys.argv[1])\n"
        "print(repr(time.perf_counter()))\n"
    )
    out = []
    for i in range(samples if warm else samples + 1):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", code, scenario], env=_child_env(), capture_output=True, text=True, check=True
        )
        if warm or i:
            out.append(float(done.stdout.strip()) - start)
    return out


def import_times(samples: int = IMPORTTIME_SAMPLES) -> tuple[float, float]:
    """Median numpy and uavrelay import times in ms, from ``python -X importtime``.

    numpy is its cumulative entry; uavrelay sums the cumulative entries of
    the top-level ``uavrelay`` imports (which include numpy).
    """
    numpy_ms, package_ms = [], []
    for _ in range(samples):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import uavrelay.cli"],
            env=_child_env(), capture_output=True, text=True, check=True,
        )
        entries = re.findall(r"^import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)$", done.stderr, re.M)
        numpy_ms.append(sum(int(us) for us, _, name in entries if name == "numpy") / 1e3)
        package_ms.append(
            sum(int(us) for us, pad, name in entries if len(pad) == 1 and name.split(".")[0] == "uavrelay") / 1e3
        )
    return statistics.median(numpy_ms), statistics.median(package_ms)


def reference_seconds(part: str) -> float:
    """Seconds of the host-speed reference: the ``python`` loop or the ``numpy`` draw."""
    start = time.perf_counter()
    if part == "python":
        total = 0
        for i in range(REFERENCE_LOOP):
            total += i * i % 7
    else:
        import numpy  # only here, so the closed-form workloads never load numpy.random

        draws = numpy.random.Generator(numpy.random.Philox(12345)).standard_normal(REFERENCE_DRAWS)
        numpy.log2(1.0 + draws * draws)
    return time.perf_counter() - start


def machine_probe() -> float:
    """Median ms of 9 reference loops, an annotation of host speed at one moment."""
    return statistics.median(reference_seconds("python") for _ in range(9)) * 1e3


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy
    import scipy

    cpu = None
    with contextlib.suppress(OSError):
        cpu = next(
            (line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo") if line.startswith("model name")),
            None,
        )
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": _git_commit(),
    }


# -- runs --------------------------------------------------------------------


def timed_run(main, plan: workloads.Plan, seconds: float) -> tuple[Collector, list[float]]:
    """Closed loop over the pool for ``seconds``; returns the outcomes and the reference times."""
    runs = Collector(plan)
    for i in range(WARMUP_REQUESTS):
        runs.request(main, i, timed=False)
    references = []
    index = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        runs.request(main, index)
        references.append(reference_seconds(REFERENCE_PART[plan.workload]))
        index += 1
    return runs, references


def pool_pass(runs: Collector, main, first: int, tracer: spans.Tracer | None = None) -> float:
    """Run requests ``first`` .. ``first + POOL_SIZE - 1``, optionally traced; returns wall seconds."""
    if tracer is not None:
        main = tracer.span(main, "request")
        tracer.install()
    start = time.perf_counter()
    try:
        for index in range(first, first + workloads.POOL_SIZE):
            runs.request(main, index)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return time.perf_counter() - start


def traced_run(main, plan: workloads.Plan, seconds: float):
    """Alternate untraced and traced passes over the pool until ``seconds`` pass.

    Whole passes keep the per-request counts a function of the seed alone.
    Returns the collector, the tracer and the traced/untraced wall ratio.
    """
    runs = Collector(plan)
    tracer = spans.Tracer()
    for i in range(WARMUP_REQUESTS):
        runs.request(main, i, timed=False)
    plain = traced = 0.0
    first = 0
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        plain += pool_pass(runs, main, first)
        traced += pool_pass(runs, main, first + workloads.POOL_SIZE, tracer)
        first += 2 * workloads.POOL_SIZE
    return runs, tracer, traced / plain


def repeat_counts(workload: str, seed: int) -> dict:
    """Deterministic counts of one traced pass over the pool, for the exact-repeat check."""
    cli = load_program()
    plan = workloads.build(workload, seed, OUT / f"{workload}-seed{seed}")
    runs, tracer = Collector(plan), spans.Tracer()
    pool_pass(runs, cli.main, 0, tracer)
    return {"input_digest": plan.digest(), "failures": runs.failures, **tracer.counts()}


def write_record(record: dict, tracer: spans.Tracer | None) -> Path:
    """Write the run record, and the spans and leaf counters of a traced run."""
    records = OUT / "records"
    records.mkdir(parents=True, exist_ok=True)
    name = f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}-{record['workload']}-seed{record['seed']}"
    path = records / f"{name}-trace{int(record['trace'])}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    if tracer is not None:
        trace = {
            "spans": tracer.spans,
            "leaves": [[*key, *agg] for key, agg in tracer.leaves.items()],
            "kept": dict(tracer.kept),
        }
        path.with_suffix(".spans.json").write_text(json.dumps(trace), encoding="utf-8")
    return path


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; prints a human-readable report and returns the JSON result."""
    cli = load_program()
    plan = workloads.build(workload, seed, OUT / f"{workload}-seed{seed}")
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "input_digest": plan.digest()}
    record["probe_ms_before"] = machine_probe()
    first_scenario = plan.argv(0)[2]
    if trace:
        numpy_ms, package_ms = import_times()
        runs, tracer, ratio = traced_run(cli.main, plan, seconds)
    else:
        # Set-up samples are split around the timed loop so that one burst
        # of host load cannot set the median.
        setup = setup_seconds(first_scenario, SETUP_SAMPLES // 2)
        runs, references = timed_run(cli.main, plan, seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup += setup_seconds(first_scenario, SETUP_SAMPLES - SETUP_SAMPLES // 2, warm=True)
    if workload == "high-k":
        record["overflow_probe"] = overflow_probe(cli.main, plan)
    record["probe_ms_after"] = machine_probe()
    verdict = runs.verify()
    record.update(environment())

    if trace:
        metrics = tracer.metrics(verdict.z_rejects, verdict.validate_rows)
        metrics["setup.numpy_import_ms"] = (numpy_ms, "ms")
        metrics["setup.uavrelay_import_ms"] = (package_ms, "ms")
        metrics["trace.overhead_pct"] = ((ratio - 1.0) * 100.0, "%")
        record["counts"] = tracer.counts()
    else:
        reference_ms = statistics.median(references) * 1e3
        scale = REFERENCE_MS / reference_ms
        pct, tail_s = tail(runs.times)
        raw = {"cmd_p50_ms": statistics.median(runs.times) * 1e3, "cmd_tail_ms": tail_s * 1e3}
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "cmd_p50_ms": (raw["cmd_p50_ms"] * scale, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        record.update(
            {
                "uncorrected": raw,
                "cmd_tail_ms": raw["cmd_tail_ms"] * scale,
                "reference_ms": reference_ms,
                "reference_part": REFERENCE_PART[workload],
                "setup_samples_s": setup,
                "tail_percentile": pct,
                "successful_requests": len(runs.times),
            }
        )
    error_rate = runs.failed / runs.attempted if runs.attempted else 0.0
    record.update(
        {
            "attempted": runs.attempted,
            "failed": runs.failed,
            "error_rate": error_rate,
            "failures": runs.failures,
            "mismatches": runs.mismatches,
            "oracle": verdict._asdict(),
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        }
    )
    path = write_record(record, tracer if trace else None)

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    if not trace:
        print(f"cmd_tail_ms = {record['cmd_tail_ms']:.6g} ms (p{pct:g} of n={len(runs.times)} successful requests; not gated)")
        print(
            f"uncorrected: cmd_p50_ms = {raw['cmd_p50_ms']:.6g} ms, cmd_tail_ms = {raw['cmd_tail_ms']:.6g} ms;"
            f" {REFERENCE_PART[workload]} reference {reference_ms:.4g} ms (nominal {REFERENCE_MS} ms)"
        )
    print(f"error_rate = {error_rate:.6g} ({runs.failed}/{runs.attempted}) {runs.failures or ''}")
    print(
        f"oracle: {len(runs.first)} distinct outputs checked, {len(runs.mismatches)} mismatches; "
        f"{verdict.z_rejects}/{verdict.validate_rows} validate rows |z| > 3; "
        f"{verdict.tail_cells} deep-tail cells within ATOL only, worst relative error {verdict.tail_worst_rel:.3g}"
    )
    if "overflow_probe" in record:
        print(
            f"overflow band probe (untimed, not counted): K = {workloads.OVERFLOW_PROBE_K_DB} dB -> "
            f"{record['overflow_probe']}"
        )
    for line in runs.mismatches[:5]:
        print(f"MISMATCH {line}")
    print(f"run record: {path.relative_to(ROOT)}")
    return {
        "correct": not runs.mismatches,
        "attempted": runs.attempted,
        "failed": runs.failed,
        "metrics": record["metrics"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
