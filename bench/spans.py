"""Outside-in per-layer tracing for the benchmark's traced run.

The program is not edited: each layer entry point is replaced, for the
duration of the traced passes, at every module attribute its callers look
up. Requests, solver calls and Monte Carlo estimates are kept as whole spans
(id, parent, name, start, end). The ~1e5-1e6 leaf calls per run
(link budget, outage, Marcum, sampler, capacity) are aggregated in memory
into per-(enclosing span kind, function) counters of calls, inclusive time,
self time and errors. Wrapping adds tens of percent of wall time, so traced
numbers never feed the end-to-end metrics.
"""

from __future__ import annotations

import inspect
import math
import sys
import time
from collections import defaultdict

PACKAGE = "uavrelay"
SPECFUN = "uavrelay.specfun"

#: Leaf entry points by module of origin and name, with their metric label.
LEAVES = {
    ("uavrelay.cli", "load_scenario"): "cli.load_scenario",
    ("uavrelay.channel", "link_budget"): "channel.link_budget",
    ("uavrelay.outage", "end_to_end_outage"): "outage.end_to_end_outage",
    ("uavrelay.outage", "hop_outage"): "outage.hop_outage",
    ("uavrelay.outage", "hop_capacity"): "outage.hop_capacity",
    ("uavrelay.mcsim", "sample_rician_power"): "mcsim.sample_rician_power",
}
#: Entry points kept as whole spans, with the span kind they open.
SPANS = {
    ("uavrelay.optimizer", "minimize_outage_exact"): "exact",
    ("uavrelay.optimizer", "solve_theorem1"): "theorem1",
    ("uavrelay.mcsim", "estimate_outage"): "estimate",
}
SOLVER_KINDS = ("exact", "theorem1")
E2E = "outage.end_to_end_outage"


def specfun_bucket(b: float) -> str:
    """Bucket of the Marcum threshold half-square b^2/2, a proxy for series length."""
    half_sq = 0.5 * b * b
    if half_sq < 10.0:
        return "short"
    return "mid" if half_sq < 100.0 else "long"


class Tracer:
    """Span stack, whole spans and leaf counters of one traced run."""

    def __init__(self):
        # Each frame is [kind of the enclosing whole span, child seconds, ...].
        self.stack: list[list] = [["idle", 0.0]]
        self.spans: list[tuple] = []  # (id, parent id, kind, start, end, error)
        self.kept = defaultdict(lambda: [0, 0.0, 0.0, 0])  # kind -> calls, total s, self s, errors
        self.leaves = defaultdict(lambda: [0, 0.0, 0.0, 0])  # (kind, label, bucket) -> same
        self.theorem1_steps = 0
        self.trials = 0
        self.chunks = 0
        self._originals: list[tuple] = []

    # -- whole spans -------------------------------------------------------

    def span(self, fn, kind: str):
        """Wrap ``fn`` so that each call is recorded as a whole span of ``kind``."""
        stack, perf = self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [kind, 0.0, len(self.spans)]
            self.spans.append(None)  # reserve the id so children see their parent
            stack.append(frame)
            start = perf()
            error = True
            try:
                result = fn(*args, **kwargs)
                error = False
            finally:
                end = perf()
                stack.pop()
                parent[1] += end - start
                agg = self.kept[kind]
                agg[0] += 1
                agg[1] += end - start
                agg[2] += end - start - frame[1]
                agg[3] += error
                self.spans[frame[2]] = (frame[2], parent[2] if len(parent) > 2 else None, kind, start, end, error)
            if kind == "theorem1":
                self.theorem1_steps += result.iterations
            elif kind == "estimate":
                spec = args[3] if len(args) > 3 else kwargs["spec"]
                self.trials += spec.trials
                self.chunks += math.ceil(spec.trials / spec.chunk_size)
            return result

        return wrapper

    # -- leaves ------------------------------------------------------------

    def leaf(self, fn, label: str, bucketed: bool = False):
        """Wrap ``fn`` so that its calls add to the per-(span kind, label) counters.

        Bucketed leaves are Marcum entry points ``f(a, b, ...)``; their calls
        are split by :func:`specfun_bucket` of b.
        """
        stack, leaves, perf = self.stack, self.leaves, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [parent[0], 0.0]
            key = (parent[0], label, specfun_bucket(args[1]) if bucketed else "")
            stack.append(frame)
            start = perf()
            error = True
            try:
                result = fn(*args, **kwargs)
                error = False
                return result
            finally:
                elapsed = perf() - start
                stack.pop()
                parent[1] += elapsed
                agg = leaves[key]
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - frame[1]
                agg[3] += error

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Replace every entry point at each ``uavrelay`` module attribute that names it.

        Marcum entry points are found by their module of origin (any
        ``uavrelay.specfun`` function another module imports), so the trace
        survives a rename of the kernel.
        """
        wrapped = {}
        modules = [m for name, m in sys.modules.items() if name.startswith(PACKAGE + ".")]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if not inspect.isfunction(obj):
                    continue
                origin = (obj.__module__, obj.__name__)
                if obj.__module__ == SPECFUN == module.__name__:
                    continue  # calls inside specfun are its own business
                if obj not in wrapped:
                    if obj.__module__ == SPECFUN:
                        wrapped[obj] = self.leaf(obj, f"specfun.{obj.__name__}", bucketed=True)
                    elif origin in LEAVES:
                        wrapped[obj] = self.leaf(obj, LEAVES[origin])
                    elif origin in SPANS:
                        wrapped[obj] = self.span(obj, SPANS[origin])
                    else:
                        continue
                self._originals.append((module, attr, obj))
                setattr(module, attr, wrapped[obj])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._originals):
            setattr(module, attr, obj)
        self._originals.clear()

    # -- metrics -----------------------------------------------------------

    def _leaf_sum(self, prefix: str, kinds=None, bucket=None) -> list:
        total = [0, 0.0, 0.0, 0]
        for (kind, label, bkt), agg in self.leaves.items():
            if label.startswith(prefix) and (kinds is None or kind in kinds) and (bucket is None or bkt == bucket):
                total = [t + a for t, a in zip(total, agg)]
        return total

    def metrics(self, z_rejects: int, validate_rows: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit); absent work reads 0."""

        def ratio(num, den):
            return num / den if den else 0.0

        requests = self.kept["request"]
        n = requests[0]
        exact, theorem1, estimate = self.kept["exact"], self.kept["theorem1"], self.kept["estimate"]
        load = self._leaf_sum("cli.load_scenario")
        budget = self._leaf_sum("channel.link_budget")
        e2e = self._leaf_sum(E2E)
        hop = self._leaf_sum("outage.hop_outage")
        specfun = self._leaf_sum("specfun.")
        out = {
            "cli.self_ms_per_cmd": (ratio(requests[2], n) * 1e3, "ms"),
            "cli.load_scenario_ms": (ratio(load[1], load[0]) * 1e3, "ms"),
            "channel.link_budget.calls_per_cmd": (ratio(budget[0], n), "count"),
            "channel.link_budget.us_per_call": (ratio(budget[1], budget[0]) * 1e6, "us"),
            "outage.evals_per_cmd": (ratio(e2e[0], n), "count"),
            "outage.solver_eval_share": (ratio(self._leaf_sum(E2E, SOLVER_KINDS)[0], e2e[0]), "1"),
            "outage.self_us_per_eval": (ratio(e2e[2] + hop[2], e2e[0]) * 1e6, "us"),
            "specfun.calls_per_cmd": (ratio(specfun[0], n), "count"),
            "specfun.us_per_call": (ratio(specfun[1], specfun[0]) * 1e6, "us"),
        }
        for bucket in ("short", "mid", "long"):
            part = self._leaf_sum("specfun.", bucket=bucket)
            out[f"specfun.{bucket}.us_per_call"] = (ratio(part[1], part[0]) * 1e6, "us")
            out[f"specfun.{bucket}.share"] = (ratio(part[0], specfun[0]), "1")
        out.update(
            {
                "specfun.errors_per_cmd": (ratio(specfun[3], n), "count"),
                "optimizer.exact.evals_per_solve": (ratio(self._leaf_sum(E2E, ("exact",))[0], exact[0]), "count"),
                "optimizer.exact.ms_per_solve": (ratio(exact[1], exact[0]) * 1e3, "ms"),
                "optimizer.theorem1.steps_per_solve": (ratio(self.theorem1_steps, theorem1[0]), "count"),
                "optimizer.theorem1.ms_per_solve": (ratio(theorem1[1], theorem1[0]) * 1e3, "ms"),
                "optimizer.solves_per_cmd": (ratio(exact[0] + theorem1[0], n), "count"),
                "mcsim.trials_per_s": (ratio(self.trials, estimate[1]), "1/s"),
                "mcsim.chunks_per_estimate": (ratio(self.chunks, estimate[0]), "count"),
                "mcsim.sampler_share": (ratio(self._leaf_sum("mcsim.sample_rician_power")[1], estimate[1]), "1"),
                "mcsim.capacity_share": (ratio(self._leaf_sum("outage.hop_capacity")[1], estimate[1]), "1"),
                "mcsim.z_reject_share": (ratio(z_rejects, validate_rows), "1"),
            }
        )
        return out

    def counts(self) -> dict[str, float]:
        """The deterministic subset of :meth:`metrics`: counts, no timings."""
        metrics = self.metrics(0, 0)
        names = (
            "optimizer.exact.evals_per_solve",
            "optimizer.theorem1.steps_per_solve",
            "optimizer.solves_per_cmd",
            "outage.evals_per_cmd",
            "channel.link_budget.calls_per_cmd",
            "specfun.calls_per_cmd",
            "specfun.short.share",
            "specfun.mid.share",
            "specfun.long.share",
            "specfun.errors_per_cmd",
            "mcsim.chunks_per_estimate",
        )
        return {name: metrics[name][0] for name in names}
