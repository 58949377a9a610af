"""Span tracing of caclab's public layer functions, from outside the package.

``Tracer.installed()`` rebinds each function in ``LAYERS`` to a wrapper
in every loaded ``caclab`` module that refers to it (``from .x import f``
copies the reference, so the defining module alone is not enough), and
restores the originals on exit. Each call records one span (id, parent,
name, start, end) in memory, and result-derived counters at the same
boundary. Nothing inside ``src/`` is touched.
"""

import time
from collections import defaultdict
from contextlib import contextmanager
import sys

# (module, function, per-layer metric for the span's self time).
LAYERS = (
    ("cli", "main", "cli.unaccounted_s"),
    ("scenario", "load_scenario", "scenario.load_scenario_s"),
    ("model", "enumerate_states", "model.enumerate_states_s"),
    ("analytic", "solve", "analytic.solve_s"),
    ("analytic", "build_generator", "analytic.build_generator_s"),
    ("analytic", "steady_state", "analytic.steady_state_s"),
    ("analytic", "blocking_probabilities", "analytic.blocking_probabilities_s"),
    ("sweeps", "run_sweep", "sweeps.run_sweep_s"),
    ("simulate", "run_simulation", "simulate.aggregate_self_s"),
    ("simulate", "run_replication", "simulate.run_replication_s"),
    ("simulate", "run_trace_driven", "simulate.run_trace_driven_s"),
    ("traffic", "compose_traffic", "traffic.compose_traffic_s"),
    ("traffic", "sample_poisson_process", "traffic.sample_poisson_process_s"),
    ("traffic", "sample_mmpp", "traffic.sample_mmpp_s"),
    ("traffic", "sample_renewal", "traffic.sample_renewal_s"),
)

def _adder(key, amount):
    def count(counts, args, result):
        counts[key] += amount(args, result)
    return count


def _count_residual(counts, args, result):
    counts["analytic.residual"] = max(counts["analytic.residual"], float(result.residual))


def _count_sim(counts, args, result):
    counts["simulate.calls_offered"] += int(result.offered.sum())
    counts["simulate.calls_blocked"] += int(result.blocked.sum())


def _count_trace_driven(counts, args, result):
    _count_sim(counts, args, result)
    counts["simulate.replications"] += int(result.replications)
    counts["simulate.trace_admitted"] += int((result.offered - result.blocked).sum())


# Counters read off a call's arguments and result: work done at each layer.
COUNTERS = {
    "model.enumerate_states": _adder("model.states", lambda a, r: len(r)),
    "analytic.build_generator": _adder("analytic.generator_nnz", lambda a, r: len(r.entries)),
    "analytic.steady_state": _count_residual,
    "analytic.solve": _adder("analytic.solve_calls", lambda a, r: 1),
    "sweeps.run_sweep": _adder("sweeps.points", lambda a, r: len(a[0].grid)),
    "simulate.run_replication": _adder("simulate.replications", lambda a, r: 1),
    "simulate.run_simulation": _count_sim,
    "simulate.run_trace_driven": _count_trace_driven,
    "traffic.compose_traffic": _adder("traffic.trace_arrivals", lambda a, r: len(r)),
    "traffic.sample_poisson_process": _adder("traffic.poisson_events", lambda a, r: len(r)),
    "traffic.sample_mmpp": _adder("traffic.mmpp_events", lambda a, r: len(r)),
    "traffic.sample_renewal": _adder("traffic.renewal_events", lambda a, r: len(r)),
}

COUNT_METRICS = (
    "model.states",
    "analytic.generator_nnz",
    "analytic.residual",
    "analytic.solve_calls",
    "sweeps.points",
    "simulate.replications",
    "simulate.calls_offered",
    "simulate.calls_blocked",
    "simulate.trace_admitted",
    "traffic.trace_arrivals",
    "traffic.poisson_events",
    "traffic.mmpp_events",
    "traffic.renewal_events",
)

SELF_TIME_METRICS = tuple(metric for _, _, metric in LAYERS)


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(int)
        self._stack: list[int] = []

    def _wrap(self, name, fn):
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            span = {
                "run": self.run_id,
                "id": len(self.spans),
                "parent": self._stack[-1] if self._stack else None,
                "name": name,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(self.counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Rebind every layer function to its traced wrapper while active."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "caclab" or key.startswith("caclab."))
        ]
        rebound = []
        for module_name, func_name, _ in LAYERS:
            original = getattr(sys.modules[f"caclab.{module_name}"], func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        rebound.append((module, attr, original))
        try:
            yield self
        finally:
            for module, attr, original in rebound:
                setattr(module, attr, original)

    def self_times(self) -> dict[str, float]:
        """Span duration minus the time its direct children cover, summed per name."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        totals = defaultdict(float)
        for span in self.spans:
            totals[span["name"]] += span["end"] - span["start"] - child_time[span["id"]]
        return totals

    def root_wall(self) -> float:
        """Summed duration of the top-level command spans."""
        return sum(s["end"] - s["start"] for s in self.spans if s["parent"] is None)

    def layer_metrics(self) -> dict[str, float]:
        totals = self.self_times()
        metrics = {
            metric: totals.get(f"{module}.{func}", 0.0) for module, func, metric in LAYERS
        }
        metrics.update({name: self.counts.get(name, 0.0) for name in COUNT_METRICS})
        return metrics
