"""The four benchmark workloads: CLI commands on fixed inputs, with their checks.

Each workload writes its generated inputs into a work directory, builds
the ``caclab`` command lines for one iteration (every command writes its
report with ``--out``), checks the reports of one or more iterations
taken together, and counts the units of work in one command's report. References that need the program, such
as the exact blocking the simulation is checked against, are computed
in ``prepare``, outside any timed region.
"""

import csv
import io
import json
import math
import statistics
from pathlib import Path

# Blocking of the three stock classes at capacity 40 (2,282 states), and
# at the reduced capacity 12 (102 states), from ``solve --mode ctmc`` at
# the commit that introduced this benchmark.
CTMC_REFERENCE = {
    40: (8.09560645466e-11, 9.08231264586e-09, 6.02857309076e-08),
    12: (0.00302794810669, 0.0734355831324, 0.232576382426),
}
CTMC_REL_TOL = 1e-4
RESIDUAL_TOL = 1e-9
MONOTONE_TOL = 1e-12
CI_HALF_WIDTHS = 3.0
SWEEP_MODES = "ctmc,literal1d,recurrence"


def _load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return str(path)


class Workload:
    """One workload. ``item`` names the unit of work counted per iteration."""

    name = ""
    item = ""

    def __init__(self, root: Path, work: Path, small: bool):
        self.work = work
        self.small = small
        self.scenarios = root / "demos" / "scenarios"

    def prepare(self) -> None:
        """Write generated inputs and compute references; untimed."""

    def commands(self, seed: int) -> list[list[str]]:
        raise NotImplementedError

    def check(self, codes: list[int], outputs: list[bytes]) -> list[tuple[str, bool]]:
        """Check the reports of whole iterations, in command order."""
        raise NotImplementedError

    def items(self, output: bytes) -> float:
        raise NotImplementedError

    def _out(self, label: str) -> str:
        return str(self.work / f"{self.name}-{label}.out")


class CtmcLarge(Workload):
    name = "ctmc-large"
    item = "states"

    def prepare(self):
        import caclab.model
        import caclab.scenario

        self.capacity = 12 if self.small else 40
        system = dict(_load(self.scenarios / "default.json")["system"], capacity=self.capacity)
        self.config = _write(self.work / "ctmc_large.json", {"system": system})
        cfg = caclab.scenario.load_scenario(self.config).system
        self.states = len(caclab.model.enumerate_states(cfg))

    def commands(self, seed):
        return [["solve", "--config", self.config, "--mode", "ctmc", "--out", self._out("solve")]]

    def check(self, codes, outputs):
        results = []
        for code, output in zip(codes, outputs):
            if code != 0:
                results.append(("solve exit code 0", False))
                continue
            report = json.loads(output)
            blocking = [c["blocking"] for c in report["per_class"]]
            reference = CTMC_REFERENCE[self.capacity]
            results += [
                (f"residual <= {RESIDUAL_TOL}", report["residual"] <= RESIDUAL_TOL),
                ("blocking nested in class index", blocking == sorted(blocking)),
            ] + [
                (f"class {k + 1} blocking within {CTMC_REL_TOL} of the reference",
                 abs(b - r) <= CTMC_REL_TOL * r)
                for k, (b, r) in enumerate(zip(blocking, reference))
            ]
        return results

    def items(self, output):
        return float(self.states)


class SweepStock(Workload):
    name = "sweep-stock"
    item = "points"

    def commands(self, seed):
        grid = ["--lambda-from", "0.2", "--lambda-to", "4.0", "--steps", "4"] if self.small else []
        return [
            ["sweep", "--config", str(self.scenarios / "default.json"), "--class", str(k),
             "--modes", SWEEP_MODES, "--seed", str(seed), *grid, "--out", self._out(f"class{k}")]
            for k in (1, 2, 3)
        ]

    @staticmethod
    def _rows(output: bytes) -> list[dict]:
        return list(csv.DictReader(io.StringIO(output.decode("utf-8"))))

    def check(self, codes, outputs):
        results = []
        for i, (code, output) in enumerate(zip(codes, outputs)):
            k = i % 3 + 1
            if code != 0:
                results.append((f"sweep class {k} exit code 0", False))
                continue
            rows = self._rows(output)
            for label in ("1", "2", "3", "overall"):
                series = [float(r["blocking"]) for r in rows
                          if r["class"] == label and r["mode"] == "ctmc"]
                worst = min((b - a for a, b in zip(series, series[1:])), default=0.0)
                results.append((f"sweep class {k}: ctmc series {label} monotone in lambda",
                                len(series) > 1 and worst >= -MONOTONE_TOL))
        return results

    def items(self, output):
        return float(len({r["lambda"] for r in self._rows(output)}))


class SimulateMarkov(Workload):
    name = "simulate-markov"
    item = "calls"

    # Twenty replications of horizon 2e4 per iteration, not the shipped ten
    # of 1e5, run as ten commands of two replications each, so that a run
    # gives many samples. Class 1 sees about 1.2 blocked calls per
    # replication, over-dispersed (variance 1.7 times the mean). The
    # 3-half-width check is made on the estimates of all the run's commands
    # pooled: on one iteration's ten it would fail by chance about once in
    # 1,400 iterations, on a run's thirty about once in 17,000 runs.
    commands_per_iteration = 10

    def prepare(self):
        import caclab.analytic
        import caclab.scenario

        horizon = 5e3 if self.small else 2e4
        doc = {
            "system": _load(self.scenarios / "default.json")["system"],
            "sim": {"horizon": horizon, "warmup": horizon / 10, "replications": 2, "seed": 0},
        }
        self.config = _write(self.work / "simulate_markov.json", doc)
        cfg = caclab.scenario.load_scenario(self.config).system
        self.exact = caclab.analytic.solve(cfg, "ctmc").per_class.tolist()

    def commands(self, seed):
        return [
            ["simulate", "--config", self.config, "--seed", str(seed * 100 + j),
             "--out", self._out(f"sim{j}")]
            for j in range(self.commands_per_iteration)
        ]

    def check(self, codes, outputs):
        from scipy import stats

        if any(codes):
            return [("simulate exit code 0", False)]
        reports = [json.loads(o) for o in outputs]
        results = [("markovian mode", all(r["mode"] == "markovian" for r in reports))]
        n = len(reports)
        t_quantile = stats.t.ppf(0.975, n - 1)
        for k, exact in enumerate(self.exact):
            estimates = [r["per_class"][k]["blocking"] for r in reports]
            mean = statistics.fmean(estimates)
            hw = t_quantile * statistics.stdev(estimates) / math.sqrt(n)
            results.append((f"class {k + 1} pooled over {n} commands within"
                            f" {CI_HALF_WIDTHS:g} half-widths of exact ctmc",
                            abs(mean - exact) <= CI_HALF_WIDTHS * hw))
        return results

    def items(self, output):
        return float(sum(c["offered"] for c in json.loads(output)["per_class"]))


def expected_events(process, horizon: float) -> float:
    """Mean event count of one traffic process on [0, horizon)."""
    import caclab.traffic as traffic
    from scipy import integrate

    if isinstance(process, traffic.RateFunction):
        return sum(rate * (end - start) for start, end, rate in process.pieces(horizon))
    if isinstance(process, traffic.MmppParams):
        p1 = process.switch_21 / (process.switch_12 + process.switch_21)
        return horizon * (p1 * process.rate_state1 + (1 - p1) * process.rate_state2)
    law = process.interarrival
    if isinstance(law, traffic.BiPareto):
        tail, _ = integrate.quad(law.ccdf, law.minimum, math.inf, limit=500)
        return horizon / (law.minimum + tail)
    return horizon / traffic.analytic_mean(law)


class SimulateTrace(Workload):
    name = "simulate-trace"
    item = "arrivals"
    # Allowed relative distance of the trace length from its expectation:
    # measured spread is 1.7% at horizon 2e4 and 6% at the reduced 4e3.
    band = 0.15

    def prepare(self):
        import caclab.scenario

        self.config = str(self.scenarios / "trace_driven.json")
        if self.small:
            self.band = 0.4
            doc = _load(self.scenarios / "trace_driven.json")
            doc["sim"].update(horizon=4000.0, warmup=400.0)
            self.config = _write(self.work / "simulate_trace.json", doc)
        scenario = caclab.scenario.load_scenario(self.config)
        horizon = scenario.sim.horizon
        self.expected = sum(
            c.weight * expected_events(c.process, horizon) for c in scenario.traffic.components
        )

    def commands(self, seed):
        return [["simulate", "--config", self.config, "--seed", str(seed), "--out", self._out("sim")]]

    def check(self, codes, outputs):
        results = []
        for code, output in zip(codes, outputs):
            if code != 0:
                results.append(("simulate exit code 0", False))
                continue
            report = json.loads(output)
            events = report["trace_events"]
            results += [("trace-driven mode", report["mode"] == "trace_driven")] + [
                (f"class {k} offered > 0", c["offered"] > 0)
                for k, c in enumerate(report["per_class"], start=1)
            ] + [(f"trace length {events} within {self.band:g} of expected {self.expected:.0f}",
                  abs(events - self.expected) <= self.band * self.expected)]
        return results

    def items(self, output):
        report = json.loads(output)
        return float(report["trace_events"] * (1 + report["replications"]))


WORKLOADS = {w.name: w for w in (CtmcLarge, SweepStock, SimulateMarkov, SimulateTrace)}


def setup_commands(root: Path, work: Path) -> list[list[str]]:
    """One first call into each layer on a tiny input, through the CLI."""
    scenarios = root / "demos" / "scenarios"
    tiny = _load(scenarios / "default.json")
    tiny["system"]["capacity"] = 6
    tiny["sim"] = {"horizon": 200.0, "warmup": 20.0, "replications": 2, "seed": 1}
    tiny_trace = _load(scenarios / "trace_driven.json")
    tiny_trace["sim"].update(horizon=200.0, warmup=20.0, replications=2)
    system = _write(work / "setup_system.json", tiny)
    trace = _write(work / "setup_trace.json", tiny_trace)
    out = str(work / "setup.out")
    return [
        ["solve", "--config", system, "--mode", "ctmc", "--out", out],
        ["sweep", "--config", system, "--modes", SWEEP_MODES, "--lambda-from", "0.5",
         "--lambda-to", "1.0", "--steps", "2", "--out", out],
        ["simulate", "--config", system, "--seed", "1", "--out", out],
        ["simulate", "--config", trace, "--seed", "1", "--out", out],
    ]
