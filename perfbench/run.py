"""caclab benchmark: CLI workloads, end-to-end metrics and traced layers.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics listed in BENCHMARK.json
in PROCESSES fresh child interpreters (child.py), started one after
another with S / PROCESSES seconds each: set-up first, then the
workload's commands, each command after a reading of the reference
kernel of reference.py. Times are reported as CPU time at the host's
nominal speed (see reference.py); raw wall and CPU medians are printed
alongside. The reports of all iterations are checked here, together,
and each iteration's must be byte-identical to the first one's.
``--trace 1`` runs the commands once untraced and once with every layer
function traced, in this process, and reports the per-layer metrics. Every report is checked; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``. The exit code is 0 when every check passed, 1 when one
failed, and 2 when the sources are missing.

``--out FILE`` also appends the run to a result set (see compare.py).
``--size small`` runs reduced inputs for the self-check.
"""

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

# child sets the BLAS thread cap before anything imports numpy.
from child import BLAS_THREADS, run_iteration  # noqa: E402
import reference  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, setup_commands  # noqa: E402

# Fresh processes per run: the same command's speed differs from one
# process to the next by more than it drifts within one.
PROCESSES = 3
CHILD_TIMEOUT_S = 150
REQUIRED = (
    SRC / "caclab" / "__init__.py",
    ROOT / "demos" / "scenarios" / "default.json",
    ROOT / "demos" / "scenarios" / "trace_driven.json",
    ROOT / "BENCHMARK.json",
)


class Checks:
    """Correctness checks attempted and failed in one run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, results: list[tuple[str, bool]]) -> None:
        for label, ok in results:
            self.attempted += 1
            if not ok:
                self.failures.append(label)


def machine_block() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": int(BLAS_THREADS),
        "numba": importlib.util.find_spec("numba") is not None,
    }


def run_children(spec: dict) -> list[dict]:
    """Run PROCESSES child interpreters in turn; return their results."""
    results = []
    for _ in range(PROCESSES):
        done = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False,
        )
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise RuntimeError(f"child process exited with {done.returncode}")
        results.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return results


def nominal_s(cpu: float, ref: float) -> float:
    """CPU time at the host's nominal speed, given the reference kernel's."""
    return cpu / ref * reference.NOMINAL_CPU_S


def setup_part(children: list[dict], *parts: str) -> float:
    """Median over the children of the named set-up parts at nominal speed."""
    return statistics.median(
        nominal_s(sum(c[f"{part}_cpu_s"] for part in parts), c["ref_cpu_s"])
        for c in children)


def quartiles(values: list[float]) -> str:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return f"median {median:.6g} (q1 {q1:.6g}, q3 {q3:.6g})"


def timed_run(workload, spec: dict, checks: Checks) -> tuple[dict, list[dict]]:
    children = run_children(spec)
    workload.prepare()
    codes, outputs, samples, first = [], [], [], None
    for index, child in enumerate(children):
        for iteration in child["iterations"]:
            reports = [o.encode("utf-8") for o in iteration["outputs"]]
            if first is None:
                first = reports
            else:
                checks.add([("rerun byte-identical across iterations and processes",
                             reports == first)])
            codes += iteration["codes"]
            outputs += reports
            samples += [dict(timing, process=index, items=workload.items(report))
                        for code, report, timing in
                        zip(iteration["codes"], reports, iteration["timings"]) if code == 0]
    checks.add(workload.check(codes, outputs))
    times = [nominal_s(s["cpu"], s["ref"]) for s in samples] or [float("nan")]
    rates = [s["items"] / t for s, t in zip(samples, times)] or [float("nan")]
    values = {
        "setup_s": setup_part(children, "import", "first_call"),
        "cpu_s": statistics.median(times),
        "items_per_s": statistics.median(rates),
        "peak_rss_mb": max(c["peak_rss_mb"] for c in children),
    }
    print(f"{len(samples)} timed commands in {len(children)} processes,"
          " each after the reference kernel")
    for key in ("wall", "cpu", "ref") if samples else ():
        print(f"  raw {key} s per command: {quartiles([s[key] for s in samples])}")
    print(f"  cpu_s at nominal speed: {quartiles(times)}")
    print(f"{workload.item}_per_s = {values['items_per_s']:.6g} {workload.item}/s"
          f" (items_per_s on {workload.name})")
    return values, samples


def traced_run(workload, commands, run_id: str, checks: Checks) -> dict:
    codes, untraced, timings = run_iteration(commands)
    untraced_wall = sum(t["wall"] for t in timings)
    checks.add(workload.check(codes, untraced))
    tracer = Tracer(run_id)
    with tracer.installed():
        codes, traced, _ = run_iteration(commands)
    checks.add(workload.check(codes, traced))
    checks.add([("traced rerun byte-identical", traced == untraced)])
    spans_path = HERE / "work" / f"spans-{workload.name}.json"
    spans_path.write_text(json.dumps(tracer.spans) + "\n", encoding="utf-8")
    metrics = tracer.layer_metrics()
    metrics["trace.wall_s"] = tracer.root_wall()
    metrics["trace.overhead_s"] = tracer.root_wall() - untraced_wall
    return metrics


def metric_units(bench: dict, trace: bool) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full")
    parser.add_argument("--out", default=None, help="append this run to a result set")
    return parser.parse_args(argv)


def append_result(path: Path, machine: dict, run: dict) -> None:
    result_set = {"machine": machine, "runs": []}
    if path.exists():
        result_set = json.loads(path.read_text(encoding="utf-8"))
        if result_set["machine"] != machine:
            raise SystemExit(f"{path} was measured on another machine block; not appending")
    result_set["runs"].append(run)
    path.write_text(json.dumps(result_set, indent=1) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"error: missing {', '.join(missing)}; run from a full checkout", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    work = HERE / "work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    small = args.size == "small"
    spec = {"workload": args.workload, "seed": args.seed, "small": small, "work": str(work),
            "budget": args.seconds / PROCESSES}
    checks = Checks()
    samples = []
    try:
        workload = WORKLOADS[args.workload](ROOT, work, small)
        sys.path.insert(0, str(SRC))
        if args.trace:
            children = run_children(dict(spec, budget=0))
            workload.prepare()
            # First-use costs were measured in the children; keep them out of the traced run.
            run_iteration(setup_commands(ROOT, work))
            run_id = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
            values = traced_run(workload, workload.commands(args.seed), run_id, checks)
            values["setup.import_s"] = setup_part(children, "import")
            values["setup.first_call_s"] = setup_part(children, "first_call")
        else:
            values, samples = timed_run(workload, spec, checks)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = metric_units(bench, bool(args.trace))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    failed = len(checks.failures)
    for label in checks.failures:
        print(f"FAILED check: {label}", file=sys.stderr)
    print(f"fail_ratio = {failed}/{checks.attempted} checks")
    machine = machine_block()
    print(f"machine: {json.dumps(machine, sort_keys=True)}")
    if args.out:
        append_result(Path(args.out), machine, {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "size": args.size, "attempted": checks.attempted, "failed": failed,
            "metrics": {name: m["value"] for name, m in metrics.items()},
            "samples": samples,
        })
    print(json.dumps({
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
