"""One measuring process of a benchmark run: set-up, then timed commands.

Run as ``python3 perfbench/child.py SPEC_JSON``, where SPEC_JSON holds
``workload``, ``seed``, ``small``, ``work`` (a directory) and ``budget``
(seconds). The process first times, in CPU seconds, ``import caclab``
and a first call into each layer on tiny inputs (where first-use
compilation, caching and lazy imports land), and reads the reference
kernel. With a budget above 0 it then prepares the workload and runs
its iterations, each command after a reference-kernel reading, until
the next iteration would end after the budget (at least one). It prints
one JSON object: the set-up CPU times, each iteration's exit codes,
reports and timings, and the process's peak RSS; run.py checks the
reports. run.py starts several of these in turn, because the same
command's speed differs from one process to the next.
"""

import os

# One BLAS thread, set before numpy is first imported: the program then
# runs on one core, so its CPU time is its own work and nothing waits on a
# second thread the shared host may not schedule.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

# Only the standard library so far: numpy arrives with ``import caclab``.
from workloads import WORKLOADS, setup_commands  # noqa: E402


def run_iteration(commands: list[list[str]], calibrate: bool = False):
    """Run one iteration's commands in this process.

    Returns the exit codes, the reports, and one sample per command:
    its wall and CPU time and, with ``calibrate``, the CPU time of the
    reference kernel read just before it.
    """
    import caclab.cli
    import reference

    codes, samples = [], []
    for argv in commands:
        ref = reference.kernel_cpu_s() if calibrate else float("nan")
        wall, cpu = time.perf_counter(), time.process_time()
        codes.append(caclab.cli.main(argv))  # looked up per call, so tracing applies
        cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
        samples.append({"wall": wall, "cpu": cpu, "ref": ref})
    paths = [Path(argv[argv.index("--out") + 1]) for argv in commands]
    outputs = [p.read_bytes() if p.exists() else b"" for p in paths]
    return codes, outputs, samples


def timed_iterations(commands: list[list[str]], budget: float) -> list[dict]:
    """Iterations until the next would end after ``budget`` seconds."""
    iterations, walls = [], []
    started = time.perf_counter()
    while True:
        iteration_started = time.perf_counter()
        codes, outputs, timings = run_iteration(commands, calibrate=True)
        walls.append(time.perf_counter() - iteration_started)
        iterations.append({"codes": codes, "outputs": [o.decode("utf-8") for o in outputs],
                           "timings": timings})
        elapsed = time.perf_counter() - started
        if elapsed + statistics.median(walls) > budget:
            return iterations


def main() -> int:
    spec = json.loads(sys.argv[1])
    work = Path(spec["work"])
    sys.path.insert(0, str(ROOT / "src"))
    tiny = setup_commands(ROOT, work)
    started = time.process_time()
    import caclab.cli

    imported = time.process_time()
    setup_codes = [caclab.cli.main(argv) for argv in tiny]
    finished = time.process_time()
    if any(setup_codes):
        print(f"set-up command failed: exit codes {setup_codes}", file=sys.stderr)
        return 1
    import reference

    result = {
        "import_cpu_s": imported - started,
        "first_call_cpu_s": finished - imported,
        "ref_cpu_s": reference.kernel_cpu_s(),
        "iterations": [],
    }
    if spec["budget"] > 0:
        workload = WORKLOADS[spec["workload"]](ROOT, work, spec["small"])
        workload.prepare()
        result["iterations"] = timed_iterations(workload.commands(spec["seed"]), spec["budget"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
