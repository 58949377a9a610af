"""Summarise or compare benchmark result sets.

A result set is the JSON file ``run.py --out FILE`` appends to: a
machine block and a list of runs. Usage, from the root of a checkout:

    python3 perfbench/compare.py SET         # median, quartiles, spread
    python3 perfbench/compare.py BASE NEW    # NEW against BASE, per bound

Only end-to-end runs (``--trace 0``) of the same size are used. Spread
is the distance between the first and third quartile over the median.
The comparison refuses (exit 2) when the machine blocks differ, and
exits 1 when a median is worse than BASE's by more than the metric's
bound from BENCHMARK.json.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def by_workload(result_set: dict) -> dict[tuple[str, str], dict[str, list[float]]]:
    """(workload, size) -> metric -> values over the end-to-end runs."""
    grouped = defaultdict(lambda: defaultdict(list))
    for run in result_set["runs"]:
        if not run["trace"]:
            for name, value in run["metrics"].items():
                grouped[run["workload"], run["size"]][name].append(value)
    return grouped


def summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def report_spread(result_set: dict, bounds: dict[str, dict]) -> int:
    for (workload, size), metrics in sorted(by_workload(result_set).items()):
        print(f"{workload} ({size})")
        for name, values in metrics.items():
            q1, median, q3 = summary(values)
            spread = (q3 - q1) / median
            bound = bounds[name]["bound"]
            print(f"  {name:12s} median {median:.6g} q1 {q1:.6g} q3 {q3:.6g} n {len(values)}"
                  f"  spread {spread:.4f} = {spread / bound:.2f} of bound {bound}")
    return 0


def report_change(base: dict, new: dict, bounds: dict[str, dict]) -> int:
    if base["machine"] != new["machine"]:
        print("refusing to compare: machine blocks differ", file=sys.stderr)
        print(f"  base: {json.dumps(base['machine'], sort_keys=True)}", file=sys.stderr)
        print(f"  new:  {json.dumps(new['machine'], sort_keys=True)}", file=sys.stderr)
        return 2
    base_groups = by_workload(base)
    worse = 0
    for key, metrics in sorted(by_workload(new).items()):
        if key not in base_groups:
            continue
        print(f"{key[0]} ({key[1]})")
        for name, values in metrics.items():
            old = statistics.median(base_groups[key][name])
            now = statistics.median(values)
            sign = 1.0 if bounds[name]["better"] == "lower" else -1.0
            change = sign * (now - old) / old
            verdict = "WORSE beyond bound" if change > bounds[name]["bound"] else "within bound"
            worse += change > bounds[name]["bound"]
            print(f"  {name:12s} base {old:.6g} new {now:.6g}  worse by {change:+.4f}"
                  f" (bound {bounds[name]['bound']}): {verdict}")
    return 1 if worse else 0


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    if len(argv) == 1:
        return report_spread(load(argv[0]), bounds)
    return report_change(load(argv[0]), load(argv[1]), bounds)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
