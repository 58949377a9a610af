"""Command-line interface.

Subcommands: validate | solve | simulate | sweep | compare | trace.
All outputs are deterministic given identical inputs, flags and seeds.

Exit codes: 0 success, 1 comparison failure, 2 invalid configuration,
3 unparseable scenario document, 4 the mode cannot solve the
configuration (a mode precondition fails, the state space exceeds the
enumeration limit, or the chain has no finite stationary solution),
5 output I/O failure.
"""

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .analytic import recurrence_blocking, solve
from .errors import (
    CaclabError,
    ConfigError,
    ConvergenceError,
    DegenerateChainError,
    ModePreconditionError,
    ScenarioError,
    StateSpaceLimitError,
)
from .model import SystemConfig, validate_config
from .scenario import (
    Scenario,
    SweepSettings,
    config_to_dict,
    load_scenario,
    simparams_to_dict,
)
from .simulate import (
    SimParams,
    SimStats,
    run_simulation,
    run_trace_driven,
    splitmix64_stream,
)
from .sweeps import SweepSpec, compare_analytic_sim, run_sweep
from .traffic import ArrivalTrace, compose_traffic

EXIT_OK = 0
EXIT_COMPARISON = 1
EXIT_CONFIG = 2
EXIT_PARSE = 3
EXIT_MODE = 4
EXIT_IO = 5

MODE_TOKENS = {
    "ctmc": "ctmc",
    "literal1d": "literal1d",
    "recurrence": "recurrence",
    "kr": "kaufman_roberts",
    "erlangb": "erlang_b",
}

_SERIES_COLORS = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
)


def _fmt(x: float) -> str:
    """Locale-independent, 12 significant digits."""
    return format(float(x), ".12g")


def _jsonable(obj):
    """Round floats to 12 significant digits; NaN/inf become null."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if not math.isfinite(x):
            return None
        return float(_fmt(x))
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        Path(out_path).write_text(text, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise _OutputError(f"cannot write {out_path}: {exc}") from exc


class _OutputError(CaclabError):
    pass


def _dump_report(report: dict, out_path: str | None) -> None:
    _emit(json.dumps(_jsonable(report), indent=2) + "\n", out_path)


def _base_report(cfg: SystemConfig) -> dict:
    return {"tool": "caclab", "version": __version__, "config": config_to_dict(cfg)}


def cmd_validate(args) -> int:
    scenario = load_scenario(args.config)
    validate_config(scenario.system)
    report = _base_report(scenario.system)
    if scenario.sim is not None:
        report["sim"] = simparams_to_dict(scenario.sim)
    _dump_report(report, None)
    return EXIT_OK


def cmd_solve(args) -> int:
    scenario = load_scenario(args.config)
    cfg = validate_config(scenario.system)
    if args.mode not in MODE_TOKENS:
        raise ModePreconditionError(
            f"unknown mode {args.mode!r}; expected one of {sorted(MODE_TOKENS)}"
        )
    mode = MODE_TOKENS[args.mode]
    result = solve(cfg, mode)
    report = _base_report(cfg)
    report.update(
        {
            "mode": result.mode,
            "detail": result.detail,
            "per_class": [
                {"name": c.name, "blocking": float(result.per_class[i])}
                for i, c in enumerate(cfg.classes)
            ],
            "overall": result.overall,
            "validity_flag": result.validity_flag,
            "residual": result.residual,
        }
    )
    if mode == "recurrence":
        rec, _ = recurrence_blocking(cfg)
        report["load_ratio"] = rec.load_ratio
    _dump_report(report, args.out)
    return EXIT_OK


def _resolved_sim(scenario: Scenario, seed_override: int | None) -> SimParams:
    if scenario.sim is None:
        raise ConfigError("scenario has no sim section")
    p = scenario.sim
    if seed_override is None:
        return p
    return replace(p, seed=seed_override)


def _stats_payload(cfg: SystemConfig, stats: SimStats) -> dict:
    hw = stats.half_width
    return {
        "per_class": [
            {
                "name": c.name,
                "offered": int(stats.offered[i]),
                "blocked": int(stats.blocked[i]),
                "blocking": float(stats.blocking[i]),
                "ci_half_width": float(hw[i]) if hw is not None else None,
            }
            for i, c in enumerate(cfg.classes)
        ],
        "overall": {
            "blocking": stats.overall_blocking,
            "ci_half_width": stats.overall_half_width,
        },
        "occupancy_histogram": stats.occupancy_histogram,
        "replications": stats.replications,
        "ci_available": stats.ci_available,
        "degenerate": stats.degenerate,
    }


def _build_trace(scenario: Scenario, params: SimParams) -> ArrivalTrace:
    if scenario.traffic is None:
        raise ConfigError("trace-driven run needs a traffic section")
    trace_rng = np.random.Generator(
        np.random.PCG64(splitmix64_stream(params.seed, 0))
    )
    return compose_traffic(scenario.traffic, params.horizon, trace_rng)


def cmd_simulate(args) -> int:
    scenario = load_scenario(args.config)
    cfg = validate_config(scenario.system)
    params = _resolved_sim(scenario, args.seed)
    report = _base_report(cfg)
    report["sim"] = simparams_to_dict(params)
    if params.service_model == "trace_driven":
        if params.holding is None:
            raise ConfigError("trace-driven run needs sim.holding distributions")
        trace = _build_trace(scenario, params)
        # Holding-time streams get their own seed lane, disjoint from the
        # trace lane above.
        holding_params = replace(params, seed=splitmix64_stream(params.seed, 1))
        stats = run_trace_driven(cfg, trace, params.holding, holding_params)
        report["mode"] = "trace_driven"
        report["trace_events"] = len(trace)
    else:
        stats = run_simulation(cfg, params)
        report["mode"] = "markovian"
    report.update(_stats_payload(cfg, stats))
    _dump_report(report, args.out)
    return EXIT_OK


def _sweep_settings(args, scenario: Scenario) -> SweepSettings:
    file_sweep = scenario.sweep
    swept = None if args.swept_class is None else args.swept_class - 1
    if swept is None:
        if file_sweep is None:
            raise ConfigError("no sweep class given (use --class or a sweep section)")
        swept = file_sweep.swept_class
    if args.lambda_from is not None or args.lambda_to is not None or args.steps:
        if args.lambda_from is None or args.lambda_to is None or not args.steps:
            raise ConfigError(
                "grid flags must be given together: --lambda-from, --lambda-to, --steps"
            )
        grid = tuple(np.linspace(args.lambda_from, args.lambda_to, args.steps).tolist())
    elif file_sweep is not None:
        grid = file_sweep.grid
    else:
        raise ConfigError("no sweep grid given (use grid flags or a sweep section)")
    if args.modes:
        modes = tuple(m.strip() for m in args.modes.split(",") if m.strip())
    elif file_sweep is not None:
        modes = file_sweep.modes
    else:
        modes = ("ctmc",)
    return SweepSettings(swept_class=swept, grid=grid, modes=modes)


def _sweep_csv(result) -> str:
    lines = ["lambda,class,mode,blocking,ci_low,ci_high"]
    for row in result.rows:
        lo = "" if row.ci_low is None else _fmt(row.ci_low)
        hi = "" if row.ci_high is None else _fmt(row.ci_high)
        blocking = "" if math.isnan(row.blocking) else _fmt(row.blocking)
        lines.append(
            f"{_fmt(row.lam)},{row.class_label},{row.mode},{blocking},{lo},{hi}"
        )
    return "\n".join(lines) + "\n"


def _sweep_svg(result, swept_class_one_based: int) -> str:
    """Line chart of blocking versus swept arrival rate, one polyline
    per (class, mode) series."""
    width, height = 640, 440
    left, right, top, bottom = 70.0, 20.0, 20.0, 56.0
    plot_w = width - left - right
    plot_h = height - top - bottom
    series: dict[tuple[str, str], list[tuple[float, float]]] = {}
    for row in result.rows:
        if math.isnan(row.blocking):
            continue
        series.setdefault((row.class_label, row.mode), []).append(
            (row.lam, row.blocking)
        )
    xs = [row.lam for row in result.rows]
    x_min, x_max = min(xs), max(xs)
    if x_max == x_min:
        x_max = x_min + 1.0
    y_max = max((v for pts in series.values() for _, v in pts), default=1.0)
    y_max = max(y_max, 1e-9) * 1.05
    y_min = 0.0

    def sx(x: float) -> float:
        return left + (x - x_min) / (x_max - x_min) * plot_w

    def sy(y: float) -> float:
        return top + plot_h - (y - y_min) / (y_max - y_min) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333333" stroke-width="1"/>',
    ]
    for k in range(5):
        frac = k / 4
        x_val = x_min + frac * (x_max - x_min)
        y_val = y_min + frac * (y_max - y_min)
        x_pix = sx(x_val)
        y_pix = sy(y_val)
        parts.append(
            f'<line x1="{x_pix:.2f}" y1="{top + plot_h:.2f}" x2="{x_pix:.2f}" '
            f'y2="{top + plot_h + 5:.2f}" stroke="#333333"/>'
        )
        parts.append(
            f'<text x="{x_pix:.2f}" y="{top + plot_h + 18:.2f}" font-size="11" '
            f'text-anchor="middle" font-family="sans-serif">{format(x_val, ".3g")}</text>'
        )
        parts.append(
            f'<line x1="{left - 5:.2f}" y1="{y_pix:.2f}" x2="{left:.2f}" '
            f'y2="{y_pix:.2f}" stroke="#333333"/>'
        )
        parts.append(
            f'<text x="{left - 8:.2f}" y="{y_pix + 4:.2f}" font-size="11" '
            f'text-anchor="end" font-family="sans-serif">{format(y_val, ".3g")}</text>'
        )
    parts.append(
        f'<text x="{left + plot_w / 2:.2f}" y="{height - 14}" font-size="13" '
        f'text-anchor="middle" font-family="sans-serif">lambda(class '
        f"{swept_class_one_based})</text>"
    )
    parts.append(
        f'<text x="18" y="{top + plot_h / 2:.2f}" font-size="13" text-anchor="middle" '
        f'font-family="sans-serif" transform="rotate(-90 18 {top + plot_h / 2:.2f})">'
        "blocking probability</text>"
    )
    for idx, ((label, mode), pts) in enumerate(sorted(series.items())):
        color = _SERIES_COLORS[idx % len(_SERIES_COLORS)]
        points = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in sorted(pts))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{points}"/>'
        )
        legend_y = top + 14 + 14 * idx
        parts.append(
            f'<line x1="{left + plot_w - 150:.2f}" y1="{legend_y - 4:.2f}" '
            f'x2="{left + plot_w - 130:.2f}" y2="{legend_y - 4:.2f}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{left + plot_w - 125:.2f}" y="{legend_y:.2f}" font-size="11" '
            f'font-family="sans-serif">class {label} ({mode})</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_sweep(args) -> int:
    scenario = load_scenario(args.config)
    cfg = validate_config(scenario.system)
    settings = _sweep_settings(args, scenario)
    sim_params = scenario.sim
    if args.seed is not None and sim_params is not None:
        sim_params = _resolved_sim(scenario, args.seed)
    spec = SweepSpec(
        base_config=cfg,
        swept_class=settings.swept_class,
        grid=settings.grid,
        modes=settings.modes,
        sim_params=sim_params,
    )
    result = run_sweep(spec)
    _emit(_sweep_csv(result), args.out)
    if args.plot is not None:
        _emit(_sweep_svg(result, settings.swept_class + 1), args.plot)
    return EXIT_OK


def cmd_compare(args) -> int:
    scenario = load_scenario(args.config)
    cfg = validate_config(scenario.system)
    if scenario.sim is None:
        raise ConfigError("compare needs a sim section in the scenario")
    params = _resolved_sim(scenario, args.seed)
    report_obj = compare_analytic_sim(cfg, params)
    agreement = False
    if not report_obj.degenerate:
        within_tol = report_obj.max_deviation <= args.tolerance
        all_covered = all(c.covered for c in report_obj.per_class)
        agreement = bool(within_tol or all_covered)
    report = _base_report(cfg)
    report.update(
        {
            "sim": simparams_to_dict(params),
            "tolerance": args.tolerance,
            "per_class": [
                {
                    "name": c.name,
                    "analytic": c.analytic,
                    "simulated": c.simulated,
                    "ci_half_width": c.half_width,
                    "deviation": c.deviation,
                    "covered": c.covered,
                }
                for c in report_obj.per_class
            ],
            "max_deviation": report_obj.max_deviation,
            "coverage_fraction": report_obj.coverage_fraction,
            "degenerate": report_obj.degenerate,
            "agreement": agreement,
        }
    )
    _dump_report(report, args.out)
    return EXIT_OK if agreement else EXIT_COMPARISON


def cmd_trace(args) -> int:
    scenario = load_scenario(args.config)
    validate_config(scenario.system)
    if scenario.traffic is None:
        raise ConfigError("trace needs a traffic section in the scenario")
    horizon = args.horizon
    if horizon is None:
        if scenario.sim is None:
            raise ConfigError("no horizon given (use --horizon or a sim section)")
        horizon = scenario.sim.horizon
    seed = args.seed
    if seed is None:
        seed = scenario.sim.seed if scenario.sim is not None else 0
    rng = np.random.Generator(np.random.PCG64(splitmix64_stream(seed, 0)))
    trace = compose_traffic(scenario.traffic, horizon, rng)
    lines = ["time,class"]
    for t, c in zip(trace.times.tolist(), trace.classes.tolist()):
        lines.append(f"{format(t, '.9g')},{c + 1}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="caclab",
        description="Blocking-probability analysis for threshold call admission "
        "control over pooled channels.",
    )
    parser.add_argument("--version", action="version", version=f"caclab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a scenario file and echo it normalized")
    p.add_argument("--config", required=True)
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("solve", help="analytic blocking probabilities")
    p.add_argument("--config", required=True)
    p.add_argument("--mode", required=True, help="ctmc|literal1d|recurrence|kr|erlangb")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_solve)

    p = sub.add_parser("simulate", help="discrete-event simulation")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("sweep", help="arrival-rate sweep (CSV, optional SVG plot)")
    p.add_argument("--config", required=True)
    p.add_argument("--class", dest="swept_class", type=int, default=None,
                   help="1-based class index to sweep")
    p.add_argument("--lambda-from", type=float, default=None)
    p.add_argument("--lambda-to", type=float, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--modes", default=None, help="comma-separated subset of "
                   "ctmc,literal1d,recurrence,sim")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--plot", default=None)
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("compare", help="analytic vs simulation agreement check")
    p.add_argument("--config", required=True)
    p.add_argument("--tolerance", type=float, default=0.02)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_compare)

    p = sub.add_parser("trace", help="generate an arrival trace CSV from the "
                       "traffic mixture")
    p.add_argument("--config", required=True)
    p.add_argument("--horizon", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_trace)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ModePreconditionError, StateSpaceLimitError, ConvergenceError,
            DegenerateChainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODE
    except ConfigError as exc:
        for line in exc.violations:
            print(f"error: {line}", file=sys.stderr)
        return EXIT_CONFIG
    except _OutputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except FileNotFoundError as exc:
        print(f"error: cannot read scenario: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
