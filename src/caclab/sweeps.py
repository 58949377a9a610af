"""Arrival-rate sweeps and analytic-versus-simulation comparisons.

The stock scenario used throughout the demos and tests is a 20-channel
pool with voice/web/file classes of bandwidths (1, 2, 3) and admission
thresholds (1, 3, 5); it is small enough for exact chain solves while
still showing the threshold separation between classes.
"""

from dataclasses import dataclass, replace

import numpy as np

from .analytic import solve, solve_batch
from .errors import CaclabError, ConfigError
from .model import SystemConfig, TrafficClassSpec, validate_config
from .simulate import SimParams, SimStats, run_simulation, splitmix64_stream

SWEEP_MODES = ("ctmc", "literal1d", "recurrence", "sim")

DEFAULT_GRID = tuple(np.round(np.arange(0.2, 4.01, 0.2), 10).tolist())


def default_scenario() -> SystemConfig:
    """The stock three-class scenario (implementer-chosen numbers)."""
    return SystemConfig(
        capacity=20,
        classes=(
            TrafficClassSpec("voice", 1.0, 1.0, bandwidth=1, admission_threshold=1),
            TrafficClassSpec("web", 1.0, 1.0, bandwidth=2, admission_threshold=3),
            TrafficClassSpec("file", 1.0, 1.0, bandwidth=3, admission_threshold=5),
        ),
        rat_labels=("WLAN", "WiMAX", "UMTS"),
    )


@dataclass(frozen=True)
class SweepSpec:
    """A sweep over one class's arrival rate.

    ``swept_class`` is 0-based; ``grid`` must be strictly increasing.
    ``sim_params`` is required when "sim" is among the modes.
    """

    base_config: SystemConfig
    swept_class: int
    grid: tuple[float, ...]
    modes: tuple[str, ...]
    sim_params: SimParams | None = None

    def __post_init__(self):
        object.__setattr__(self, "grid", tuple(float(g) for g in self.grid))
        object.__setattr__(self, "modes", tuple(self.modes))
        violations = []
        if not self.grid:
            violations.append("sweep grid is empty")
        if any(a >= b for a, b in zip(self.grid, self.grid[1:])):
            violations.append("sweep grid must be strictly increasing")
        if any(g < 0 for g in self.grid):
            violations.append("sweep grid values must be >= 0")
        if not self.modes:
            violations.append("sweep needs at least one mode")
        unknown = [m for m in self.modes if m not in SWEEP_MODES]
        if unknown:
            violations.append(f"unknown sweep mode(s) {unknown}; expected {SWEEP_MODES}")
        if "sim" in self.modes and self.sim_params is None:
            violations.append("sim mode requested but no simulation parameters given")
        if not 0 <= self.swept_class < self.base_config.num_classes:
            violations.append(
                f"swept class index {self.swept_class} out of range"
            )
        if violations:
            raise ConfigError(violations)


@dataclass(frozen=True)
class SweepRow:
    """One (grid point, class, mode) result. ``class_label`` is the
    1-based class index as text, or "overall". CI bounds are None for
    analytic rows."""

    lam: float
    class_label: str
    mode: str
    blocking: float
    ci_low: float | None = None
    ci_high: float | None = None


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    rows: tuple[SweepRow, ...]

    def series(self, class_label: str, mode: str) -> np.ndarray:
        """Blocking values along the grid for one (class, mode) pair."""
        vals = [r.blocking for r in self.rows if r.class_label == class_label and r.mode == mode]
        return np.array(vals)


def _sim_rows(lam: float, stats: SimStats, num_classes: int) -> list[SweepRow]:
    rows = []
    for k in range(num_classes):
        est = float(stats.blocking[k])
        hw = float(stats.half_width[k]) if stats.half_width is not None else np.nan
        lo = est - hw if np.isfinite(hw) else None
        hi = est + hw if np.isfinite(hw) else None
        rows.append(SweepRow(lam, str(k + 1), "sim", est, lo, hi))
    est = stats.overall_blocking
    hw = stats.overall_half_width
    lo = est - hw if hw is not None and np.isfinite(hw) else None
    hi = est + hw if hw is not None and np.isfinite(hw) else None
    rows.append(SweepRow(lam, "overall", "sim", est, lo, hi))
    return rows


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate every requested mode at every grid point.

    Rows come out ordered by (grid value, class, mode); each grid point
    contributes one row per class plus an "overall" row per mode. Sim
    rows carry 95% CI bounds; each grid point's simulation seed is
    derived from the master seed so the sweep is reproducible as a
    whole.

    The analytic modes run mode by mode over the whole grid, through
    :func:`solve_batch`: the ctmc state space is enumerated once, one
    support search serves every point with the same pattern of zero
    arrival rates, and the chains are eliminated together. Simulations
    run point by point. When a mode fails anywhere on the grid, its
    points are solved again one by one as the rows are emitted, so the
    sweep raises the error of the first failing (point, mode) pair,
    taking points in grid order and modes in sorted order.
    """
    validate_config(spec.base_config)
    num_classes = spec.base_config.num_classes
    modes = sorted(spec.modes)
    configs = [
        spec.base_config.with_arrival_rate(spec.swept_class, lam) for lam in spec.grid
    ]
    batches: dict[str, list] = {}
    for mode in modes:
        if mode != "sim":
            try:
                batches[mode] = solve_batch(configs, mode)
            except CaclabError:
                pass
    rows: list[SweepRow] = []
    for g_idx, (lam, cfg) in enumerate(zip(spec.grid, configs)):
        point_rows: dict[str, list[SweepRow]] = {}
        for mode in modes:
            if mode == "sim":
                point_params = replace(
                    spec.sim_params,
                    seed=splitmix64_stream(spec.sim_params.seed, g_idx),
                )
                stats = run_simulation(cfg, point_params)
                for row in _sim_rows(lam, stats, num_classes):
                    point_rows.setdefault(row.class_label, []).append(row)
            else:
                batch = batches.get(mode)
                report = batch[g_idx] if batch is not None else solve(cfg, mode)
                for k in range(num_classes):
                    point_rows.setdefault(str(k + 1), []).append(
                        SweepRow(lam, str(k + 1), mode, float(report.per_class[k]))
                    )
                point_rows.setdefault("overall", []).append(
                    SweepRow(lam, "overall", mode, report.overall)
                )
        for label in [str(k + 1) for k in range(num_classes)] + ["overall"]:
            rows.extend(sorted(point_rows.get(label, []), key=lambda r: r.mode))
    return SweepResult(spec=spec, rows=tuple(rows))


@dataclass(frozen=True)
class ClassComparison:
    name: str
    analytic: float
    simulated: float
    half_width: float
    deviation: float
    covered: bool


@dataclass(frozen=True)
class ComparisonReport:
    """Analytic (ctmc) versus simulated blocking, class by class."""

    per_class: tuple[ClassComparison, ...]
    max_deviation: float
    coverage_fraction: float
    degenerate: bool


def compare_analytic_sim(cfg: SystemConfig, sim_params: SimParams) -> ComparisonReport:
    """Solve the chain, run the simulation, and score the agreement."""
    validate_config(cfg)
    analytic = solve(cfg, "ctmc")
    stats = run_simulation(cfg, sim_params)
    if stats.degenerate:
        comparisons = tuple(
            ClassComparison(c.name, float(analytic.per_class[i]), float("nan"),
                            float("nan"), float("nan"), False)
            for i, c in enumerate(cfg.classes)
        )
        return ComparisonReport(comparisons, float("nan"), 0.0, True)
    comparisons = []
    for i, cls in enumerate(cfg.classes):
        a = float(analytic.per_class[i])
        s = float(stats.blocking[i])
        hw = float(stats.half_width[i]) if stats.half_width is not None else float("nan")
        dev = abs(a - s)
        covered = bool(np.isfinite(hw) and s - hw <= a <= s + hw)
        comparisons.append(ClassComparison(cls.name, a, s, hw, dev, covered))
    max_dev = max(c.deviation for c in comparisons)
    coverage = sum(c.covered for c in comparisons) / len(comparisons)
    return ComparisonReport(tuple(comparisons), max_dev, coverage, False)
