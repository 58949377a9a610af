"""Arrival-rate sweeps and the analytic-versus-simulation harness."""

import numpy as np
import pytest

from caclab import (
    ConfigError,
    ConvergenceError,
    ModePreconditionError,
    SimParams,
    SweepSpec,
    SystemConfig,
    TrafficClassSpec,
    compare_analytic_sim,
    default_scenario,
    kaufman_roberts,
    run_sweep,
    solve,
)
from caclab import analytic
from caclab.sweeps import DEFAULT_GRID

from test_analytic import single_class


def small_grid_spec(modes=("ctmc",), grid=(0.5, 1.0, 2.0), sim_params=None):
    return SweepSpec(
        base_config=default_scenario(),
        swept_class=0,
        grid=grid,
        modes=modes,
        sim_params=sim_params,
    )


class TestSweepSpecValidation:
    def test_empty_grid(self):
        with pytest.raises(ConfigError, match="empty"):
            small_grid_spec(grid=())

    def test_non_increasing_grid(self):
        with pytest.raises(ConfigError, match="strictly increasing"):
            small_grid_spec(grid=(1.0, 1.0))

    def test_unknown_mode(self):
        with pytest.raises(ConfigError, match="unknown sweep mode"):
            small_grid_spec(modes=("erlang",))

    def test_sim_mode_needs_params(self):
        with pytest.raises(ConfigError, match="simulation parameters"):
            small_grid_spec(modes=("ctmc", "sim"))


class TestRunSweep:
    def test_row_count_and_order(self):
        result = run_sweep(small_grid_spec())
        # 3 grid points x (3 class rows + 1 overall row).
        assert len(result.rows) == 12
        keys = [(r.lam, r.class_label, r.mode) for r in result.rows]
        labels_order = {"1": 0, "2": 1, "3": 2, "overall": 3}
        sort_key = [(lam, labels_order[c], m) for lam, c, m in keys]
        assert sort_key == sorted(sort_key)

    def test_analytic_rows_have_no_ci(self):
        result = run_sweep(small_grid_spec())
        assert all(r.ci_low is None and r.ci_high is None for r in result.rows)

    def test_blocking_non_decreasing_along_grid(self):
        result = run_sweep(small_grid_spec(grid=tuple(np.arange(0.2, 4.01, 0.2))))
        for label in ("1", "2", "3", "overall"):
            series = result.series(label, "ctmc")
            assert np.all(np.diff(series) >= -1e-12), label

    def test_zero_rate_first_point_blocks_least(self):
        result = run_sweep(small_grid_spec(grid=(0.0, 2.0)))
        series = result.series("1", "ctmc")
        assert series[0] < series[1]

    def test_sim_rows_carry_cis(self):
        spec = small_grid_spec(
            modes=("ctmc", "sim"),
            grid=(1.0, 2.0),
            sim_params=SimParams(horizon=3000.0, replications=3, seed=5),
        )
        result = run_sweep(spec)
        sim_rows = [r for r in result.rows if r.mode == "sim"]
        assert len(sim_rows) == 8
        assert all(r.ci_low is not None and r.ci_high is not None for r in sim_rows)

    def test_deterministic(self):
        spec = small_grid_spec(
            modes=("sim",),
            grid=(1.0, 2.0),
            sim_params=SimParams(horizon=2000.0, replications=2, seed=9),
        )
        a = run_sweep(spec)
        b = run_sweep(spec)
        assert a.rows == b.rows

    def test_mode_consistency_with_kaufman_roberts(self):
        # Under complete sharing every ctmc grid point must match the
        # occupancy recursion.
        classes = tuple(
            TrafficClassSpec(f"t{i}", 1.0, 1.0, b, b) for i, b in enumerate((1, 2, 3))
        )
        cfg = SystemConfig(12, classes)
        spec = SweepSpec(cfg, swept_class=0, grid=(0.5, 1.5, 3.0), modes=("ctmc",))
        result = run_sweep(spec)
        for lam in spec.grid:
            loads = [(lam, 1), (1.0, 2), (1.0, 3)]
            _, expected = kaufman_roberts(12, loads)
            for k in range(3):
                rows = [
                    r
                    for r in result.rows
                    if r.lam == lam and r.class_label == str(k + 1)
                ]
                assert rows[0].blocking == pytest.approx(expected[k], abs=1e-9)


def bits(x):
    return np.float64(x).tobytes()


class TestSweepMatchesSolve:
    """Every batched analytic row equals a one-point solve bit for bit."""

    def assert_rows_match_solve(self, spec):
        result = run_sweep(spec)
        for row in result.rows:
            cfg = spec.base_config.with_arrival_rate(spec.swept_class, row.lam)
            report = solve(cfg, row.mode)
            expected = (
                report.overall if row.class_label == "overall"
                else report.per_class[int(row.class_label) - 1]
            )
            assert bits(row.blocking) == bits(expected), row
        return result

    @pytest.mark.parametrize("swept", [0, 1, 2])
    def test_default_grid(self, swept):
        spec = SweepSpec(default_scenario(), swept, DEFAULT_GRID, ("ctmc", "literal1d"))
        result = self.assert_rows_match_solve(spec)
        assert len(result.rows) == len(DEFAULT_GRID) * 4 * 2

    def test_support_changes_mid_sweep(self):
        # At lambda 0 the swept class's states drop out of the support,
        # so the sweep solves two supports.
        grid = (0.0, 0.2, 1.0, 2.6, 4.0)
        spec = SweepSpec(default_scenario(), 1, grid, ("ctmc", "literal1d"))
        self.assert_rows_match_solve(spec)

    def test_power_sweep_path(self, monkeypatch):
        monkeypatch.setattr(analytic, "DENSE_CEILING", 2)
        spec = SweepSpec(default_scenario(), 0, (0.0, 0.5, 1.5), ("ctmc", "literal1d"))
        self.assert_rows_match_solve(spec)

    @pytest.mark.parametrize("grid, error, match", [
        # Both modes overflow only at the second point, where literal1d
        # sorts first.
        ((1.0, 1000.0), ConvergenceError, "residual nan"),
        # The recurrence already overflows at the first point, before
        # literal1d's failure at the second.
        ((20.0, 1000.0), ModePreconditionError, "recurrence overflows"),
    ])
    def test_first_failing_point_and_mode_raises(self, grid, error, match):
        classes = tuple(
            TrafficClassSpec(f"t{i + 1}", 1.0, 1.0, i + 1, i + 1) for i in range(3)
        )
        spec = SweepSpec(SystemConfig(400, classes), 0, grid, ("recurrence", "literal1d"))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(error, match=match):
            run_sweep(spec)


class TestCompareAnalyticSim:
    def test_default_scenario_agreement(self):
        report = compare_analytic_sim(
            default_scenario(),
            SimParams(horizon=50_000.0, replications=10, seed=20260811),
        )
        assert not report.degenerate
        assert report.max_deviation <= 0.02
        assert report.coverage_fraction >= 2 / 3

    def test_exact_single_class_analytic_column(self):
        report = compare_analytic_sim(
            single_class(2, 1.0), SimParams(horizon=2000.0, replications=2, seed=3)
        )
        assert report.per_class[0].analytic == pytest.approx(0.2, abs=1e-12)

    def test_degenerate_when_no_arrivals(self):
        cfg = SystemConfig(4, (TrafficClassSpec("idle", 0.0, 1.0, 1, 1),))
        report = compare_analytic_sim(
            cfg, SimParams(horizon=500.0, replications=2, seed=4)
        )
        assert report.degenerate
        assert report.coverage_fraction == 0.0

    def test_deviation_definition(self):
        report = compare_analytic_sim(
            single_class(3, 1.5), SimParams(horizon=5000.0, replications=4, seed=6)
        )
        c = report.per_class[0]
        assert c.deviation == pytest.approx(abs(c.analytic - c.simulated), abs=1e-15)
        in_ci = c.simulated - c.half_width <= c.analytic <= c.simulated + c.half_width
        assert c.covered == in_ci
