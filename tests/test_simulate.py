"""Discrete-event simulator: determinism, conservation, and agreement
with the analytic chain."""

import hashlib

import numpy as np
import pytest

from caclab import (
    ArrivalTrace,
    ConfigError,
    Constant,
    Exponential,
    MixtureComponent,
    RateFunction,
    SimParams,
    SystemConfig,
    TrafficClassSpec,
    TrafficMixtureSpec,
    compose_traffic,
    default_scenario,
    run_replication,
    run_simulation,
    run_trace_driven,
    solve,
    splitmix64_stream,
)
from caclab.model import enumerate_states
from caclab.analytic import build_generator, steady_state

from test_analytic import single_class


class TestSeedDerivation:
    def test_reference_vectors(self):
        # First outputs of the standard splitmix64 stream seeded with 0.
        assert splitmix64_stream(0, 0) == 0xE220A8397B1DCDAF
        assert splitmix64_stream(0, 1) == 0x6E789E6AA1B965F4

    def test_distinct_replications_get_distinct_seeds(self):
        seeds = {splitmix64_stream(99, r) for r in range(100)}
        assert len(seeds) == 100


class TestSimParams:
    def test_warmup_defaults_to_tenth(self):
        assert SimParams(horizon=1000.0).effective_warmup == 100.0

    def test_invalid_params(self):
        with pytest.raises(ConfigError):
            SimParams(horizon=0.0)
        with pytest.raises(ConfigError):
            SimParams(horizon=10.0, warmup=10.0)
        with pytest.raises(ConfigError):
            SimParams(horizon=10.0, replications=0)
        with pytest.raises(ConfigError):
            SimParams(horizon=10.0, service_model="queueing")


class TestMarkovianReplication:
    def test_same_seed_same_statistics(self):
        cfg = default_scenario()
        params = SimParams(horizon=5000.0, replications=1, seed=31)
        a = run_replication(cfg, params, 0)
        b = run_replication(cfg, params, 0)
        np.testing.assert_array_equal(a.offered, b.offered)
        np.testing.assert_array_equal(a.blocked, b.blocked)
        np.testing.assert_array_equal(a.occupancy_time, b.occupancy_time)

    def test_golden_replication(self):
        # Pinned bit for bit: any change to the draw order or to the
        # order of the kernel's float operations shows up here.
        cfg = default_scenario()
        params = SimParams(horizon=2000.0, replications=1, seed=8)
        rep = run_replication(cfg, params, 0)
        assert rep.offered.tolist() == [1826, 1733, 1806]
        assert rep.blocked.tolist() == [0, 7, 24]
        assert hashlib.sha256(rep.occupancy_time.tobytes()).hexdigest() == (
            "ecbc1ca0e04b5ee1337d9fcaade650db8049fdd1687ac40da0110a3e84faad6f"
        )

    def test_no_traffic(self):
        cfg = SystemConfig(
            4, (TrafficClassSpec("idle", 0.0, 1.0, 1, 1),)
        )
        stats = run_simulation(cfg, SimParams(horizon=100.0, replications=2, seed=1))
        assert stats.offered[0] == 0
        assert stats.blocked[0] == 0
        assert np.isnan(stats.blocking[0])
        assert stats.degenerate
        assert stats.occupancy_histogram[0] == pytest.approx(1.0)

    def test_huge_capacity_never_blocks(self):
        cfg = single_class(10_000, 1.0)
        stats = run_simulation(cfg, SimParams(horizon=10_000.0, replications=1, seed=2))
        assert stats.blocking[0] <= 1e-3

    def test_blocked_calls_are_counted_not_queued(self):
        cfg = single_class(1, 5.0)
        stats = run_simulation(cfg, SimParams(horizon=5000.0, replications=1, seed=3))
        # Erlang B(1, 5) = 5/6; a queued-retry model would block far less.
        assert stats.blocking[0] == pytest.approx(5 / 6, abs=0.02)
        assert stats.blocked[0] <= stats.offered[0]

    def test_erlang_ci_contains_analytic_value(self):
        cfg = single_class(2, 1.0)
        stats = run_simulation(
            cfg, SimParams(horizon=20_000.0, replications=10, seed=4)
        )
        lo = stats.blocking[0] - stats.half_width[0]
        hi = stats.blocking[0] + stats.half_width[0]
        assert lo <= 0.2 <= hi

    def test_single_replication_has_no_ci(self):
        cfg = single_class(2, 1.0)
        stats = run_simulation(cfg, SimParams(horizon=1000.0, replications=1, seed=5))
        assert not stats.ci_available
        assert stats.half_width is None
        assert stats.overall_half_width is None

    def test_histogram_sums_to_one(self):
        cfg = default_scenario()
        stats = run_simulation(cfg, SimParams(horizon=20_000.0, replications=3, seed=6))
        assert stats.occupancy_histogram.sum() == pytest.approx(1.0, abs=1e-9)
        assert stats.occupancy_histogram.size == cfg.capacity + 1

    def test_occupancy_histogram_matches_stationary_distribution(self):
        # PASTA check: the time-weighted occupancy histogram converges
        # to the chain's stationary occupancy distribution.
        cfg = default_scenario()
        stats = run_simulation(cfg, SimParams(horizon=1e6, replications=1, seed=7))
        space = enumerate_states(cfg)
        pi = steady_state(build_generator(cfg, space)).probabilities
        used = space.states @ cfg.bandwidths
        stationary = np.bincount(used, weights=pi, minlength=cfg.capacity + 1)
        tv = 0.5 * np.abs(stats.occupancy_histogram - stationary).sum()
        assert tv <= 0.02


class TestTraceDriven:
    def make_trace(self, times, classes, horizon):
        return ArrivalTrace(np.asarray(times, float), np.asarray(classes), horizon)

    def test_empty_trace(self):
        cfg = single_class(2, 1.0)
        stats = run_trace_driven(
            cfg,
            self.make_trace([], [], 100.0),
            (Exponential(1.0),),
            SimParams(horizon=100.0, warmup=0.0, seed=1),
        )
        assert stats.offered[0] == 0
        assert stats.degenerate

    def test_single_event_is_admitted(self):
        cfg = single_class(2, 1.0)
        stats = run_trace_driven(
            cfg,
            self.make_trace([5.0], [0], 100.0),
            (Exponential(1.0),),
            SimParams(horizon=100.0, warmup=0.0, seed=1),
        )
        assert stats.offered[0] == 1
        assert stats.blocked[0] == 0
        assert stats.blocking[0] == 0.0

    def test_class_out_of_range(self):
        cfg = single_class(2, 1.0)
        with pytest.raises(ValueError, match="out of range"):
            run_trace_driven(
                cfg,
                self.make_trace([1.0], [3], 50.0),
                (Exponential(1.0),),
                SimParams(horizon=50.0, warmup=0.0, seed=1),
            )

    def test_class_out_of_range_after_horizon(self):
        # Labels are checked once for the whole trace, before any replay.
        cfg = single_class(2, 1.0)
        with pytest.raises(ValueError, match="index -1 out of range for 1 classes"):
            run_trace_driven(
                cfg,
                self.make_trace([1.0, 60.0, 70.0], [0, 0, -1], 100.0),
                (Exponential(1.0),),
                SimParams(horizon=50.0, warmup=0.0, seed=1),
            )

    def test_departure_at_arrival_instant_frees_channel_first(self):
        cfg = single_class(1, 1.0)
        stats = run_trace_driven(
            cfg,
            self.make_trace([1.0, 2.0], [0, 0], 10.0),
            (Constant(1.0),),
            SimParams(horizon=10.0, warmup=0.0, seed=1),
        )
        assert stats.offered[0] == 2
        assert stats.blocked[0] == 0
        expected = np.array([10.0 - 2.0, 2.0]) / 10.0
        np.testing.assert_allclose(stats.occupancy_histogram, expected, rtol=1e-12)

    def test_holding_length_mismatch(self):
        cfg = single_class(2, 1.0)
        with pytest.raises(ValueError, match="per class"):
            run_trace_driven(
                cfg,
                self.make_trace([1.0], [0], 50.0),
                (Exponential(1.0), Exponential(1.0)),
                SimParams(horizon=50.0, warmup=0.0, seed=1),
            )

    def test_threshold_rule_enforced(self):
        # Two simultaneously-held wide calls cannot fit: second is lost.
        cfg = SystemConfig(3, (TrafficClassSpec("wide", 1.0, 1.0, 2, 2),))
        stats = run_trace_driven(
            cfg,
            self.make_trace([1.0, 1.5, 50.0], [0, 0, 0], 100.0),
            (Exponential(0.001),),
            SimParams(horizon=100.0, warmup=0.0, seed=1),
        )
        assert stats.offered[0] == 3
        assert stats.blocked[0] >= 1

    def test_matches_markovian_under_poisson_trace(self):
        # Poisson components at triple rate thinned by 1/3 reproduce the
        # markovian arrival law exactly, so both modes estimate the same
        # blocking probabilities.
        cfg = default_scenario().with_arrival_rate(0, 2.0)
        lam = cfg.arrival_rates
        horizon = 20_000.0
        mix = TrafficMixtureSpec(
            tuple(
                MixtureComponent(1 / 3, RateFunction.constant(3 * r)) for r in lam
            )
        )
        trace = compose_traffic(mix, horizon, np.random.default_rng(23))
        holding = tuple(Exponential(m) for m in cfg.service_rates)
        params = SimParams(horizon=horizon, replications=5, seed=11)
        trace_stats = run_trace_driven(cfg, trace, holding, params)
        markov_stats = run_simulation(cfg, params)
        for k in range(cfg.num_classes):
            gap = abs(trace_stats.blocking[k] - markov_stats.blocking[k])
            joint = trace_stats.half_width[k] + markov_stats.half_width[k]
            assert gap <= joint

    def test_golden_constant_holding_replay(self):
        # Constant holdings draw nothing, so this digest pins the replay
        # itself: simultaneous arrivals, departures at arrival instants,
        # the threshold rule, the warm-up and a horizon cut short of the
        # trace's. Recorded while holding times were still drawn one
        # admitted call at a time.
        cfg = SystemConfig(10, (
            TrafficClassSpec("a", 1.0, 1.0, 1, 1),
            TrafficClassSpec("b", 1.0, 1.0, 2, 3),
            TrafficClassSpec("c", 1.0, 1.0, 3, 5),
        ))
        gen = np.random.Generator(np.random.PCG64(5))
        times = np.sort(gen.integers(0, 400, size=600)) * 0.5
        trace = self.make_trace(times, gen.integers(0, 3, size=600), 200.0)
        holding = (Constant(1.5), Constant(2.5), Constant(4.0))
        params = SimParams(horizon=190.0, warmup=20.0, replications=2, seed=11,
                           service_model="trace_driven")
        stats = run_trace_driven(cfg, trace, holding, params)
        payload = b"".join(
            np.asarray(a).tobytes()
            for a in (stats.offered, stats.blocked, stats.blocking,
                      stats.half_width, stats.occupancy_histogram)
        )
        assert hashlib.sha256(payload).hexdigest() == (
            "ed760b042350a79b1d4f8d5e2c9ab48a39dc346474f21585ab48c2e8672159ef"
        )

    def test_deterministic(self):
        cfg = default_scenario()
        mix = TrafficMixtureSpec(
            tuple(MixtureComponent(1 / 3, RateFunction.constant(2.0)) for _ in range(3))
        )
        trace = compose_traffic(mix, 2000.0, np.random.default_rng(29))
        holding = tuple(Exponential(1.0) for _ in range(3))
        params = SimParams(horizon=2000.0, replications=2, seed=13)
        a = run_trace_driven(cfg, trace, holding, params)
        b = run_trace_driven(cfg, trace, holding, params)
        np.testing.assert_array_equal(a.blocking, b.blocking)
        np.testing.assert_array_equal(a.occupancy_histogram, b.occupancy_histogram)


class TestSimAnalyticAgreement:
    def test_three_class_blocking_within_cis(self):
        cfg = default_scenario().with_arrival_rate(0, 3.0)
        analytic = solve(cfg, "ctmc").per_class
        stats = run_simulation(
            cfg, SimParams(horizon=50_000.0, replications=10, seed=20260811)
        )
        for k in range(3):
            lo = stats.blocking[k] - stats.half_width[k]
            hi = stats.blocking[k] + stats.half_width[k]
            assert lo <= analytic[k] <= hi, f"class {k + 1}"
