"""Configuration, admission policy, and state enumeration."""

import numpy as np
import pytest

from caclab import (
    ConfigError,
    StateSpaceLimitError,
    SystemConfig,
    TrafficClassSpec,
    admissible,
    enumerate_states,
    free_channels,
    validate_config,
)
from caclab.model import count_states


def make_config(capacity, thresholds, bandwidths=None, lam=1.0, mu=1.0):
    bandwidths = bandwidths or [1] * len(thresholds)
    classes = tuple(
        TrafficClassSpec(f"class{i + 1}", lam, mu, b, a)
        for i, (a, b) in enumerate(zip(thresholds, bandwidths))
    )
    return SystemConfig(capacity=capacity, classes=classes)


def brute_force_count(capacity, bandwidths):
    """Nested-iteration count of feasible occupancy vectors."""
    count = 0
    grids = [range(capacity // b + 1) for b in bandwidths]

    def rec(depth, used):
        nonlocal count
        if depth == len(bandwidths):
            count += 1
            return
        for n in grids[depth]:
            if used + n * bandwidths[depth] <= capacity:
                rec(depth + 1, used + n * bandwidths[depth])

    rec(0, 0)
    return count


class TestValidateConfig:
    def test_valid_config_passes(self):
        cfg = make_config(10, [1, 2, 4])
        assert validate_config(cfg) is cfg

    def test_threshold_ordering_violation(self):
        with pytest.raises(ConfigError, match="not non-decreasing"):
            validate_config(make_config(10, [4, 2, 1]))

    def test_threshold_exceeds_capacity(self):
        with pytest.raises(ConfigError, match="exceeds capacity"):
            validate_config(make_config(3, [1, 2, 5]))

    def test_all_violations_reported(self):
        cfg = SystemConfig(
            capacity=3,
            classes=(
                TrafficClassSpec("a", -1.0, 0.0, 0, 5),
                TrafficClassSpec("b", 1.0, 1.0, 1, 1),
            ),
        )
        with pytest.raises(ConfigError) as err:
            validate_config(cfg)
        text = str(err.value)
        assert "arrival_rate" in text
        assert "service_rate" in text
        assert "bandwidth" in text
        assert "exceeds capacity" in text
        assert "not non-decreasing" in text

    def test_empty_class_list(self):
        with pytest.raises(ConfigError, match="empty"):
            validate_config(SystemConfig(capacity=5, classes=()))

    def test_threshold_below_bandwidth(self):
        cfg = SystemConfig(5, (TrafficClassSpec("a", 1.0, 1.0, 3, 2),))
        with pytest.raises(ConfigError, match="below"):
            validate_config(cfg)


class TestAdmissible:
    def setup_method(self):
        self.cfg = make_config(10, [1, 2, 4])

    def test_one_free_channel_admits_top_class_only(self):
        state = (9, 0, 0)
        assert admissible(state, 0, self.cfg) is True
        assert admissible(state, 1, self.cfg) is False
        assert admissible(state, 2, self.cfg) is False

    def test_four_free_channels_admit_everything(self):
        state = (6, 0, 0)
        assert all(admissible(state, i, self.cfg) for i in range(3))

    def test_full_system_admits_nothing(self):
        state = (10, 0, 0)
        assert not any(admissible(state, i, self.cfg) for i in range(3))

    def test_boundary_equality_admits(self):
        # free == threshold admits.
        cfg = make_config(10, [2, 2, 4])
        assert admissible((8, 0, 0), 0, cfg) is True

    def test_invalid_class_index(self):
        with pytest.raises(IndexError):
            admissible((0, 0, 0), 3, self.cfg)

    def test_monotone_admissibility(self):
        # Adding calls never turns an inadmissible class admissible.
        rng = np.random.default_rng(7)
        cfg = make_config(12, [2, 3, 5], bandwidths=[1, 2, 3])
        for _ in range(200):
            base = rng.integers(0, 5, size=3)
            if free_channels(base, cfg) < 0:
                continue
            bigger = base + rng.integers(0, 3, size=3)
            if free_channels(bigger, cfg) < 0:
                continue
            for i in range(3):
                if not admissible(base, i, cfg):
                    assert not admissible(bigger, i, cfg)

    def test_priority_nesting(self):
        # Blocking class i implies blocking every lower-priority class.
        rng = np.random.default_rng(11)
        cfg = make_config(15, [1, 4, 6], bandwidths=[2, 1, 3])
        for _ in range(300):
            state = rng.integers(0, 8, size=3)
            if free_channels(state, cfg) < 0:
                continue
            flags = [admissible(state, i, cfg) for i in range(3)]
            for i in range(2):
                if not flags[i]:
                    assert not flags[i + 1]


class TestEnumerateStates:
    def test_capacity_one_three_classes(self):
        space = enumerate_states(make_config(1, [1, 1, 1]))
        assert len(space) == 4

    def test_capacity_two_three_classes(self):
        space = enumerate_states(make_config(2, [1, 1, 1]))
        assert len(space) == 10

    def test_unit_and_double_bandwidth(self):
        space = enumerate_states(make_config(2, [1, 2], bandwidths=[1, 2]))
        assert sorted(map(tuple, space.states.tolist())) == [
            (0, 0),
            (0, 1),
            (1, 0),
            (2, 0),
        ]
        assert len(space) == 4

    def test_lexicographic_order_and_bijection(self):
        space = enumerate_states(make_config(4, [1, 2, 3], bandwidths=[1, 1, 2]))
        listed = [tuple(s) for s in space.states.tolist()]
        assert listed == sorted(listed)
        assert listed[0] == (0, 0, 0)
        for i, s in enumerate(listed):
            assert space.index_of(s) == i

    def test_counts_match_brute_force_exhaustively(self):
        # The count is threshold-independent, so complete sharing covers
        # every bandwidth vector. Exhaustive for K <= 3; K = 4 sampled.
        from itertools import product

        def check(capacity, bandwidths):
            if max(bandwidths) > capacity:
                return
            thresholds = list(np.maximum.accumulate(bandwidths))
            cfg = make_config(capacity, thresholds, bandwidths=list(bandwidths))
            expected = brute_force_count(capacity, bandwidths)
            assert len(enumerate_states(cfg)) == expected
            assert count_states(cfg) == expected

        for capacity in range(1, 13):
            for k in (1, 2, 3):
                for bandwidths in product((1, 2, 3), repeat=k):
                    check(capacity, bandwidths)
        rng = np.random.default_rng(3)
        for _ in range(30):
            capacity = int(rng.integers(1, 13))
            bandwidths = tuple(int(b) for b in rng.integers(1, 4, size=4))
            check(capacity, bandwidths)

    def test_no_infeasible_state(self):
        cfg = make_config(6, [1, 3], bandwidths=[1, 3])
        space = enumerate_states(cfg)
        assert np.all(space.states @ cfg.bandwidths <= cfg.capacity)

    def test_safety_limit(self):
        with pytest.raises(StateSpaceLimitError, match="1-D"):
            enumerate_states(make_config(40, [1, 1, 1, 1]), max_states=100)

    @pytest.mark.parametrize("capacity, states", [(20, 358), (40, 2_282)])
    def test_count_matches_enumeration(self, capacity, states):
        cfg = make_config(capacity, [1, 3, 5], bandwidths=[1, 2, 3])
        assert count_states(cfg) == len(enumerate_states(cfg)) == states

    def test_oversized_space_refused_by_its_count(self):
        cfg = make_config(500, [1, 3, 5], bandwidths=[1, 2, 3])
        with pytest.raises(StateSpaceLimitError, match="state count 3545598 exceeds"):
            enumerate_states(cfg)
