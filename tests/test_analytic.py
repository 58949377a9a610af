"""Generators, steady-state solvers, oracles, and mode dispatch."""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from caclab import (
    ConvergenceError,
    DegenerateChainError,
    ModePreconditionError,
    SystemConfig,
    TrafficClassSpec,
    admissible,
    blocking_probabilities,
    build_generator,
    build_literal_1d_generator,
    default_scenario,
    enumerate_states,
    erlang_b,
    kaufman_roberts,
    recurrence_blocking,
    solve,
    steady_state,
)
from caclab import analytic
from caclab.analytic import RateMatrix, SteadyStateDistribution, _gth_stationary

from test_model import make_config


def single_class(capacity, load, mu=1.0):
    return SystemConfig(
        capacity,
        (TrafficClassSpec("only", load * mu, mu, bandwidth=1, admission_threshold=1),),
    )


def dense_direct_solve(q_dense):
    """Independent oracle: replace one balance equation with the
    normalization constraint and solve the dense linear system."""
    m = q_dense.shape[0]
    a = q_dense.T.copy()
    a[-1, :] = 1.0
    b = np.zeros(m)
    b[-1] = 1.0
    return np.linalg.solve(a, b)


def reference_generator_entries(cfg, space):
    """Generator entries by the per-state dict loop: each state's class-i
    arrival then departure, in class order, then one diagonal per row
    summed left to right over the row's entries."""
    index = {tuple(row): i for i, row in enumerate(space.states.tolist())}
    lam, mu, thresholds = cfg.arrival_rates, cfg.service_rates, cfg.thresholds
    free = space.free_channels(cfg)
    entries = {}
    for s_idx, occ in enumerate(space.states.tolist()):
        for i in range(cfg.num_classes):
            if lam[i] > 0 and free[s_idx] >= thresholds[i]:
                up = list(occ)
                up[i] += 1
                entries[(s_idx, index[tuple(up)])] = float(lam[i])
            if occ[i] > 0:
                down = list(occ)
                down[i] -= 1
                entries[(s_idx, index[tuple(down)])] = float(occ[i] * mu[i])
    return with_reference_diagonal(entries, len(space))


def reference_literal_1d_entries(cfg):
    """Literal 1-D generator entries by the per-level dict loop: each
    class's arrival then departure, in class order; classes with equal
    bandwidths add into the cell where the first of them landed."""
    lam, mu = cfg.arrival_rates, cfg.service_rates
    bands, thresholds = cfg.bandwidths, cfg.thresholds
    capacity = cfg.capacity
    entries = {}
    for n in range(capacity + 1):
        for i in range(3):
            if lam[i] > 0 and capacity - n >= thresholds[i]:
                cell = (n, n + int(bands[i]))
                entries[cell] = entries.get(cell, 0.0) + float(lam[i])
            if n >= bands[i]:
                cell = (n, n - int(bands[i]))
                entries[cell] = entries.get(cell, 0.0) + float(mu[i])
    return with_reference_diagonal(entries, capacity + 1)


def with_reference_diagonal(entries, dimension):
    """Append one diagonal per row, summed left to right over the row's
    entries, in ascending row order."""
    row_sums = np.zeros(dimension)
    for (i, _), rate in entries.items():
        row_sums[i] += rate
    for i in range(dimension):
        if row_sums[i] > 0:
            entries[(i, i)] = -row_sums[i]
    return entries


def assert_same_entries(got, expected):
    """Same cells in the same order with the same float bits."""
    assert list(got) == list(expected)
    assert np.array(list(got.values())).tobytes() == (
        np.array(list(expected.values())).tobytes()
    )


@st.composite
def system_configs(draw, num_classes=st.integers(1, 4), capacities=st.integers(1, 8)):
    """Valid configs, by default with K = 1..4, with zero arrival rates
    and thresholds up to and including the capacity."""
    capacity = draw(capacities)
    classes = []
    threshold = 1
    for i in range(draw(num_classes)):
        bandwidth = draw(st.integers(1, capacity))
        low = max(threshold, bandwidth)
        threshold = draw(st.one_of(st.just(capacity), st.integers(low, capacity)))
        arrival = draw(st.one_of(st.just(0.0), st.floats(0.01, 10.0)))
        service = draw(st.floats(0.01, 10.0))
        classes.append(TrafficClassSpec(f"c{i}", arrival, service, bandwidth, threshold))
    return SystemConfig(capacity, tuple(classes))


class TestBuildGenerator:
    def test_smallest_chain(self):
        cfg = single_class(1, 0.7)
        space = enumerate_states(cfg)
        q = build_generator(cfg, space).to_dense()
        np.testing.assert_allclose(q, [[-0.7, 0.7], [1.0, -1.0]])

    def test_row_sums_vanish(self):
        cfg = make_config(8, [1, 3, 5], bandwidths=[1, 2, 3], lam=2.0)
        q = build_generator(cfg, enumerate_states(cfg))
        assert np.abs(q.row_sums()).max() <= 1e-12

    def test_transitions_match_admissibility_scan(self):
        # Brute force: every arrival edge must correspond to an
        # admissible (state, class) pair, and no admissible pair may
        # lack its edge.
        cfg = make_config(2, [1, 2], bandwidths=[1, 2])
        space = enumerate_states(cfg)
        q = build_generator(cfg, space).to_dense()
        for idx, state in enumerate(space):
            for i in range(cfg.num_classes):
                target = list(state)
                target[i] += 1
                expected = admissible(state, i, cfg)
                if not expected:
                    continue
                j = space.index_of(target)
                assert q[idx, j] == cfg.classes[i].arrival_rate
        # (0, 1) has zero free channels, so no class-2 arrival edge.
        idx = space.index_of((0, 1))
        row = q[idx].copy()
        row[idx] = 0.0
        assert set(np.nonzero(row)[0]) == {space.index_of((0, 0))}

    def test_departure_rates_scale_with_occupancy(self):
        cfg = single_class(3, 1.0, mu=2.0)
        space = enumerate_states(cfg)
        q = build_generator(cfg, space).to_dense()
        for n in range(1, 4):
            assert q[space.index_of((n,)), space.index_of((n - 1,))] == 2.0 * n

    @settings(max_examples=80, deadline=None)
    @given(system_configs())
    def test_matches_reference_dict_loop(self, cfg):
        space = enumerate_states(cfg)
        got = build_generator(cfg, space).entries
        assert_same_entries(got, reference_generator_entries(cfg, space))
        for i, state in enumerate(space):
            assert space.index_of(state) == i
        too_many = list(space.states[0])
        too_many[0] = cfg.capacity // cfg.classes[0].bandwidth + 1
        for infeasible in (too_many, [-1] + too_many[1:], too_many + [0]):
            with pytest.raises(KeyError, match="not feasible"):
                space.index_of(infeasible)


class TestLiteral1dGenerator:
    def make_cfg(self, lam=(1.0, 1.0, 1.0), capacity=12):
        classes = tuple(
            TrafficClassSpec(f"t{i + 1}", lam[i], 1.0, i + 1, 2 * i + 1)
            for i in range(3)
        )
        return SystemConfig(capacity, classes)

    def test_requires_three_classes(self):
        with pytest.raises(ModePreconditionError, match="3 classes"):
            build_literal_1d_generator(single_class(5, 1.0))

    def test_repeated_state_structure(self):
        # Interior column n receives inflow from exactly {n-1, n-2, n-3}
        # via arrival rates and {n+1, n+2, n+3} via departure rates.
        cfg = self.make_cfg(lam=(0.4, 0.5, 0.6))
        q = build_literal_1d_generator(cfg).to_dense()
        n = 6
        inflow = {m: q[m, n] for m in range(q.shape[0]) if m != n and q[m, n] != 0}
        assert inflow == {
            n - 1: 0.4,
            n - 2: 0.5,
            n - 3: 0.6,
            n + 1: 1.0,
            n + 2: 1.0,
            n + 3: 1.0,
        }

    def test_row_sums_vanish(self):
        q = build_literal_1d_generator(self.make_cfg())
        assert np.abs(q.row_sums()).max() <= 1e-12

    def test_no_arrivals_concentrates_on_empty(self):
        cfg = self.make_cfg(lam=(0.0, 0.0, 0.0), capacity=6)
        pi = steady_state(build_literal_1d_generator(cfg))
        expected = np.zeros(7)
        expected[0] = 1.0
        np.testing.assert_allclose(pi.probabilities, expected)

    def test_duplicate_bandwidths_accumulate(self):
        classes = tuple(
            TrafficClassSpec(f"t{i}", 1.0, 1.0, 1, 1) for i in range(3)
        )
        q = build_literal_1d_generator(SystemConfig(4, classes)).to_dense()
        assert q[0, 1] == 3.0  # three unit-bandwidth arrival streams add up
        assert q[1, 0] == 3.0

    @settings(max_examples=80, deadline=None)
    @given(system_configs(num_classes=st.just(3), capacities=st.integers(1, 12)))
    def test_matches_reference_dict_loop(self, cfg):
        got = build_literal_1d_generator(cfg).entries
        assert_same_entries(got, reference_literal_1d_entries(cfg))


class TestRateMatrix:
    def test_diagonal_appended_after_entries(self):
        q = RateMatrix(3, [2, 0, 1, 0], [0, 1, 2, 2], [0.5, 1.0, 2.0, 3.0])
        assert list(q.entries.items()) == [
            ((2, 0), 0.5), ((0, 1), 1.0), ((1, 2), 2.0), ((0, 2), 3.0),
            ((0, 0), -4.0), ((1, 1), -2.0), ((2, 2), -0.5),
        ]
        np.testing.assert_array_equal(q.row_sums(), [0.0, 0.0, 0.0])
        assert (q.to_csr().toarray() == q.to_dense()).all()

    def test_repeated_cells_add_in_listing_order(self):
        # (0.1 + 0.2) + 0.3 and 0.1 + (0.2 + 0.3) differ in the last bit.
        q = RateMatrix(3, [0, 0, 0, 0, 1], [1, 2, 1, 1, 0], [0.1, 5.0, 0.2, 0.3, 1.0])
        assert list(q.entries) == [(0, 1), (0, 2), (1, 0), (0, 0), (1, 1)]
        assert q.entries[(0, 1)] == (0.1 + 0.2) + 0.3
        assert q.entries[(0, 1)] != 0.1 + (0.2 + 0.3)
        assert q.entries[(0, 0)] == -(((0.1 + 0.2) + 0.3) + 5.0)

    def test_zero_rates_dropped(self):
        q = RateMatrix(3, [0, 1, 2], [1, 0, 0], [0.0, 2.0, 0.0])
        assert dict(q.entries) == {(1, 0): 2.0, (1, 1): -2.0}

    @pytest.mark.parametrize(
        "rows, cols, rates, match",
        [
            ([0, 1], [1, 1], [1.0, 1.0], "diagonal"),
            ([0, 3], [1, 0], [1.0, 1.0], r"\(3, 0\) outside dimension 3"),
            ([0, 1], [1, -1], [1.0, 1.0], r"\(1, -1\) outside"),
            ([0, 1], [1, 0], [1.0, -0.5], r"negative rate -0.5 at \(1, 0\)"),
            ([0, 1], [1], [1.0, 1.0], "one length"),
        ],
    )
    def test_invalid_entries_rejected(self, rows, cols, rates, match):
        with pytest.raises(ValueError, match=match):
            RateMatrix(3, rows, cols, rates)

    def test_read_only(self):
        q = RateMatrix(2, [0, 1], [1, 0], [1.0, 2.0])
        with pytest.raises(ValueError):
            q.rates[0] = 5.0
        with pytest.raises(TypeError):
            q.entries[(0, 1)] = 5.0
        assert q.entries is q.entries


class TestSteadyState:
    def test_two_state_symmetric(self):
        q = RateMatrix(2, [0, 1], [1, 0], [1.0, 1.0])
        np.testing.assert_allclose(steady_state(q).probabilities, [0.5, 0.5])

    def test_mm11(self):
        # Unnormalized (1, a) with a = 0.5 by hand.
        cfg = single_class(1, 0.5)
        pi = steady_state(build_generator(cfg, enumerate_states(cfg)))
        np.testing.assert_allclose(pi.probabilities, [2 / 3, 1 / 3], atol=1e-14)

    def test_mm22(self):
        # Unnormalized (1, a, a^2/2) with a = 1 by hand.
        cfg = single_class(2, 1.0)
        pi = steady_state(build_generator(cfg, enumerate_states(cfg)))
        np.testing.assert_allclose(pi.probabilities, [0.4, 0.4, 0.2], atol=1e-14)

    def test_residual_within_tolerance(self):
        cfg = make_config(15, [1, 3, 6], bandwidths=[1, 2, 3], lam=3.0)
        space = enumerate_states(cfg)
        q = build_generator(cfg, space)
        pi = steady_state(q)
        assert pi.residual <= 1e-9
        assert abs(pi.probabilities.sum() - 1.0) <= 1e-10

    def test_all_zero_generator_flagged(self):
        q = RateMatrix(3, [], [], [])
        with pytest.raises(DegenerateChainError, match="all-zero"):
            steady_state(q)

    def test_unreachable_states_get_zero_mass(self):
        cfg = single_class(3, 0.0)
        pi = steady_state(build_generator(cfg, enumerate_states(cfg)))
        np.testing.assert_allclose(pi.probabilities, [1.0, 0.0, 0.0, 0.0])

    def test_matches_dense_direct_solve(self):
        # Independent oracle for every config small enough to solve densely.
        rng = np.random.default_rng(5)
        for _ in range(10):
            capacity = int(rng.integers(2, 7))
            bandwidths = sorted(int(b) for b in rng.integers(1, 3, size=2))
            thresholds = []
            for b in bandwidths:
                prev = thresholds[-1] if thresholds else 1
                thresholds.append(min(capacity, max(prev, b)))
            cfg = make_config(
                capacity, thresholds, bandwidths=bandwidths,
                lam=float(rng.uniform(0.3, 3.0)),
            )
            space = enumerate_states(cfg)
            q = build_generator(cfg, space)
            expected = dense_direct_solve(q.to_dense())
            np.testing.assert_allclose(
                steady_state(q).probabilities, expected, atol=1e-10
            )

    def test_iterative_path_matches_gth(self, monkeypatch):
        cfg = make_config(10, [1, 2, 4], bandwidths=[1, 2, 3], lam=1.5)
        q = build_generator(cfg, enumerate_states(cfg))
        exact = steady_state(q)
        monkeypatch.setattr(analytic, "DENSE_CEILING", 2)
        swept = steady_state(q)
        np.testing.assert_allclose(
            swept.probabilities, exact.probabilities, atol=1e-10
        )
        assert swept.residual <= 1e-9

    def test_distribution_validates_sum(self):
        with pytest.raises(ValueError, match="sum"):
            SteadyStateDistribution(np.array([0.5, 0.4]))
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="sum to inf"):
            SteadyStateDistribution(np.array([1e308, 1e308]))

    @pytest.mark.parametrize(
        "probabilities, match",
        [
            ([np.nan, 1.0], "finite"),
            ([np.inf, 1.0], "finite"),
            ([-1e-13, 1.0 + 1e-13], "non-negative"),
        ],
    )
    def test_distribution_is_finite_and_non_negative(self, probabilities, match):
        with pytest.raises(ValueError, match=match):
            SteadyStateDistribution(np.array(probabilities))
        SteadyStateDistribution(np.array([-0.0, 1.0]))  # -0.0 is not negative

    def test_overflowed_solve_is_a_convergence_error(self):
        # GTH's back-substitution overflows on this 1-D chain, leaving a
        # NaN vector whose NaN residual must not pass the 1e-9 check.
        classes = tuple(
            TrafficClassSpec(f"t{i + 1}", 1000.0, 1.0, i + 1, i + 1) for i in range(3)
        )
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            ConvergenceError, match="residual nan"
        ):
            solve(SystemConfig(400, classes), "literal1d")


def full_block_gth(off_diag):
    """GTH with the rank-1 update over the whole leading block."""
    a = np.array(off_diag, dtype=float)
    m = a.shape[0]
    for k in range(m - 1, 0, -1):
        s = a[k, :k].sum()
        a[:k, k] /= s
        a[:k, :k] += np.outer(a[:k, k], a[k, :k])
    pi = np.zeros(m)
    pi[0] = 1.0
    for k in range(1, m):
        pi[k] = pi[:k] @ a[:k, k]
    return pi / pi.sum()


def banded_rates(rng, m, band):
    """Random irreducible off-diagonal rates with bandwidth ``band``: a
    birth-death backbone plus random entries inside the band."""
    a = np.zeros((m, m))
    idx = np.arange(m - 1)
    a[idx, idx + 1] = rng.uniform(0.1, 3.0, m - 1)
    a[idx + 1, idx] = rng.uniform(0.1, 3.0, m - 1)
    near = np.abs(np.subtract.outer(np.arange(m), np.arange(m))) <= band
    extra = near & (rng.random((m, m)) < 0.3)
    a[extra] = rng.uniform(0.1, 3.0, int(extra.sum()))
    np.fill_diagonal(a, 0.0)
    return a


def sha256_of(pi):
    return hashlib.sha256(pi.tobytes()).hexdigest()


class TestGth:
    # Stationary vectors of the stock chain, pinned bit for bit to what
    # elimination over the full dense block gives: any change to the
    # order of GTH's float operations shows up here.
    @pytest.mark.parametrize(
        "lam, digest",
        [
            (0.2, "8ab2b926f0ff021502d4de396b51b9f809a7498fcf5f1843bb9671c04465f7fc"),
            (4.0, "fad1d2800e4811e96d3616562c00542f45ce0b82a421a2921a6aea6213fcbb9f"),
        ],
    )
    def test_golden_stock_chain(self, lam, digest):
        cfg = default_scenario().with_arrival_rate(0, lam)
        space = enumerate_states(cfg)
        assert len(space) == 358
        pi = steady_state(build_generator(cfg, space))
        assert sha256_of(pi.probabilities) == digest

    def test_golden_capacity_40_stock_chain(self):
        cfg = dataclasses.replace(default_scenario(), capacity=40)
        space = enumerate_states(cfg)
        assert len(space) == 2282
        pi = steady_state(build_generator(cfg, space))
        assert sha256_of(pi.probabilities) == (
            "4fdb3b9a4168ea0ceb285720e3642bef70d9124f06dfefdd13a638ead91eb5ae"
        )

    def test_matches_full_block_reference_bit_for_bit(self):
        # Neither input is banded: the envelope of a permuted banded
        # chain has zeros scattered inside it, and a dense chain has a
        # full envelope.
        rng = np.random.default_rng(11)
        cases = []
        for m in (2, 3, 17, 60):
            perm = rng.permutation(m)
            cases.append(banded_rates(rng, m, band=3)[np.ix_(perm, perm)])
            dense = rng.uniform(0.1, 3.0, (m, m))
            np.fill_diagonal(dense, 0.0)
            cases.append(dense)
        for rates in cases:
            expected = full_block_gth(rates)
            got = _gth_stationary(rates.copy())
            assert got.tobytes() == expected.tobytes()

    def test_eliminates_in_place(self):
        rates = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [4.0, 1.0, 0.0]])
        _gth_stationary(rates)
        # Folding state 2 divides its column by its exit rate 4 + 1.
        assert rates[1, 2] == 1.0 / 5.0

    def test_absorbing_state_is_degenerate(self):
        with pytest.raises(DegenerateChainError, match="irreducible"):
            _gth_stationary(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestBlockingProbabilities:
    def test_mm11_blocking(self):
        cfg = single_class(1, 0.5)
        space = enumerate_states(cfg)
        pi = steady_state(build_generator(cfg, space))
        report = blocking_probabilities(pi, cfg, space)
        np.testing.assert_allclose(report.per_class, [1 / 3], atol=1e-14)
        assert report.mode == "ctmc"
        assert report.validity_flag

    def test_erlang_two_channels(self):
        cfg = single_class(2, 1.0)
        space = enumerate_states(cfg)
        pi = steady_state(build_generator(cfg, space))
        report = blocking_probabilities(pi, cfg, space)
        np.testing.assert_allclose(report.per_class, [0.2], atol=1e-14)

    def test_zero_arrivals_flagged(self):
        cfg = make_config(5, [1, 2, 3], lam=0.0)
        space = enumerate_states(cfg)
        pi = steady_state(build_generator(cfg, space))
        report = blocking_probabilities(pi, cfg, space)
        np.testing.assert_allclose(report.per_class, [0.0, 0.0, 0.0])
        assert np.isnan(report.overall)
        assert not report.validity_flag

    def test_nested_blocked_sets_are_monotone(self):
        cfg = make_config(12, [1, 4, 6], bandwidths=[1, 2, 3], lam=2.5)
        report = solve(cfg, "ctmc")
        assert np.all(np.diff(report.per_class) >= 0)


class TestErlangB:
    def test_no_servers(self):
        assert erlang_b(0, 3.7) == 1.0

    def test_one_server_unit_load(self):
        assert erlang_b(1, 1.0) == 0.5

    def test_two_servers_unit_load(self):
        assert erlang_b(2, 1.0) == pytest.approx(0.2, abs=1e-15)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            erlang_b(-1, 1.0)
        with pytest.raises(ValueError):
            erlang_b(1, -0.1)

    def test_monotone_in_load_and_capacity(self):
        loads = [0.1, 0.5, 1.0, 2.0, 5.0, 10.0]
        for n in range(1, 15):
            values = [erlang_b(n, a) for a in loads]
            assert all(x < y for x, y in zip(values, values[1:]))
        for a in loads:
            values = [erlang_b(n, a) for n in range(0, 15)]
            assert all(x > y for x, y in zip(values, values[1:]))


class TestKaufmanRoberts:
    def test_single_class_equals_erlang_b(self):
        for capacity in range(1, 21):
            for load in (0.1, 1.0, 10.0):
                _, blocking = kaufman_roberts(capacity, [(load, 1)])
                assert blocking[0] == pytest.approx(
                    erlang_b(capacity, load), abs=1e-12
                )

    def test_two_channel_call_hand_value(self):
        occ, blocking = kaufman_roberts(2, [(1.0, 2)])
        np.testing.assert_allclose(occ, [0.5, 0.0, 0.5], atol=1e-15)
        assert blocking[0] == pytest.approx(0.5, abs=1e-15)

    def test_zero_load(self):
        occ, blocking = kaufman_roberts(4, [(0.0, 1), (0.0, 2)])
        np.testing.assert_allclose(occ, [1, 0, 0, 0, 0])
        np.testing.assert_allclose(blocking, [0.0, 0.0])

    def test_oversized_call_always_blocked(self):
        _, blocking = kaufman_roberts(2, [(1.0, 3)])
        assert blocking[0] == 1.0

    def test_matches_ctmc_under_complete_sharing(self):
        rng = np.random.default_rng(17)
        for _ in range(6):
            capacity = int(rng.integers(3, 16))
            bandwidths = sorted(int(b) for b in rng.integers(1, 4, size=3))
            loads = rng.uniform(0.2, 2.0, size=3)
            classes = tuple(
                TrafficClassSpec(f"t{i}", float(loads[i]), 1.0, b, b)
                for i, b in enumerate(bandwidths)
            )
            cfg = SystemConfig(capacity, classes)
            _, kr = kaufman_roberts(capacity, [(float(a), b) for a, b in zip(loads, bandwidths)])
            ctmc = solve(cfg, "ctmc")
            np.testing.assert_allclose(ctmc.per_class, kr, atol=1e-9)


class TestRecurrence:
    def equal_rate_cfg(self, load_ratio, capacity):
        classes = tuple(
            TrafficClassSpec(f"t{i + 1}", load_ratio, 1.0, i + 1, i + 1)
            for i in range(3)
        )
        return SystemConfig(capacity, classes)

    def test_hand_iteration(self):
        result, report = recurrence_blocking(self.equal_rate_cfg(3.0, 5))
        np.testing.assert_allclose(result.unnormalized, [1, 1, 2, 4, 7, 13])
        np.testing.assert_allclose(
            report.per_class, [13 / 28, 7 / 28, 4 / 28], atol=1e-15
        )
        assert report.overall == pytest.approx(24 / 28, abs=1e-15)
        assert report.validity_flag
        assert report.detail == "equal_rate"
        assert result.load_ratio == pytest.approx(3.0)

    def test_zero_load(self):
        result, report = recurrence_blocking(self.equal_rate_cfg(0.0, 6))
        np.testing.assert_allclose(result.normalized.probabilities[0], 1.0)
        np.testing.assert_allclose(report.per_class, [0.0, 0.0, 0.0])
        assert report.overall == 0.0

    def test_unnormalized_starts_at_one(self):
        result, _ = recurrence_blocking(self.equal_rate_cfg(1.7, 9))
        assert result.unnormalized[0] == 1.0

    def test_overall_can_exceed_one_and_is_flagged(self):
        _, report = recurrence_blocking(self.equal_rate_cfg(50.0, 4))
        assert report.overall > 1.0
        assert not report.validity_flag

    def test_general_path_for_unequal_rates(self):
        classes = (
            TrafficClassSpec("a", 2.0, 1.0, 1, 1),
            TrafficClassSpec("b", 1.0, 1.0, 2, 2),
            TrafficClassSpec("c", 0.5, 1.0, 3, 3),
        )
        cfg = SystemConfig(6, classes)
        result, report = recurrence_blocking(cfg)
        assert report.detail == "general"
        # Hand iteration: P_n = (2 P_{n-1} + P_{n-2} + 0.5 P_{n-3}) / 3.
        expected = [1.0]
        padded = [0.0, 0.0, 1.0]
        for _ in range(6):
            padded.append((2 * padded[-1] + padded[-2] + 0.5 * padded[-3]) / 3)
            expected.append(padded[-1])
        np.testing.assert_allclose(result.unnormalized, expected, atol=1e-15)

    def test_equal_rate_requested_with_unequal_rates(self):
        classes = (
            TrafficClassSpec("a", 2.0, 1.0, 1, 1),
            TrafficClassSpec("b", 1.0, 1.0, 1, 1),
            TrafficClassSpec("c", 1.0, 1.0, 1, 1),
        )
        with pytest.raises(ModePreconditionError, match="equal-rate"):
            recurrence_blocking(SystemConfig(5, classes), equal_rate=True)

    def test_requires_three_classes(self):
        with pytest.raises(ModePreconditionError, match="3 classes"):
            recurrence_blocking(single_class(5, 1.0))

    def test_overflow_is_a_precondition_failure(self):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            ModePreconditionError, match="overflows"
        ):
            recurrence_blocking(self.equal_rate_cfg(1000.0, 400))


class TestSolveDispatch:
    def test_ctmc_single_class(self):
        assert solve(single_class(2, 1.0), "ctmc").per_class[0] == pytest.approx(
            0.2, abs=1e-12
        )

    def test_kr_mode_matches_ctmc_complete_sharing(self):
        classes = tuple(
            TrafficClassSpec(f"t{i}", 0.8, 1.0, b, b) for i, b in enumerate((1, 2, 3))
        )
        cfg = SystemConfig(9, classes)
        kr = solve(cfg, "kaufman_roberts")
        ctmc = solve(cfg, "ctmc")
        np.testing.assert_allclose(kr.per_class, ctmc.per_class, atol=1e-9)
        assert kr.mode == "kaufman_roberts"

    def test_literal1d_blocking_uses_threshold_sets(self):
        cfg = SystemConfig(
            6,
            (
                TrafficClassSpec("a", 1.0, 1.0, 1, 1),
                TrafficClassSpec("b", 1.0, 1.0, 2, 3),
                TrafficClassSpec("c", 1.0, 1.0, 3, 4),
            ),
        )
        report = solve(cfg, "literal1d")
        pi = steady_state(build_literal_1d_generator(cfg)).probabilities
        # Class blocked when free = capacity - n < A_i.
        for i, a in enumerate((1, 3, 4)):
            expected = pi[np.arange(7) > 6 - a].sum()
            assert report.per_class[i] == pytest.approx(expected, abs=1e-12)
        assert report.mode == "literal1d"

    def test_unknown_mode(self):
        with pytest.raises(ModePreconditionError, match="unknown mode"):
            solve(single_class(2, 1.0), "magic")

    def test_erlang_b_mode_preconditions(self):
        with pytest.raises(ModePreconditionError, match="single class"):
            solve(make_config(4, [1, 2]), "erlang_b")
        bad = SystemConfig(4, (TrafficClassSpec("a", 1.0, 1.0, 2, 2),))
        with pytest.raises(ModePreconditionError, match="bandwidth 1"):
            solve(bad, "erlang_b")

    def test_erlang_b_mode_value(self):
        report = solve(single_class(2, 1.0), "erlang_b")
        assert report.per_class[0] == pytest.approx(0.2, abs=1e-15)
        assert report.mode == "erlang_b"
