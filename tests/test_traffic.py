"""Distribution samplers, point processes, and mixture composition."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from caclab import (
    ArrivalTrace,
    BiPareto,
    Constant,
    Exponential,
    Lognormal,
    MixtureComponent,
    MmppParams,
    RateFunction,
    RenewalProcess,
    TrafficMixtureSpec,
    Weibull,
    compose_traffic,
    sample_distribution,
    sample_mmpp,
    sample_poisson_process,
    sample_renewal,
    superpose_user_sessions,
)
from caclab.traffic import _BISECT_TOL, _bipareto_inverse_array, analytic_mean


def rng(seed=0):
    return np.random.default_rng(seed)


@st.composite
def bipareto_specs(draw):
    minimum = draw(st.floats(0.05, 10.0))
    spread = draw(st.sampled_from([1.0]) | st.floats(1.0, 50.0))
    return BiPareto(
        alpha=draw(st.floats(0.3, 3.0)),
        beta=draw(st.floats(0.3, 3.0)),
        breakpoint=minimum * spread,
        minimum=minimum,
    )


def distribution_specs():
    return st.one_of(
        st.builds(Exponential, st.floats(0.1, 20.0)),
        st.builds(Lognormal, st.floats(-2.0, 2.0), st.just(0.0) | st.floats(0.0, 2.0)),
        st.builds(
            Weibull,
            st.sampled_from([0.5, 0.8, 1.0, 2.0, 1 / 3]) | st.floats(0.2, 5.0),
            st.floats(0.1, 5.0),
        ),
        st.builds(Constant, st.floats(0.05, 5.0)),
        bipareto_specs(),
    )


def seeded(seed):
    return np.random.Generator(np.random.PCG64(seed))


def scalar_bipareto_inverse(spec, u):
    """Reference for _bipareto_inverse_array: the same doubling and
    bisection for one u, in plain Python control flow."""
    target = 1.0 - u
    if target >= 1.0:
        return spec.minimum
    lo = spec.minimum
    hi = max(2.0 * spec.minimum, spec.minimum + spec.breakpoint)
    while spec.ccdf(hi) > target:
        hi *= 2.0
    while hi - lo > _BISECT_TOL * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if spec.ccdf(mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def one_at_a_time_renewal(spec, horizon, gen):
    """Reference renewal sampler: one interarrival per draw."""
    times = []
    t = float(sample_distribution(spec, gen, size=1)[0])
    while t < horizon:
        times.append(t)
        t += float(sample_distribution(spec, gen, size=1)[0])
    return np.array(times)


class TestDistributionSpecs:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            Exponential(0.0)
        with pytest.raises(ValueError):
            Weibull(-1.0, 2.0)
        with pytest.raises(ValueError):
            Lognormal(0.0, -0.5)
        with pytest.raises(ValueError):
            Constant(0.0)
        with pytest.raises(ValueError):
            BiPareto(1.0, 1.5, breakpoint=0.5, minimum=1.0)

    def test_degenerate_lognormal_is_one(self):
        assert sample_distribution(Lognormal(0.0, 0.0), rng(), size=1)[0] == 1.0

    def test_constant(self):
        assert sample_distribution(Constant(5.0), rng(), size=1)[0] == 5.0

    def test_shape_one_weibull_is_exponential(self):
        draws = sample_distribution(Weibull(1.0, 2.0), rng(42), size=100_000)
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - 2.0) <= 3 * se

    def test_lognormal_moment(self):
        spec = Lognormal(0.3, 0.8)
        draws = sample_distribution(spec, rng(1), size=100_000)
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - analytic_mean(spec)) <= 3 * se

    def test_exponential_moment(self):
        spec = Exponential(2.5)
        draws = sample_distribution(spec, rng(2), size=100_000)
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - 0.4) <= 3 * se

    def test_bipareto_support_and_inversion(self):
        spec = BiPareto(alpha=0.9, beta=1.8, breakpoint=10.0, minimum=1.0)
        draws = sample_distribution(spec, rng(3), size=2_000)
        assert np.all(draws >= spec.minimum)
        # The sampler inverts the complementary CDF to 1e-12, so pushing
        # draws back through it must recover uniforms.
        u = np.array([spec.ccdf(x) for x in draws])
        assert np.all((u > 0) & (u <= 1))
        sorted_u = np.sort(u)
        grid = (np.arange(u.size) + 0.5) / u.size
        assert np.abs(sorted_u - grid).max() < 0.05

    def test_bipareto_tail_exponent(self):
        # Far beyond the breakpoint the complementary CDF decays like
        # x^-beta.
        spec = BiPareto(alpha=0.5, beta=2.0, breakpoint=5.0, minimum=1.0)
        x = 1e6
        ratio = spec.ccdf(2 * x) / spec.ccdf(x)
        assert ratio == pytest.approx(2.0 ** -2.0, rel=1e-3)

    def test_all_samples_positive(self):
        specs = [
            Exponential(1.0),
            Lognormal(-1.0, 2.0),
            Weibull(0.5, 1.0),
            BiPareto(1.0, 2.0, 3.0, 0.5),
            Constant(0.1),
        ]
        for spec in specs:
            draws = sample_distribution(spec, rng(4), size=500)
            assert np.all(draws > 0)


class TestBitForBitSampling:
    """The block and vectorised samplers against one-draw-at-a-time
    references: the same bits and the same final generator state."""

    @settings(max_examples=60, deadline=None)
    @given(bipareto_specs(), st.integers(0, 2**63))
    def test_array_bipareto_inverse_matches_scalar(self, spec, seed):
        u = np.concatenate(
            ([0.0, np.nextafter(1.0, 0.0), 0.5], seeded(seed).random(300))
        )
        expected = np.array(
            [scalar_bipareto_inverse(spec, x) for x in u.tolist()], dtype=float
        )
        assert _bipareto_inverse_array(spec, u).tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "spec",
        [
            BiPareto(alpha=0.4, beta=2.0, breakpoint=0.3, minimum=0.2),
            BiPareto(alpha=2.8, beta=1.6, breakpoint=5.9, minimum=1.9),
            BiPareto(alpha=1.3, beta=0.7, breakpoint=4.6, minimum=1.5),
        ],
    )
    def test_close_calls_follow_scalar_ccdf(self, spec):
        # Each target is, up to the rounding of 1 - u, the ccdf at a
        # bracket end the doubling visits: a close call that the array
        # path must decide as the scalar reference does.
        for j in range(4):
            x = max(2.0 * spec.minimum, spec.minimum + spec.breakpoint) * 2.0**j
            u = 1.0 - spec.ccdf(x)
            got = _bipareto_inverse_array(spec, np.array([u]))[0]
            assert got == scalar_bipareto_inverse(spec, u)

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(0.01, 10.0),
        st.floats(0.01, 10.0) | st.floats(0.04, 0.08),
        st.floats(1e-3, 1e3),
        st.sampled_from([1.0]) | st.floats(1.0, 1e3),
    )
    def test_valid_specs_sample_finite_values(self, alpha, beta, minimum, spread):
        try:
            spec = BiPareto(alpha, beta, breakpoint=minimum * spread, minimum=minimum)
        except ValueError as exc:
            assert "tail too heavy" in str(exc)
            return
        u = np.array([0.0, 0.5, 1.0 - 1e-8, 1.0 - 2.0**-53])
        draws = _bipareto_inverse_array(spec, u)
        assert np.all(np.isfinite(draws))
        assert np.all(draws >= spec.minimum)

    def test_heavy_tails_are_finite_or_rejected(self):
        # Python's float pow overflowed on the first spec's ccdf far in
        # the tail; in log space it draws a finite value. The second
        # spec's quantile overflows, so it is rejected.
        spec = BiPareto(alpha=5.0, beta=0.1, breakpoint=1.0, minimum=1.0)
        draws = _bipareto_inverse_array(spec, np.array([0.5, 1.0 - 1e-8]))
        assert np.all(np.isfinite(draws))
        with pytest.raises(ValueError, match="tail too heavy"):
            BiPareto(alpha=5.0, beta=0.01, breakpoint=1.0, minimum=1.0)

    @settings(max_examples=60, deadline=None)
    @given(distribution_specs(), st.integers(0, 2**63))
    def test_single_draws_match_one_block(self, spec, seed):
        a, b = seeded(seed), seeded(seed)
        got = np.concatenate([sample_distribution(spec, a, size=1) for _ in range(40)])
        expected = sample_distribution(spec, b, size=40)
        assert got.tobytes() == expected.tobytes()
        assert repr(a.bit_generator.state) == repr(b.bit_generator.state)

    @settings(max_examples=50, deadline=None)
    @given(distribution_specs(), st.floats(0.5, 6000.0), st.integers(0, 2**63))
    def test_block_renewal_matches_one_at_a_time(self, spec, length, seed):
        # Horizons of up to a few thousand mean interarrivals span
        # several blocks, the largest ones included.
        scale = spec.minimum if isinstance(spec, BiPareto) else analytic_mean(spec)
        a, b = seeded(seed), seeded(seed)
        got = sample_renewal(spec, scale * length, a)
        expected = one_at_a_time_renewal(spec, scale * length, b)
        assert got.tobytes() == expected.tobytes()
        assert repr(a.bit_generator.state) == repr(b.bit_generator.state)

    # sha256 of the events plus the final generator state, for
    # sample_renewal(spec, 3000.0, PCG64(2024)), recorded when renewals
    # were drawn one interarrival at a time. bipareto_alpha_lt_beta was
    # recorded again when the BiPareto ccdf moved to log space.
    GOLDEN_RENEWALS = {
        "exponential": (Exponential(2.0), 6072,
                        "a8eb102bc1c4c344d1373427aca320c34ccc405c1438b0c48a5f4c0b61980026"),
        "lognormal": (Lognormal(-0.5, 1.0), 3090,
                      "c2bc55a49e24f90e5ba4a4bf2dccac3566aef677807bbecf264b1d5bf3262316"),
        "lognormal_degenerate": (Lognormal(0.2, 0.0), 2456,
                                 "3f1116eb936ad1e80ef77ec6a3639d78ae62d12cec53572af445b7bbe408972e"),
        "weibull_0.5": (Weibull(0.5, 1.0), 1478,
                        "d66da0add9318d3abb91661a164c372f900fad86c4fc5a9e95adaa9013ef6f83"),
        "weibull_1": (Weibull(1.0, 1.5), 1967,
                      "c66ba451a49e78328d706280ec99606328a7067f1b1bc96c8a082739c6364450"),
        "weibull_2": (Weibull(2.0, 1.0), 3364,
                      "ae0c263d07fd17aeec4ab5cb142e65cf45558455a0c378a44539e453f290b613"),
        "constant": (Constant(0.7), 4285,
                     "c646e2b497b25aeab1ed7492bc82a5d4eb04308f325384730e8f3b35305cb212"),
        "bipareto_alpha_lt_beta": (
            BiPareto(0.9, 1.8, breakpoint=2.0, minimum=0.05), 10381,
            "d7bdf20c0765d73107e78ff988279454ea612c12c29611a79832d01cbb003207"),
        "bipareto_alpha_gt_beta": (
            BiPareto(1.8, 0.9, breakpoint=1.0, minimum=0.5), 1296,
            "99e942dc52765cfc0a8861e942d2ec9d5df220b6cdb33cb5e8de230ef110a9d8"),
    }

    @pytest.mark.parametrize("law", sorted(GOLDEN_RENEWALS))
    def test_golden_renewal(self, law):
        spec, count, digest = self.GOLDEN_RENEWALS[law]
        gen = seeded(2024)
        events = sample_renewal(spec, 3000.0, gen)
        assert events.size == count
        payload = events.tobytes() + repr(gen.bit_generator.state).encode()
        assert hashlib.sha256(payload).hexdigest() == digest


class TestPoissonProcess:
    def test_zero_rate_is_empty(self):
        events = sample_poisson_process(RateFunction.constant(0.0), 10.0, rng())
        assert events.size == 0

    def test_count_matches_mean(self):
        horizon = 10_000.0
        events = sample_poisson_process(RateFunction.constant(2.0), horizon, rng(5))
        mean = 2.0 * horizon
        assert abs(events.size - mean) <= 3 * math.sqrt(mean)

    def test_zero_rate_segment_has_no_events(self):
        rate = RateFunction(((0.0, 0.0), (5.0, 3.0)))
        events = sample_poisson_process(rate, 10.0, rng(6))
        assert events.size > 0
        assert events.min() >= 5.0

    def test_per_segment_counts(self):
        rate = RateFunction(((0.0, 1.0), (500.0, 4.0)))
        events = sample_poisson_process(rate, 1000.0, rng(7))
        first = np.sum(events < 500.0)
        second = np.sum(events >= 500.0)
        assert abs(first - 500) <= 3 * math.sqrt(500)
        assert abs(second - 2000) <= 3 * math.sqrt(2000)

    def test_sorted_within_horizon(self):
        events = sample_poisson_process(RateFunction.constant(5.0), 100.0, rng(8))
        assert np.all(np.diff(events) >= 0)
        assert events.min() >= 0 and events.max() < 100.0

    def test_bad_rate_function(self):
        with pytest.raises(ValueError, match="at least one segment"):
            RateFunction(())
        with pytest.raises(ValueError, match="start at 0"):
            RateFunction(((1.0, 2.0),))
        with pytest.raises(ValueError, match="strictly increasing"):
            RateFunction(((0.0, 1.0), (0.0, 2.0)))


class TestMmpp:
    def test_equal_rates_match_poisson_counts(self):
        horizon = 10_000.0
        params = MmppParams(1.0, 1.0, switch_12=0.5, switch_21=0.5)
        events = sample_mmpp(params, horizon, rng(9))
        assert abs(events.size - horizon) <= 3 * math.sqrt(horizon)

    def test_symmetric_switching_long_run_rate(self):
        r1, r2, q = 1.0, 5.0, 0.2
        horizon = 10_000.0
        params = MmppParams(r1, r2, switch_12=q, switch_21=q)
        events = sample_mmpp(params, horizon, rng(10))
        mean_rate = (r1 + r2) / 2
        # Count variance of a 2-state MMPP: rate*T plus the burst term
        # (dr/2)^2 * 2T / relaxation_rate from integrating the rate
        # autocovariance ((dr/2)^2 e^{-2qt}).
        var = mean_rate * horizon + (r1 - r2) ** 2 / (4 * q) * horizon
        assert abs(events.size - mean_rate * horizon) <= 3 * math.sqrt(var)

    def test_zero_rates_give_empty_stream(self):
        params = MmppParams(0.0, 0.0, 1.0, 1.0)
        assert sample_mmpp(params, 100.0, rng(11)).size == 0

    def test_sorted_within_horizon(self):
        params = MmppParams(2.0, 8.0, 1.0, 3.0)
        events = sample_mmpp(params, 50.0, rng(12))
        assert np.all(np.diff(events) >= 0)
        assert events.min() >= 0 and events.max() < 50.0


class TestRenewal:
    def test_constant_interarrival(self):
        events = sample_renewal(Constant(2.0), 9.9, rng())
        np.testing.assert_allclose(events, [2.0, 4.0, 6.0, 8.0])

    def test_exponential_renewal_is_poisson(self):
        events = sample_renewal(Exponential(3.0), 1000.0, rng(13))
        assert abs(events.size - 3000) <= 3 * math.sqrt(3000)


class TestComposeTraffic:
    def three_poisson(self, weights=(1.0, 0.0, 0.0)):
        comps = tuple(
            MixtureComponent(w, RateFunction.constant(r))
            for w, r in zip(weights, (2.0, 3.0, 1.0))
        )
        return TrafficMixtureSpec(comps)

    def test_degenerate_mixture_equals_first_component(self):
        mix = self.three_poisson((1.0, 0.0, 0.0))
        trace = compose_traffic(mix, 50.0, rng(14))
        alone = sample_poisson_process(RateFunction.constant(2.0), 50.0, rng(14))
        np.testing.assert_array_equal(trace.times, alone)
        assert np.all(trace.classes == 0)

    def test_weights_must_sum_to_one(self):
        mix = TrafficMixtureSpec(
            (
                MixtureComponent(0.5, RateFunction.constant(1.0)),
                MixtureComponent(0.6, RateFunction.constant(1.0)),
            )
        )
        with pytest.raises(ValueError, match="sum to 1"):
            compose_traffic(mix, 10.0, rng())

    def test_zero_rate_components_give_empty_trace(self):
        comps = tuple(
            MixtureComponent(1 / 3, RateFunction.constant(0.0)) for _ in range(3)
        )
        trace = compose_traffic(TrafficMixtureSpec(comps), 10.0, rng())
        assert len(trace) == 0

    def test_deterministic_given_seed(self):
        mix = TrafficMixtureSpec(
            (
                MixtureComponent(0.4, RateFunction.constant(2.0)),
                MixtureComponent(0.3, MmppParams(1.0, 4.0, 0.5, 0.5)),
                MixtureComponent(0.3, RenewalProcess(Weibull(0.7, 1.0))),
            )
        )
        a = compose_traffic(mix, 200.0, rng(15))
        b = compose_traffic(mix, 200.0, rng(15))
        np.testing.assert_array_equal(a.times, b.times)
        np.testing.assert_array_equal(a.classes, b.classes)

    def test_thinning_preserves_intensity(self):
        # Three Poisson components at triple rate, each thinned by 1/3,
        # reproduce the original per-class intensities.
        lam = (1.0, 0.5, 0.25)
        comps = tuple(
            MixtureComponent(1 / 3, RateFunction.constant(3 * r)) for r in lam
        )
        trace = compose_traffic(TrafficMixtureSpec(comps), 20_000.0, rng(16))
        for k, r in enumerate(lam):
            count = int(np.sum(trace.classes == k))
            mean = r * 20_000.0
            assert abs(count - mean) <= 3 * math.sqrt(mean)

    def test_time_varying_weights(self):
        # Weight shifts from component 0 to component 1 at t=50.
        w0 = RateFunction(((0.0, 1.0), (50.0, 0.0)))
        w1 = RateFunction(((0.0, 0.0), (50.0, 1.0)))
        mix = TrafficMixtureSpec(
            (
                MixtureComponent(w0, RateFunction.constant(4.0)),
                MixtureComponent(w1, RateFunction.constant(4.0)),
            )
        )
        trace = compose_traffic(mix, 100.0, rng(17))
        assert np.all(trace.times[trace.classes == 0] < 50.0)
        assert np.all(trace.times[trace.classes == 1] >= 50.0)

    def test_time_varying_weights_must_sum_everywhere(self):
        w0 = RateFunction(((0.0, 1.0), (50.0, 0.5)))
        mix = TrafficMixtureSpec(
            (
                MixtureComponent(w0, RateFunction.constant(1.0)),
                MixtureComponent(0.0, RateFunction.constant(1.0)),
            )
        )
        with pytest.raises(ValueError, match="sum to 1"):
            compose_traffic(mix, 100.0, rng())

    def test_explicit_class_labels(self):
        mix = TrafficMixtureSpec(
            (
                MixtureComponent(0.5, RateFunction.constant(1.0), class_index=2),
                MixtureComponent(0.5, RateFunction.constant(1.0), class_index=2),
            )
        )
        trace = compose_traffic(mix, 100.0, rng(18))
        assert np.all(trace.classes == 2)

    def test_trace_invariants(self):
        mix = self.three_poisson((0.2, 0.5, 0.3))
        trace = compose_traffic(mix, 300.0, rng(19))
        assert np.all(np.diff(trace.times) >= 0)
        assert trace.times.size == 0 or (
            trace.times.min() >= 0 and trace.times.max() < trace.horizon
        )

    def test_trace_rejects_unsorted(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            ArrivalTrace(np.array([2.0, 1.0]), np.array([0, 0]), 10.0)


class TestUserSessionSuperposition:
    def test_user_count_scales_intensity(self):
        # Twenty seeds pooled: the 3-sigma band on the total count is
        # tighter, relative to the mean, than on any one seed's.
        total = 0
        for seed in range(20):
            events = superpose_user_sessions(
                Constant(20.0), RateFunction.constant(0.5), 1000.0, rng(seed)
            )
            assert np.all(np.diff(events) >= 0)
            total += events.size
        mean = 20 * (20 * 0.5 * 1000.0)
        assert abs(total - mean) <= 3 * math.sqrt(mean)

    def test_lognormal_population(self):
        events = superpose_user_sessions(
            Lognormal(2.0, 0.5), RateFunction.constant(1.0), 10.0, rng(21)
        )
        assert events.size > 0
