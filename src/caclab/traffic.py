"""Non-stationary traffic generation.

Total traffic is a weighted superposition of component point
processes: each component is sampled over the horizon, independently
thinned by its weight, and the survivors are merged into one
class-labelled arrival trace. Weights may vary piecewise-constantly in
time but must sum to one at every instant, so the superposition
conserves total intensity.

All samplers draw from a caller-supplied ``numpy.random.Generator``;
identical (spec, horizon, seed) triples reproduce traces bit for bit.
"""

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

_BISECT_TOL = 1e-12
# Largest block of interarrivals sample_renewal draws at once; larger
# blocks only raise peak memory.
_RENEWAL_BLOCK = 4096


@dataclass(frozen=True)
class Exponential:
    rate: float

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError(f"exponential rate must be > 0, got {self.rate}")


@dataclass(frozen=True)
class Lognormal:
    log_mean: float
    log_stdev: float

    def __post_init__(self):
        if self.log_stdev < 0:
            raise ValueError(f"lognormal log_stdev must be >= 0, got {self.log_stdev}")


@dataclass(frozen=True)
class Weibull:
    shape: float
    scale: float

    def __post_init__(self):
        if self.shape <= 0 or self.scale <= 0:
            raise ValueError(
                f"weibull shape and scale must be > 0, got ({self.shape}, {self.scale})"
            )


@dataclass(frozen=True)
class BiPareto:
    """Heavy-tailed law with power-law exponent ``alpha`` near the
    minimum and ``beta`` in the far tail, blending around
    ``breakpoint``: the complementary CDF is
    (x/k)^-alpha * ((x+c)/(k+c))^(alpha-beta) for x >= k = minimum,
    c = breakpoint.

    A spec is rejected unless its quantile at the smallest tail mass a
    draw can ask for (``rng.random()`` is at most 1 - 2^-53) is finite,
    so every draw is finite."""

    alpha: float
    beta: float
    breakpoint: float
    minimum: float

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("bipareto exponents must be > 0")
        if self.minimum <= 0 or self.breakpoint <= 0:
            raise ValueError("bipareto breakpoint and minimum must be > 0")
        if self.breakpoint < self.minimum:
            raise ValueError(
                f"bipareto breakpoint {self.breakpoint} below minimum {self.minimum}"
            )
        with np.errstate(over="ignore", invalid="ignore"):
            tail = _bipareto_inverse_array(self, np.array([1.0 - 2.0**-53]))
        if not np.isfinite(tail[0]):
            raise ValueError(
                "bipareto tail too heavy: the quantile at tail mass 2^-53 "
                "overflows (raise beta)"
            )

    def ccdf(self, x):
        """Complementary CDF at a scalar or an array, evaluated in log
        space so that no power overflows; exactly 1 up to the minimum."""
        k, c = self.minimum, self.breakpoint
        x = np.maximum(x, k)
        return np.exp(
            (self.alpha - self.beta) * (np.log(x + c) - np.log(k + c))
            - self.alpha * (np.log(x) - np.log(k))
        )


@dataclass(frozen=True)
class Constant:
    value: float

    def __post_init__(self):
        if self.value <= 0:
            raise ValueError(f"constant value must be > 0, got {self.value}")


DistributionSpec = Union[Exponential, Lognormal, Weibull, BiPareto, Constant]


@dataclass(frozen=True)
class MmppParams:
    """Two-state Markov-modulated Poisson process: events are emitted
    at ``rate_state1`` or ``rate_state2`` while a background chain with
    switching rates ``switch_12``/``switch_21`` toggles between them."""

    rate_state1: float
    rate_state2: float
    switch_12: float
    switch_21: float

    def __post_init__(self):
        if self.rate_state1 < 0 or self.rate_state2 < 0:
            raise ValueError("event rates must be >= 0")
        if self.switch_12 <= 0 or self.switch_21 <= 0:
            raise ValueError("switching rates must be > 0")


@dataclass(frozen=True)
class RateFunction:
    """Piecewise-constant rate: segments are (start, rate) pairs with
    strictly increasing starts beginning at 0."""

    segments: tuple[tuple[float, float], ...]

    def __post_init__(self):
        segs = tuple((float(s), float(r)) for s, r in self.segments)
        object.__setattr__(self, "segments", segs)
        if not segs:
            raise ValueError("rate function needs at least one segment")
        if segs[0][0] != 0.0:
            raise ValueError(f"first segment must start at 0, got {segs[0][0]}")
        starts = [s for s, _ in segs]
        if any(a >= b for a, b in zip(starts, starts[1:])):
            raise ValueError("segment starts must be strictly increasing")
        if any(r < 0 for _, r in segs):
            raise ValueError("rates must be >= 0")

    @classmethod
    def constant(cls, rate: float) -> "RateFunction":
        return cls(((0.0, float(rate)),))

    def value_at(self, t: float) -> float:
        return float(self.values_at(np.array([t]))[0])

    def values_at(self, times: np.ndarray) -> np.ndarray:
        """Rates at ``times``: that of the last segment starting at or
        before each time (the first segment's before time 0)."""
        starts = np.array([s for s, _ in self.segments])
        rates = np.array([r for _, r in self.segments])
        index = np.searchsorted(starts, times, side="right") - 1
        return rates[np.maximum(index, 0)]

    def pieces(self, horizon: float):
        """Yield (start, end, rate) pieces covering [0, horizon)."""
        starts = [s for s, _ in self.segments] + [horizon]
        for (start, rate), end in zip(self.segments, starts[1:]):
            if start >= horizon:
                break
            yield start, min(end, horizon), rate


@dataclass(frozen=True)
class RenewalProcess:
    """Point process with i.i.d. interarrival times."""

    interarrival: DistributionSpec


ProcessSpec = Union[RateFunction, MmppParams, RenewalProcess]


@dataclass(frozen=True)
class MixtureComponent:
    """One superposition component: a point process thinned by a
    (possibly time-varying) weight and labelled with a traffic class.
    ``class_index`` of None means "use the component's position"."""

    weight: Union[float, RateFunction]
    process: ProcessSpec
    class_index: int | None = None

    def weight_at(self, t: float) -> float:
        if isinstance(self.weight, RateFunction):
            return self.weight.value_at(t)
        return float(self.weight)


@dataclass(frozen=True)
class TrafficMixtureSpec:
    components: tuple[MixtureComponent, ...]

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if not self.components:
            raise ValueError("traffic mixture needs at least one component")

    def check_weights(self):
        """Weights must sum to 1 (within 1e-12) at every instant."""
        breakpoints = {0.0}
        for comp in self.components:
            if isinstance(comp.weight, RateFunction):
                breakpoints.update(s for s, _ in comp.weight.segments)
        for t in sorted(breakpoints):
            total = sum(comp.weight_at(t) for comp in self.components)
            if abs(total - 1.0) > 1e-12:
                raise ValueError(
                    f"weights must sum to 1, got {total!r} at time {t}"
                )
        for comp in self.components:
            if isinstance(comp.weight, RateFunction):
                bad = [w for _, w in comp.weight.segments if not 0.0 <= w <= 1.0]
            else:
                bad = [] if 0.0 <= comp.weight <= 1.0 else [comp.weight]
            if bad:
                raise ValueError(f"weights must lie in [0, 1], got {bad[0]}")


@dataclass(frozen=True)
class ArrivalTrace:
    """Time-ordered, class-labelled arrivals over [0, horizon)."""

    times: np.ndarray
    classes: np.ndarray
    horizon: float

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        classes = np.asarray(self.classes, dtype=np.int64)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "classes", classes)
        if times.shape != classes.shape:
            raise ValueError("times and classes must have matching length")
        if times.size and (np.any(np.diff(times) < 0)):
            raise ValueError("trace times must be non-decreasing")
        if times.size and (times[0] < 0 or times[-1] > self.horizon):
            raise ValueError("trace times must lie within [0, horizon]")

    def __len__(self) -> int:
        return int(self.times.size)


def sample_distribution(spec: DistributionSpec, rng: np.random.Generator, size: int):
    """Draw an array of ``size`` values from ``spec``.

    Everything is inverse-transform sampled from uniforms (the
    lognormal goes through a normal draw), so a seeded generator
    reproduces values exactly. ``size`` draws of one value each equal
    one draw of ``size`` values, and leave the generator in the same
    state; a ``Constant`` draws nothing.
    """
    n = int(size)
    if isinstance(spec, Constant):
        return np.full(n, float(spec.value))
    if isinstance(spec, Exponential):
        return -np.log1p(-rng.random(n)) / spec.rate
    if isinstance(spec, Lognormal):
        return np.exp(spec.log_mean + spec.log_stdev * rng.standard_normal(n))
    if isinstance(spec, Weibull):
        return spec.scale * (-np.log1p(-rng.random(n))) ** (1.0 / spec.shape)
    if isinstance(spec, BiPareto):
        return _bipareto_inverse_array(spec, rng.random(n))
    raise TypeError(f"unknown distribution spec {type(spec).__name__}")


def _bipareto_inverse_array(spec: BiPareto, u: np.ndarray) -> np.ndarray:
    """Solve ``spec.ccdf(x) = 1 - u`` element-wise by bracketing
    doubling plus bisection; u = 0 gives the minimum.

    Each element keeps its own bracket, starting at
    [minimum, max(2 minimum, minimum + breakpoint)]: the upper end
    doubles until the ccdf there is at most the target, then bisection
    halves the bracket until its width is within 1e-12 of
    max(1, upper end). So every element takes the steps it would take
    alone.
    """
    target = 1.0 - u
    lo = np.full(target.shape, float(spec.minimum))
    start = max(2.0 * spec.minimum, spec.minimum + spec.breakpoint)
    hi = np.where(target < 1.0, start, lo)
    active = np.arange(hi.size)
    while active.size:
        active = active[spec.ccdf(hi[active]) > target[active]]
        hi[active] *= 2.0
    active = np.arange(hi.size)
    while True:
        width = hi[active] - lo[active]
        active = active[width > _BISECT_TOL * np.maximum(1.0, hi[active])]
        if not active.size:
            break
        mid = 0.5 * (lo[active] + hi[active])
        above = spec.ccdf(mid) > target[active]
        lo[active[above]] = mid[above]
        hi[active[~above]] = mid[~above]
    return 0.5 * (lo + hi)


def sample_poisson_process(
    rate: RateFunction, horizon: float, rng: np.random.Generator
) -> np.ndarray:
    """Event times of a piecewise-constant Poisson process on [0, horizon).

    Each segment with a positive rate draws a Poisson count for its
    length, then that many sorted uniform times within it.
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be > 0, got {horizon}")
    pieces: list[np.ndarray] = []
    for start, end, seg_rate in rate.pieces(horizon):
        if seg_rate <= 0:
            continue
        count = rng.poisson(seg_rate * (end - start))
        pieces.append(np.sort(rng.uniform(start, end, size=count)))
    if not pieces:
        return np.empty(0)
    return np.concatenate(pieces)


def sample_mmpp(
    params: MmppParams, horizon: float, rng: np.random.Generator
) -> np.ndarray:
    """Event times of a two-state MMPP on [0, horizon).

    The modulating chain starts from its stationary distribution and
    alternates exponential sojourns; events inside each sojourn form a
    homogeneous Poisson stream at the active state's rate.
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be > 0, got {horizon}")
    rates = (params.rate_state1, params.rate_state2)
    switches = (params.switch_12, params.switch_21)
    p_state1 = params.switch_21 / (params.switch_12 + params.switch_21)
    state = 0 if rng.random() < p_state1 else 1
    t = 0.0
    pieces: list[np.ndarray] = []
    while t < horizon:
        sojourn = rng.exponential(1.0 / switches[state])
        end = min(t + sojourn, horizon)
        if rates[state] > 0:
            count = rng.poisson(rates[state] * (end - t))
            pieces.append(np.sort(rng.uniform(t, end, size=count)))
        t += sojourn
        state = 1 - state
    if not pieces:
        return np.empty(0)
    return np.concatenate(pieces)


def sample_renewal(
    interarrival: DistributionSpec, horizon: float, rng: np.random.Generator
) -> np.ndarray:
    """Event times of a renewal process with the given interarrival law.

    Interarrivals are drawn in blocks, doubling from 256 up to
    ``_RENEWAL_BLOCK``, and summed by ``np.cumsum``, which adds in
    sequence as ``t += x`` does.
    The block that reaches the horizon is drawn again from the saved
    generator state, only up to its first time at or past the horizon.
    So the times and the generator's final state are those of drawing
    one interarrival at a time until the horizon.
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be > 0, got {horizon}")
    pieces: list[np.ndarray] = []
    t = 0.0
    size = 256
    while True:
        state = rng.bit_generator.state
        times = sample_distribution(interarrival, rng, size=size)
        times[0] += t
        np.cumsum(times, out=times)
        stop = int(np.searchsorted(times, horizon))
        if stop < size:
            rng.bit_generator.state = state
            sample_distribution(interarrival, rng, size=stop + 1)
            pieces.append(times[:stop])
            return np.concatenate(pieces)
        pieces.append(times)
        t = float(times[-1])
        size = min(2 * size, _RENEWAL_BLOCK)


def sample_process(
    process: ProcessSpec, horizon: float, rng: np.random.Generator
) -> np.ndarray:
    if isinstance(process, RateFunction):
        return sample_poisson_process(process, horizon, rng)
    if isinstance(process, MmppParams):
        return sample_mmpp(process, horizon, rng)
    if isinstance(process, RenewalProcess):
        return sample_renewal(process.interarrival, horizon, rng)
    raise TypeError(f"unknown process spec {type(process).__name__}")


def compose_traffic(
    mix: TrafficMixtureSpec, horizon: float, rng: np.random.Generator
) -> ArrivalTrace:
    """Sample each component, thin it by its weight, and merge.

    Components are processed in list order against the single supplied
    generator, so the trace is a deterministic function of
    (mix, horizon, seed). Each component's surviving events carry its
    traffic-class label (its list position unless overridden).
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be > 0, got {horizon}")
    mix.check_weights()
    all_times: list[np.ndarray] = []
    all_classes: list[np.ndarray] = []
    for position, comp in enumerate(mix.components):
        events = sample_process(comp.process, horizon, rng)
        u = rng.random(events.size)
        if isinstance(comp.weight, RateFunction):
            weights = comp.weight.values_at(events)
        else:
            weights = np.full(events.size, float(comp.weight))
        kept = events[u < weights]
        label = position if comp.class_index is None else comp.class_index
        all_times.append(kept)
        all_classes.append(np.full(kept.size, label, dtype=np.int64))
    times = np.concatenate(all_times) if all_times else np.empty(0)
    classes = np.concatenate(all_classes) if all_classes else np.empty(0, dtype=np.int64)
    order = np.lexsort((classes, times))
    return ArrivalTrace(times[order], classes[order], float(horizon))


def superpose_user_sessions(
    user_count: DistributionSpec,
    per_user_process: ProcessSpec,
    horizon: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Population-driven arrivals: draw a user count for the epoch,
    then superpose that many independent copies of the per-user
    session process. Fractional counts round to the nearest integer."""
    count = max(0, round(float(sample_distribution(user_count, rng, size=1)[0])))
    pieces = [sample_process(per_user_process, horizon, rng) for _ in range(count)]
    if not pieces:
        return np.empty(0)
    return np.sort(np.concatenate(pieces))


def analytic_mean(spec: DistributionSpec) -> float:
    """Closed-form mean where one exists (no closed form: BiPareto)."""
    if isinstance(spec, Constant):
        return spec.value
    if isinstance(spec, Exponential):
        return 1.0 / spec.rate
    if isinstance(spec, Lognormal):
        return math.exp(spec.log_mean + 0.5 * spec.log_stdev**2)
    if isinstance(spec, Weibull):
        return spec.scale * math.gamma(1.0 + 1.0 / spec.shape)
    raise ValueError(f"no closed-form mean for {type(spec).__name__}")
