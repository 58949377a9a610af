"""Event-driven simulation of the threshold-admission loss system.

Markovian mode simulates the jump chain of the multi-class process
directly (exponential interarrivals per class, per-call exponential
holding); blocked calls are counted and lost. Trace-driven mode replays
an :class:`~caclab.traffic.ArrivalTrace` with holding times drawn from
per-class distributions before the replay starts.

Replication r of a run seeded with s uses the r-th output of a
splitmix64 stream started at s, so replications are independent but
the whole experiment is reproducible bit for bit.
"""

from dataclasses import dataclass
import heapq

import numpy as np
from scipy.special import stdtrit

from .errors import ConfigError, SimulationError
from .model import SystemConfig, validate_config
from .traffic import ArrivalTrace, DistributionSpec, sample_distribution

_CHUNK = 1 << 16
_MASK64 = (1 << 64) - 1


def splitmix64_stream(seed: int, index: int) -> int:
    """The ``index``-th output of a splitmix64 stream started at ``seed``.

    Standard finalizer constants; used to derive independent
    per-replication seeds from one master seed.
    """
    state = seed & _MASK64
    out = 0
    for _ in range(index + 1):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        out = z ^ (z >> 31)
    return out


@dataclass(frozen=True)
class SimParams:
    """Run controls. ``warmup`` of None means 10% of the horizon."""

    horizon: float
    warmup: float | None = None
    replications: int = 1
    seed: int = 0
    service_model: str = "markovian"
    holding: tuple[DistributionSpec, ...] | None = None

    def __post_init__(self):
        violations = []
        if self.horizon <= 0:
            violations.append(f"horizon must be > 0, got {self.horizon}")
        if self.warmup is not None and not 0 <= self.warmup < self.horizon:
            violations.append(
                f"warmup must be in [0, horizon), got {self.warmup}"
            )
        if self.replications < 1:
            violations.append(f"replications must be >= 1, got {self.replications}")
        if self.service_model not in ("markovian", "trace_driven"):
            violations.append(f"unknown service model {self.service_model!r}")
        if violations:
            raise ConfigError(violations)

    @property
    def effective_warmup(self) -> float:
        return 0.1 * self.horizon if self.warmup is None else self.warmup


@dataclass(frozen=True)
class ReplicationResult:
    """Raw counts from one replication: per-class offered/blocked and
    the time spent at each total-occupancy level after warmup."""

    offered: np.ndarray
    blocked: np.ndarray
    occupancy_time: np.ndarray
    measured_time: float

    def blocking(self) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            return np.where(
                self.offered > 0, self.blocked / np.maximum(self.offered, 1), np.nan
            )

    def overall_blocking(self) -> float:
        total = self.offered.sum()
        return float(self.blocked.sum() / total) if total > 0 else float("nan")


@dataclass(frozen=True)
class SimStats:
    """Replication-aggregated estimates.

    ``blocking`` entries are NaN for classes that saw no arrivals
    (``degenerate`` is then set); half-widths are None when a single
    replication leaves no variance estimate (``ci_available`` False).
    """

    offered: np.ndarray
    blocked: np.ndarray
    blocking: np.ndarray
    half_width: np.ndarray | None
    overall_blocking: float
    overall_half_width: float | None
    occupancy_histogram: np.ndarray
    replications: int
    ci_available: bool
    degenerate: bool


def _draw_pairs(rng: np.random.Generator):
    """Endless (exponential, uniform) pairs, drawn in chunks of
    ``_CHUNK``: each chunk takes its exponentials, then its uniforms."""
    while True:
        exp_draws = rng.exponential(size=_CHUNK).tolist()
        uni_draws = rng.random(size=_CHUNK).tolist()
        yield from zip(exp_draws, uni_draws)


def run_replication(
    cfg: SystemConfig, params: SimParams, replication_index: int
) -> ReplicationResult:
    """One markovian replication, deterministic in (seed, index).

    Simulates the jump chain of the loss system, one (exponential,
    uniform) pair per event, until the horizon is reached.
    """
    validate_config(cfg)
    seed = splitmix64_stream(params.seed, replication_index)
    rng = np.random.Generator(np.random.PCG64(seed))
    lam = cfg.arrival_rates.tolist()
    mu = cfg.service_rates.tolist()
    band = cfg.bandwidths.tolist()
    thresh = cfg.thresholds.tolist()
    capacity = cfg.capacity
    horizon = float(params.horizon)
    warmup = float(params.effective_warmup)
    K = cfg.num_classes
    n = [0] * K
    offered = [0] * K
    blocked = [0] * K
    occ_time = [0.0] * (capacity + 1)
    lam_sum = 0.0
    for rate in lam:
        lam_sum += rate
    t = 0.0
    occ = 0
    for e, uni in _draw_pairs(rng):
        # Summed afresh each event, in class order, so that the float
        # results do not depend on the history of the sum.
        mu_dot = 0.0
        for i in range(K):
            mu_dot += mu[i] * n[i]
        total = lam_sum + mu_dot
        # A frozen chain (total rate 0) never moves again.
        t_next = t + e / total if total > 0.0 else horizon
        lo = t if t > warmup else warmup
        if t_next >= horizon:
            if horizon > lo:
                occ_time[occ] += horizon - lo
            break
        if t_next > lo:
            occ_time[occ] += t_next - lo
        t = t_next
        u = uni * total
        if u < lam_sum:
            c = 0
            acc = lam[0]
            while u >= acc and c < K - 1:
                c += 1
                acc += lam[c]
            if t >= warmup:
                offered[c] += 1
            if capacity - occ >= thresh[c]:
                n[c] += 1
                occ += band[c]
                if occ > capacity:
                    raise SimulationError(
                        "channel conservation violated: occupancy above capacity"
                    )
            elif t >= warmup:
                blocked[c] += 1
        else:
            v = u - lam_sum
            c = 0
            acc = mu[0] * n[0]
            while v >= acc and c < K - 1:
                c += 1
                acc += mu[c] * n[c]
            if n[c] == 0:
                # Rounding pushed the pick onto an empty class; any
                # occupied class is a valid target (mu_dot > 0 here).
                for j in range(K):
                    if n[j] > 0:
                        c = j
                        break
            if n[c] <= 0:
                raise SimulationError(
                    "channel conservation violated: departure from an empty system"
                )
            n[c] -= 1
            occ -= band[c]
    return ReplicationResult(
        offered=np.array(offered, dtype=np.int64),
        blocked=np.array(blocked, dtype=np.int64),
        occupancy_time=np.array(occ_time),
        measured_time=horizon - warmup,
    )


def _aggregate(reps: list[ReplicationResult], num_classes: int) -> SimStats:
    r = len(reps)
    offered = np.sum([rep.offered for rep in reps], axis=0)
    blocked = np.sum([rep.blocked for rep in reps], axis=0)
    per_rep = np.array([rep.blocking() for rep in reps])  # (R, K)
    per_rep_overall = np.array([rep.overall_blocking() for rep in reps])

    def _mean_ignoring_nan(values: np.ndarray) -> float:
        valid = values[~np.isnan(values)]
        return float(valid.mean()) if valid.size else float("nan")

    blocking = np.array([_mean_ignoring_nan(per_rep[:, k]) for k in range(num_classes)])
    overall = _mean_ignoring_nan(per_rep_overall)
    hist = np.sum([rep.occupancy_time for rep in reps], axis=0)
    total_time = sum(rep.measured_time for rep in reps)
    hist = hist / total_time if total_time > 0 else hist
    ci_available = r >= 2
    half_width = None
    overall_half_width = None
    if ci_available:
        half_width = np.full(num_classes, np.nan)
        for k in range(num_classes):
            vals = per_rep[:, k][~np.isnan(per_rep[:, k])]
            if vals.size >= 2:
                t_crit = stdtrit(vals.size - 1, 0.975)
                half_width[k] = t_crit * vals.std(ddof=1) / np.sqrt(vals.size)
        vals = per_rep_overall[~np.isnan(per_rep_overall)]
        if vals.size >= 2:
            t_crit = stdtrit(vals.size - 1, 0.975)
            overall_half_width = float(t_crit * vals.std(ddof=1) / np.sqrt(vals.size))
    return SimStats(
        offered=offered,
        blocked=blocked,
        blocking=blocking,
        half_width=half_width,
        overall_blocking=overall,
        overall_half_width=overall_half_width,
        occupancy_histogram=hist,
        replications=r,
        ci_available=ci_available,
        degenerate=bool(np.any(offered == 0)),
    )


def run_simulation(cfg: SystemConfig, params: SimParams) -> SimStats:
    """Run the configured number of markovian replications and report
    means with Student-t 95% half-widths across replications."""
    reps = [run_replication(cfg, params, r) for r in range(params.replications)]
    return _aggregate(reps, cfg.num_classes)


def _trace_replication(
    cfg: SystemConfig,
    trace: ArrivalTrace,
    holding: tuple[DistributionSpec, ...],
    horizon: float,
    warmup: float,
    rng: np.random.Generator,
) -> ReplicationResult:
    capacity = cfg.capacity
    band = cfg.bandwidths.tolist()
    thresh = cfg.thresholds.tolist()
    stop = int(np.searchsorted(trace.times, horizon))
    classes = trace.classes[:stop]
    # One holding time per in-horizon arrival, drawn class by class in
    # trace order; a blocked arrival leaves its draw unused.
    hold = np.empty(stop)
    for c, spec in enumerate(holding):
        mine = classes == c
        hold[mine] = sample_distribution(spec, rng, size=np.count_nonzero(mine))
    K = cfg.num_classes
    offered = [0] * K
    blocked = [0] * K
    occ_time = [0.0] * (capacity + 1)
    departures: list[tuple[float, int, int]] = []  # (time, seq, class)
    seq = 0
    occ = 0
    now = 0.0
    for t_arr, c, h in zip(
        trace.times[:stop].tolist(), classes.tolist(), hold.tolist()
    ):
        # Departures scheduled at the same instant free channels first.
        while departures and departures[0][0] <= t_arr:
            t_dep, _, dc = heapq.heappop(departures)
            lo = now if now > warmup else warmup
            if t_dep > lo:
                occ_time[occ] += t_dep - lo
            now = t_dep
            occ -= band[dc]
        lo = now if now > warmup else warmup
        if t_arr > lo:
            occ_time[occ] += t_arr - lo
        now = t_arr
        if t_arr >= warmup:
            offered[c] += 1
        if capacity - occ >= thresh[c]:
            occ += band[c]
            if occ > capacity:
                raise SimulationError("channel conservation violated")
            seq += 1
            heapq.heappush(departures, (t_arr + h, seq, c))
        elif t_arr >= warmup:
            blocked[c] += 1
    while departures and departures[0][0] < horizon:
        t_dep, _, dc = heapq.heappop(departures)
        lo = now if now > warmup else warmup
        if t_dep > lo:
            occ_time[occ] += t_dep - lo
        now = t_dep
        occ -= band[dc]
    lo = now if now > warmup else warmup
    if horizon > lo:
        occ_time[occ] += horizon - lo
    return ReplicationResult(
        offered=np.array(offered, dtype=np.int64),
        blocked=np.array(blocked, dtype=np.int64),
        occupancy_time=np.array(occ_time),
        measured_time=horizon - warmup,
    )


def run_trace_driven(
    cfg: SystemConfig,
    trace: ArrivalTrace,
    holding: tuple[DistributionSpec, ...],
    params: SimParams,
) -> SimStats:
    """Replay ``trace`` against the admission policy, with holding
    times from the per-class distributions.

    The trace is fixed across replications; only holding times are
    re-drawn, with seeds derived from ``params.seed``. Each replication
    draws them before its replay: one per arrival before the horizon,
    for class 0 first, then class 1 and so on, each class's in trace
    order. The measured window ends at the earlier of the trace horizon
    and ``params.horizon``.
    """
    validate_config(cfg)
    if len(holding) != cfg.num_classes:
        raise ValueError(
            f"need one holding-time distribution per class "
            f"({cfg.num_classes}), got {len(holding)}"
        )
    if trace.times.size and np.any(np.diff(trace.times) < 0):
        raise ValueError("trace times must be sorted")
    out_of_range = trace.classes[(trace.classes < 0) | (trace.classes >= cfg.num_classes)]
    if out_of_range.size:
        raise ValueError(
            f"trace class index {int(out_of_range[0])} out of range for "
            f"{cfg.num_classes} classes"
        )
    horizon = min(float(params.horizon), float(trace.horizon))
    warmup = min(params.effective_warmup, horizon)
    reps = []
    for r in range(params.replications):
        seed = splitmix64_stream(params.seed, r)
        rng = np.random.Generator(np.random.PCG64(seed))
        reps.append(_trace_replication(cfg, trace, holding, horizon, warmup, rng))
    return _aggregate(reps, cfg.num_classes)
