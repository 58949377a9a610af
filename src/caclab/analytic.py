"""Markov-chain generators, steady-state solvers, and blocking formulas.

Five computation modes produce a :class:`BlockingReport`:

``ctmc``
    Exact multi-dimensional chain over per-class occupancy vectors with
    per-call exponential holding (departure rate ``n_i * mu_i``).
``literal1d``
    1-D chain over total occupancy with batch arrivals of size ``b_i``
    and *constant* per-class departure rates ``mu_i`` (a deliberately
    different model, kept separate from ``ctmc``).
``recurrence``
    Third-order linear recurrence over total occupancy, three classes
    only; per-class blocking read off single top states.
``kaufman_roberts`` / ``erlang_b``
    Classical complete-sharing oracles (thresholds equal to bandwidths,
    and the single-class unit-bandwidth case respectively).
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .errors import ConvergenceError, DegenerateChainError, ModePreconditionError
from .model import StateSpace, SystemConfig, enumerate_states, validate_config

MODES = ("ctmc", "literal1d", "recurrence", "kaufman_roberts", "erlang_b")

DEFAULT_DENSE_CEILING = 50_000
ROW_SUM_TOL = 1e-12
RESIDUAL_TOL = 1e-9


class RateMatrix:
    """Sparse CTMC generator with the conservation invariant built in.

    Constructed from off-diagonal entries only; each diagonal entry is
    set to the negative sum of its row so that every row sums to zero
    exactly. Off-diagonal rates must be non-negative.
    """

    def __init__(self, dimension: int, off_diagonal: dict[tuple[int, int], float]):
        self.dimension = int(dimension)
        count = len(off_diagonal)
        cells = np.array(list(off_diagonal), dtype=np.int64).reshape(count, 2)
        rates = np.fromiter(off_diagonal.values(), dtype=float, count=count)
        if np.any(cells[:, 0] == cells[:, 1]):
            raise ValueError("off-diagonal map must not contain diagonal entries")
        outside = np.flatnonzero(np.any((cells < 0) | (cells >= self.dimension), axis=1))
        if outside.size:
            i, j = cells[outside[0]]
            raise ValueError(f"entry ({i}, {j}) outside dimension {self.dimension}")
        negative = np.flatnonzero(rates < 0)
        if negative.size:
            i, j = cells[negative[0]]
            raise ValueError(f"negative rate {rates[negative[0]]} at ({i}, {j})")
        kept = rates > 0
        rows, cols, rates = cells[kept, 0], cells[kept, 1], rates[kept]
        # ufunc.at adds in entry order, so each row sum is accumulated
        # exactly as a left-to-right loop over the row's entries would.
        row_sums = np.zeros(self.dimension)
        np.add.at(row_sums, rows, rates)
        diag = np.flatnonzero(row_sums > 0)
        entries = dict(zip(zip(rows.tolist(), cols.tolist()), rates.tolist()))
        entries.update(zip(zip(diag.tolist(), diag.tolist()), (-row_sums[diag]).tolist()))
        self.entries = entries

    def to_dense(self) -> np.ndarray:
        q = np.zeros((self.dimension, self.dimension))
        for (i, j), rate in self.entries.items():
            q[i, j] = rate
        return q

    def to_csr(self) -> sp.csr_matrix:
        count = len(self.entries)
        cells = np.array(list(self.entries), dtype=np.int64).reshape(count, 2)
        vals = np.fromiter(self.entries.values(), dtype=float, count=count)
        return sp.csr_matrix(
            (vals, (cells[:, 0], cells[:, 1])), shape=(self.dimension, self.dimension)
        )

    def row_sums(self) -> np.ndarray:
        sums = np.zeros(self.dimension)
        for (i, _), rate in self.entries.items():
            sums[i] += rate
        return sums


@dataclass(frozen=True)
class SteadyStateDistribution:
    """Stationary probabilities aligned with a state space (or 0..N for
    the 1-D modes). ``residual`` is max |pi Q| from the solve that
    produced it, NaN when no chain was solved."""

    probabilities: np.ndarray
    residual: float = float("nan")

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        object.__setattr__(self, "probabilities", p)
        if np.any(p < -1e-12):
            raise ValueError("stationary probabilities must be non-negative")
        if abs(p.sum() - 1.0) > 1e-10:
            raise ValueError(f"stationary probabilities sum to {p.sum()!r}, not 1")

    @property
    def p0(self) -> float:
        """Probability of the empty system."""
        return float(self.probabilities[0])

    def __len__(self) -> int:
        return self.probabilities.shape[0]


@dataclass(frozen=True)
class BlockingReport:
    """Per-class and overall blocking probabilities with provenance."""

    per_class: np.ndarray
    overall: float
    mode: str
    validity_flag: bool
    residual: float | None = None
    detail: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "per_class", np.asarray(self.per_class, dtype=float))


@dataclass(frozen=True)
class RecurrenceResult:
    """Raw and normalized output of the recurrence mode.

    ``unnormalized`` runs P_0..P_N with P_0 = 1; ``load_ratio`` is the
    dimensionless per-class offered load (sum of arrival rates over sum
    of service rates, which reduces to lambda/mu under equal rates).
    """

    unnormalized: np.ndarray
    normalized: SteadyStateDistribution
    load_ratio: float


def build_generator(cfg: SystemConfig, space: StateSpace) -> RateMatrix:
    """Generator of the multi-class chain on ``space``.

    Class-i arrivals at rate lambda_i move to the state with one more
    class-i call whenever the free-channel threshold admits them;
    departures occur at rate ``n_i * mu_i``.
    """
    validate_config(cfg)
    lam = cfg.arrival_rates
    mu = cfg.service_rates
    thresholds = cfg.thresholds
    states = space.states
    free = space.free_channels(cfg)
    # Slot 2i holds state s's class-i arrival, slot 2i + 1 its class-i
    # departure, so the row-major walk below lists each state's
    # transitions in class order, arrival first: the order in which
    # RateMatrix sums the row into its diagonal.
    targets = np.full((len(space), 2 * cfg.num_classes), -1, dtype=np.int64)
    rates = np.zeros(targets.shape)
    for i in range(cfg.num_classes):
        for slot, step, present, rate in (
            (2 * i, 1, (free >= thresholds[i]) & (lam[i] > 0), lam[i]),
            (2 * i + 1, -1, states[:, i] > 0, states[:, i] * mu[i]),
        ):
            moved = states[present]
            moved[:, i] += step
            targets[present, slot] = space.indices_of(moved)
            rates[:, slot] = rate
    rows, slots = np.nonzero(targets >= 0)
    off = dict(
        zip(
            zip(rows.tolist(), targets[rows, slots].tolist()),
            rates[rows, slots].tolist(),
        )
    )
    return RateMatrix(len(space), off)


def build_literal_1d_generator(cfg: SystemConfig) -> RateMatrix:
    """1-D chain over total occupancy n = 0..N, three classes only.

    Class-i arrivals jump n -> n + b_i at rate lambda_i while at least
    A_i channels are free; class-i departures jump n -> n - b_i at the
    constant, state-independent rate mu_i whenever n >= b_i. In the
    interior (all thresholds satisfied) each row therefore balances
    inflows from {n - b_i} via arrival rates against outflow
    lambda_1+lambda_2+lambda_3+mu_1+mu_2+mu_3, which is the structure
    the per-class top-state blocking readout assumes.
    """
    validate_config(cfg)
    if cfg.num_classes != 3:
        raise ModePreconditionError(
            f"literal1d mode requires exactly 3 classes, got {cfg.num_classes}"
        )
    lam = cfg.arrival_rates
    mu = cfg.service_rates
    bands = cfg.bandwidths
    thresholds = cfg.thresholds
    capacity = cfg.capacity
    off: dict[tuple[int, int], float] = {}

    def add(row: int, col: int, rate: float):
        # Classes with equal bandwidths land on the same cell; rates add.
        off[(row, col)] = off.get((row, col), 0.0) + rate

    for n in range(capacity + 1):
        free = capacity - n
        for i in range(3):
            if lam[i] > 0 and free >= thresholds[i]:
                add(n, n + int(bands[i]), lam[i])
            if n >= bands[i] and mu[i] > 0:
                add(n, n - int(bands[i]), mu[i])
    return RateMatrix(capacity + 1, off)


def _gth_stationary(a: np.ndarray) -> np.ndarray:
    """Cancellation-free stationary vector of an irreducible generator.

    Grassmann-Taksar-Heyman elimination: states are folded away from
    the highest index down, redistributing each eliminated state's flow
    over the remaining ones using only additions, multiplications and
    divisions of non-negative rates. ``a`` holds the off-diagonal rates
    as a float array and is eliminated in place; diagonal entries are
    never read.

    Each fold touches only the generator's envelope: the rows from the
    first nonzero of column k and the columns from the first nonzero of
    row k. Outside that rectangle the dense update would add exact
    zeros, so the result is bit-identical to it, while a banded chain
    (such as the multi-class chain in lexicographic order) costs
    O(m b^2) for bandwidth b instead of O(m^3). The pivot sums and the
    back-substitution still run over full rows and columns, keeping
    their summation order.
    """
    m = a.shape[0]
    if m == 1:
        return np.ones(1)
    for k in range(m - 1, 0, -1):
        row = a[k, :k]
        s = row.sum()
        if s <= 0.0:
            raise DegenerateChainError(
                "chain is not irreducible on the reachable set"
            )
        col = a[:k, k]
        lo_c = int(np.argmax(col != 0.0))
        lo_r = int(np.argmax(row != 0.0))
        col[lo_c:] /= s
        a[lo_c:k, lo_r:k] += np.outer(col[lo_c:], row[lo_r:])
    pi = np.zeros(m)
    pi[0] = 1.0
    for k in range(1, m):
        pi[k] = pi[:k] @ a[:k, k]
    return pi / pi.sum()


def _power_sweep_stationary(
    q_csr: sp.csr_matrix, tol: float, max_sweeps: int
) -> np.ndarray:
    """Uniformized fixed-point sweep for chains past the dense ceiling."""
    m = q_csr.shape[0]
    diag = -q_csr.diagonal()
    rate = float(diag.max())
    if rate <= 0.0:
        raise DegenerateChainError("generator has no transitions")
    # Slack above the fastest exit rate keeps the transition kernel aperiodic.
    rate *= 1.01
    kernel = sp.identity(m, format="csr") + q_csr.multiply(1.0 / rate)
    pi = np.full(m, 1.0 / m)
    for _ in range(max_sweeps):
        nxt = pi @ kernel
        nxt = np.asarray(nxt).ravel()
        nxt /= nxt.sum()
        change = np.abs(nxt - pi).sum()
        pi = nxt
        if change <= tol:
            return pi
    raise ConvergenceError(
        f"fixed-point sweep did not reach {tol} within {max_sweeps} iterations"
    )


def _closed_reachable_subset(q_csr: sp.csr_matrix) -> np.ndarray:
    """Indices of the closed communicating class among states reachable
    from the empty state, ascending. Raises if it is not unique."""
    adjacency = q_csr.copy()
    adjacency.setdiag(0)
    adjacency.eliminate_zeros()
    adjacency.data = np.ones_like(adjacency.data)
    reachable = csgraph.breadth_first_order(
        adjacency, 0, directed=True, return_predecessors=False
    )
    reachable = np.sort(reachable)
    sub = adjacency[reachable][:, reachable]
    n_comp, labels = csgraph.connected_components(
        sub, directed=True, connection="strong"
    )
    # A component is closed when no edge leaves it.
    coo = sub.tocoo()
    src = labels[coo.row]
    open_comp = np.unique(src[src != labels[coo.col]])
    closed = np.setdiff1d(np.arange(n_comp), open_comp)
    if len(closed) != 1:
        raise DegenerateChainError(
            f"{len(closed)} closed communicating classes among reachable states"
        )
    return reachable[labels == closed[0]]


def steady_state(
    q: RateMatrix,
    dense_ceiling: int = DEFAULT_DENSE_CEILING,
    sweep_tol: float = 1e-12,
    max_sweeps: int = 1_000_000,
) -> SteadyStateDistribution:
    """Stationary distribution of ``q`` restricted to the closed class
    reachable from the empty state; zero elsewhere.

    Uses GTH elimination up to ``dense_ceiling`` states and the
    uniformized fixed-point sweep beyond it. The result is checked to
    satisfy max |pi Q| <= 1e-9.
    """
    dim = q.dimension
    if dim == 1:
        return SteadyStateDistribution(np.ones(1), residual=0.0)
    csr = q.to_csr()
    if csr.nnz == 0:
        raise DegenerateChainError(
            "all-zero generator with more than one state has no unique steady state"
        )
    support = _closed_reachable_subset(csr)
    pi = np.zeros(dim)
    if support.shape[0] == 1:
        pi[support[0]] = 1.0
    else:
        sub = csr[support][:, support]
        if support.shape[0] <= dense_ceiling:
            dense = sub.toarray()
            np.fill_diagonal(dense, 0.0)
            pi[support] = _gth_stationary(dense)
        else:
            pi[support] = _power_sweep_stationary(sub, sweep_tol, max_sweeps)
    residual = float(np.abs(pi @ csr).max())
    if residual > RESIDUAL_TOL:
        raise ConvergenceError(f"steady-state residual {residual:.3e} exceeds 1e-9")
    return SteadyStateDistribution(pi, residual=residual)


def _report_from_free_mass(
    free_mass: np.ndarray,
    cfg: SystemConfig,
    mode: str,
    residual: float | None,
) -> BlockingReport:
    """Blocking report from the stationary mass at each free-channel count.

    A class-i arrival is blocked exactly when fewer than A_i channels
    are free, so its blocking probability is the cumulative mass below
    its threshold. The shared cumulative sum makes the nesting of
    blocked sets (A_1 <= A_2 <= ...) exact even in floating point.
    """
    cumulative = np.cumsum(free_mass)
    thresholds = cfg.thresholds
    per_class = np.array([cumulative[a - 1] for a in thresholds])
    lam = cfg.arrival_rates
    lam_total = lam.sum()
    if lam_total > 0:
        overall = float(np.dot(lam, per_class) / lam_total)
    else:
        overall = float("nan")
    validity = bool(0.0 <= overall <= 1.0) if np.isfinite(overall) else False
    return BlockingReport(
        per_class=per_class,
        overall=overall,
        mode=mode,
        validity_flag=validity,
        residual=residual,
    )


def blocking_probabilities(
    pi: SteadyStateDistribution, cfg: SystemConfig, space: StateSpace
) -> BlockingReport:
    """Blocking report for the multi-class chain (PASTA: an arriving
    call sees the stationary distribution, so per-class blocking is the
    stationary mass of its blocked set). Overall blocking is the
    arrival-rate-weighted average; with no arrivals at all it is NaN
    and flagged invalid."""
    if len(pi) != len(space):
        raise ValueError(
            f"distribution has {len(pi)} entries but the space has {len(space)} states"
        )
    free = space.free_channels(cfg)
    free_mass = np.bincount(free, weights=pi.probabilities, minlength=cfg.capacity + 1)
    return _report_from_free_mass(free_mass, cfg, "ctmc", pi.residual)


def _blocking_from_occupancy_1d(
    pi: SteadyStateDistribution, cfg: SystemConfig, mode: str
) -> BlockingReport:
    occupancy = pi.probabilities
    # Occupancy level n leaves capacity - n channels free.
    free_mass = occupancy[::-1].copy()
    return _report_from_free_mass(free_mass, cfg, mode, pi.residual)


def erlang_b(capacity: int, offered_load: float) -> float:
    """Erlang-B blocking of an M/M/N/N loss system.

    Uses the stable recursion B_0 = 1,
    B_k = a B_{k-1} / (k + a B_{k-1}).
    """
    if capacity < 0:
        raise ValueError(f"capacity must be >= 0, got {capacity}")
    if offered_load < 0:
        raise ValueError(f"offered load must be >= 0, got {offered_load}")
    b = 1.0
    for k in range(1, int(capacity) + 1):
        b = offered_load * b / (k + offered_load * b)
    return b


def kaufman_roberts(
    capacity: int, classes: list[tuple[float, int]]
) -> tuple[np.ndarray, np.ndarray]:
    """Occupancy distribution and per-class blocking under complete
    sharing (admit whenever the call fits).

    ``classes`` is a list of (offered load a_i, bandwidth b_i) pairs.
    The occupancy recursion is j q(j) = sum_i a_i b_i q(j - b_i) with
    q(0) = 1, normalized afterwards; class i is blocked when fewer than
    b_i channels are free.
    """
    if capacity < 0:
        raise ValueError(f"capacity must be >= 0, got {capacity}")
    loads = [(float(a), int(b)) for a, b in classes]
    for a, b in loads:
        if a < 0:
            raise ValueError(f"offered load must be >= 0, got {a}")
        if b < 1:
            raise ValueError(f"bandwidth must be >= 1, got {b}")
    q = np.zeros(capacity + 1)
    q[0] = 1.0
    for j in range(1, capacity + 1):
        acc = 0.0
        for a, b in loads:
            if j - b >= 0:
                acc += a * b * q[j - b]
        q[j] = acc / j
    q /= q.sum()
    # Suffix sums give the mass at occupancy levels too full for b_i.
    suffix = np.concatenate([np.cumsum(q[::-1])[::-1], [0.0]])
    blocking = np.array(
        [1.0 if b > capacity else suffix[capacity - b + 1] for _, b in loads]
    )
    return q, blocking


def recurrence_blocking(
    cfg: SystemConfig, equal_rate: bool | None = None
) -> tuple[RecurrenceResult, BlockingReport]:
    """Three-class total-occupancy recurrence and its blocking readout.

    The sequence is seeded P_0 = 1 with P_{-1} = P_{-2} = 0 and run up
    to P_N, then normalized. In the equal-rate form (all arrival rates
    equal and all service rates equal) each step is
    P_n = (a/3)(P_{n-1} + P_{n-2} + P_{n-3}) with a = lambda/mu; the
    general form weights each lag by its own arrival rate and divides
    by the summed service rates. Per-class blocking is read off the
    top three normalized states (P_N, P_{N-1}, P_{N-2}); the overall
    figure (a/3)(P_N + P_{N-1} + P_{N-2}) can exceed 1 for large loads
    and is reported raw with ``validity_flag`` cleared rather than
    clamped.

    ``equal_rate``: None auto-detects; True insists (error on unequal
    rates); False forces the general form.
    """
    validate_config(cfg)
    if cfg.num_classes != 3:
        raise ModePreconditionError(
            f"recurrence mode requires exactly 3 classes, got {cfg.num_classes}"
        )
    lam = cfg.arrival_rates
    mu = cfg.service_rates
    rates_equal = bool(np.all(lam == lam[0]) and np.all(mu == mu[0]))
    if equal_rate is True and not rates_equal:
        raise ModePreconditionError(
            "equal-rate recurrence requested but arrival or service rates differ"
        )
    use_equal = rates_equal if equal_rate is None else equal_rate
    load_ratio = float(lam.sum() / mu.sum())
    capacity = cfg.capacity
    padded = np.zeros(capacity + 3)
    padded[2] = 1.0  # P_0, preceded by the zero seeds P_{-1}, P_{-2}
    if use_equal:
        factor = load_ratio / 3.0
        for n in range(1, capacity + 1):
            padded[n + 2] = factor * (padded[n + 1] + padded[n] + padded[n - 1])
        detail = "equal_rate"
    else:
        mu_total = mu.sum()
        for n in range(1, capacity + 1):
            padded[n + 2] = (
                lam[0] * padded[n + 1] + lam[1] * padded[n] + lam[2] * padded[n - 1]
            ) / mu_total
        detail = "general"
    unnormalized = padded[2:]
    normalized = unnormalized / unnormalized.sum()
    top = [normalized[capacity - k] if capacity - k >= 0 else 0.0 for k in range(3)]
    per_class = np.array(top)
    overall = float(load_ratio / 3.0 * per_class.sum())
    report = BlockingReport(
        per_class=per_class,
        overall=overall,
        mode="recurrence",
        validity_flag=bool(0.0 <= overall <= 1.0),
        detail=detail,
    )
    result = RecurrenceResult(
        unnormalized=unnormalized,
        normalized=SteadyStateDistribution(normalized),
        load_ratio=load_ratio,
    )
    return result, report


def solve(
    cfg: SystemConfig,
    mode: str,
    equal_rate: bool | None = None,
    dense_ceiling: int = DEFAULT_DENSE_CEILING,
    max_states: int | None = None,
) -> BlockingReport:
    """Blocking report for ``cfg`` under the given computation mode."""
    validate_config(cfg)
    if mode == "ctmc":
        kwargs = {} if max_states is None else {"max_states": max_states}
        space = enumerate_states(cfg, **kwargs)
        q = build_generator(cfg, space)
        pi = steady_state(q, dense_ceiling=dense_ceiling)
        return blocking_probabilities(pi, cfg, space)
    if mode == "literal1d":
        q = build_literal_1d_generator(cfg)
        pi = steady_state(q, dense_ceiling=dense_ceiling)
        return _blocking_from_occupancy_1d(pi, cfg, "literal1d")
    if mode == "recurrence":
        _, report = recurrence_blocking(cfg, equal_rate=equal_rate)
        return report
    if mode == "kaufman_roberts":
        loads = [
            (c.arrival_rate / c.service_rate, c.bandwidth) for c in cfg.classes
        ]
        _, blocking = kaufman_roberts(cfg.capacity, loads)
        lam = cfg.arrival_rates
        overall = (
            float(np.dot(lam, blocking) / lam.sum()) if lam.sum() > 0 else float("nan")
        )
        return BlockingReport(
            per_class=blocking,
            overall=overall,
            mode="kaufman_roberts",
            validity_flag=bool(np.isfinite(overall) and 0.0 <= overall <= 1.0),
        )
    if mode == "erlang_b":
        if cfg.num_classes != 1:
            raise ModePreconditionError(
                f"erlang_b mode requires a single class, got {cfg.num_classes}"
            )
        cls = cfg.classes[0]
        if cls.bandwidth != 1 or cls.admission_threshold != 1:
            raise ModePreconditionError(
                "erlang_b mode requires bandwidth 1 and admission threshold 1"
            )
        b = erlang_b(cfg.capacity, cls.arrival_rate / cls.service_rate)
        return BlockingReport(
            per_class=np.array([b]),
            overall=b,
            mode="erlang_b",
            validity_flag=True,
        )
    raise ModePreconditionError(f"unknown mode {mode!r}; expected one of {MODES}")
