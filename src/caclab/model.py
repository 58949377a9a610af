"""Scenario configuration, admission policy, and state-space enumeration.

The system is a pool of ``capacity`` identical channels shared by K
traffic classes. A class-i call consumes ``bandwidth[i]`` channels for
its whole holding time and is admitted only while at least
``admission_threshold[i]`` channels are free, so higher-indexed
(lower-priority) classes are shut out first as the pool fills up.
"""

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, StateSpaceLimitError

DEFAULT_MAX_STATES = 2_000_000


@dataclass(frozen=True)
class TrafficClassSpec:
    """One traffic class: Poisson arrivals, exponential holding times,
    a fixed per-call channel demand, and a free-channel admission
    threshold.

    ``admission_threshold`` is the minimum number of free channels
    required to admit a call; ``free == admission_threshold`` admits.
    """

    name: str
    arrival_rate: float
    service_rate: float
    bandwidth: int = 1
    admission_threshold: int = 1


@dataclass(frozen=True)
class SystemConfig:
    """A complete scenario: pooled capacity plus the ordered class list.

    Classes are listed in priority order (index 0 = highest priority);
    thresholds must be non-decreasing along the list so that lower
    priority classes are blocked earlier. ``rat_labels`` is inert
    metadata naming the radio technologies whose capacity is pooled.
    """

    capacity: int
    classes: tuple[TrafficClassSpec, ...]
    rat_labels: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "classes", tuple(self.classes))
        if self.rat_labels is not None:
            object.__setattr__(self, "rat_labels", tuple(self.rat_labels))

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    @property
    def arrival_rates(self) -> np.ndarray:
        return np.array([c.arrival_rate for c in self.classes], dtype=float)

    @property
    def service_rates(self) -> np.ndarray:
        return np.array([c.service_rate for c in self.classes], dtype=float)

    @property
    def bandwidths(self) -> np.ndarray:
        return np.array([c.bandwidth for c in self.classes], dtype=np.int64)

    @property
    def thresholds(self) -> np.ndarray:
        return np.array([c.admission_threshold for c in self.classes], dtype=np.int64)

    def with_arrival_rate(self, class_index: int, arrival_rate: float) -> "SystemConfig":
        """Copy of this config with one class's arrival rate replaced."""
        if not 0 <= class_index < self.num_classes:
            raise IndexError(f"class index {class_index} out of range")
        classes = list(self.classes)
        old = classes[class_index]
        classes[class_index] = TrafficClassSpec(
            name=old.name,
            arrival_rate=float(arrival_rate),
            service_rate=old.service_rate,
            bandwidth=old.bandwidth,
            admission_threshold=old.admission_threshold,
        )
        return SystemConfig(self.capacity, tuple(classes), self.rat_labels)


def validate_config(cfg: SystemConfig) -> SystemConfig:
    """Check every invariant and return the config unchanged if all hold.

    Raises :class:`ConfigError` carrying one message per violation.
    """
    violations = []
    if cfg.capacity < 1:
        violations.append(f"capacity must be >= 1, got {cfg.capacity}")
    if not cfg.classes:
        violations.append("class list is empty")
    for i, cls in enumerate(cfg.classes):
        tag = f"class {i + 1} ({cls.name!r})"
        if cls.arrival_rate < 0:
            violations.append(f"{tag}: arrival_rate must be >= 0, got {cls.arrival_rate}")
        if cls.service_rate <= 0:
            violations.append(f"{tag}: service_rate must be > 0, got {cls.service_rate}")
        if cls.bandwidth < 1:
            violations.append(f"{tag}: bandwidth must be >= 1, got {cls.bandwidth}")
        if cls.admission_threshold < 1:
            violations.append(
                f"{tag}: admission_threshold must be >= 1, got {cls.admission_threshold}"
            )
        elif cls.admission_threshold < cls.bandwidth:
            violations.append(
                f"{tag}: admission_threshold {cls.admission_threshold} is below "
                f"bandwidth {cls.bandwidth}"
            )
        if cls.admission_threshold > cfg.capacity:
            violations.append(
                f"{tag}: threshold exceeds capacity "
                f"({cls.admission_threshold} > {cfg.capacity})"
            )
    thresholds = [c.admission_threshold for c in cfg.classes]
    if any(a > b for a, b in zip(thresholds, thresholds[1:])):
        violations.append(
            f"thresholds not non-decreasing in class index: {tuple(thresholds)}"
        )
    if violations:
        raise ConfigError(violations)
    return cfg


def free_channels(state: Sequence[int], cfg: SystemConfig) -> int:
    """Channels left unused in the occupancy vector ``state``."""
    used = int(np.dot(np.asarray(state, dtype=np.int64), cfg.bandwidths))
    return cfg.capacity - used


def admissible(state: Sequence[int], class_index: int, cfg: SystemConfig) -> bool:
    """True iff a new class ``class_index`` call may be admitted in ``state``.

    Admission requires at least ``admission_threshold`` free channels;
    equality admits.
    """
    if not 0 <= class_index < cfg.num_classes:
        raise IndexError(f"class index {class_index} out of range")
    return free_channels(state, cfg) >= cfg.classes[class_index].admission_threshold


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One opaque key per occupancy row. Big-endian bytes compare in the
    lexicographic order of non-negative counts, so the keys sort and
    search like the rows themselves, in O(rows x classes) memory."""
    rows = np.ascontiguousarray(rows, dtype=">i8")
    return rows.view(f"V{rows.shape[1] * rows.itemsize}").ravel()


class StateSpace:
    """All feasible occupancy vectors, in lexicographic order.

    ``states`` is an (S, K) int array; ``indices_of`` and ``index_of``
    map occupancy vectors back to their ordinals by binary search over
    the sorted row keys. The all-zero state is always index 0.
    """

    def __init__(self, states: np.ndarray):
        self.states = np.asarray(states, dtype=np.int64)
        keys = _row_keys(self.states)
        self._order = np.argsort(keys, kind="stable")
        self._sorted_keys = keys[self._order]

    def __len__(self) -> int:
        return self.states.shape[0]

    def __iter__(self) -> Iterable[tuple[int, ...]]:
        return (tuple(row) for row in self.states.tolist())

    def indices_of(self, rows: np.ndarray) -> np.ndarray:
        """Ordinal of every occupancy row in the (n, K) array ``rows``.

        Raises ``KeyError`` naming the first row that is not a state of
        this space.
        """
        keys = _row_keys(rows)
        pos = np.searchsorted(self._sorted_keys, keys)
        clipped = np.minimum(pos, len(self._sorted_keys) - 1)
        missing = np.flatnonzero(self._sorted_keys[clipped] != keys)
        if missing.size:
            occ = tuple(int(n) for n in rows[missing[0]])
            raise KeyError(f"state {occ} is not feasible for this space")
        return self._order[pos]

    def index_of(self, state: Sequence[int]) -> int:
        occ = tuple(int(n) for n in state)
        if len(occ) != self.states.shape[1] or not all(0 <= n < 2**63 for n in occ):
            raise KeyError(f"state {occ} is not feasible for this space")
        return int(self.indices_of(np.array([occ], dtype=np.int64))[0])

    def free_channels(self, cfg: SystemConfig) -> np.ndarray:
        """Free-channel count for every state, aligned with ``states``."""
        return cfg.capacity - self.states @ cfg.bandwidths


def enumerate_states(cfg: SystemConfig, max_states: int = DEFAULT_MAX_STATES) -> StateSpace:
    """Enumerate every occupancy vector with total demand within capacity.

    States are generated in lexicographic order over (n_1 ... n_K),
    so indices are reproducible across runs. Raises
    :class:`StateSpaceLimitError` when the count would exceed
    ``max_states`` (reduce capacity or use the 1-D aggregate mode).
    """
    validate_config(cfg)
    bands = [int(c.bandwidth) for c in cfg.classes]
    capacity = cfg.capacity
    states: list[tuple[int, ...]] = []

    def extend(prefix: list[int], used: int, depth: int):
        if depth == len(bands):
            if len(states) >= max_states:
                raise StateSpaceLimitError(
                    f"state count exceeds the safety limit of {max_states}; "
                    "reduce capacity or use the 1-D aggregate mode"
                )
            states.append(tuple(prefix))
            return
        b = bands[depth]
        for n in range((capacity - used) // b + 1):
            prefix.append(n)
            extend(prefix, used + n * b, depth + 1)
            prefix.pop()

    extend([], 0, 0)
    return StateSpace(np.array(states, dtype=np.int64))
