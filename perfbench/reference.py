"""A fixed reference computation that measures how fast the host runs right now.

On a shared host the same command's CPU time drifts by tens of percent
from minute to minute, as other tenants load the physical cores and
caches. The benchmark therefore runs this kernel just before every timed
command and reports the command's CPU time divided by the kernel's,
scaled by ``NOMINAL_CPU_S``: the command's CPU time at the host's
nominal speed. Steal time never reaches a CPU-time reading; speed drift
that slows the command also slows the kernel and cancels in the ratio.

The kernel is the benchmark's own code, so a change to ``caclab`` cannot
move it. It mixes the kinds of work the program does: interpreted float
arithmetic, calls and a heap (as in inverse-CDF sampling and trace
replay), an interpreter loop over numpy scalar indexing (as in the
simulation kernels) and rank-1 updates of a dense 358 x 358 matrix (as
in GTH elimination on the stock chains).
"""

import heapq
import time

import numpy as np

# Median CPU time of one ``kernel()`` call on the 2-core Xeon VM where the
# baseline was taken. A fixed unit conversion: changing it rescales every
# normalised metric.
NOMINAL_CPU_S = 0.11
# Kernel calls averaged per reading: one call is too short to average out
# the host's second-to-second jitter.
RUNS = 2

_SIZE = 358
_MATRIX = np.random.default_rng(20260811).random((_SIZE, _SIZE))
_BISECTIONS = 2500
_LOOP = 8000


def _ccdf(x: float, k: float, c: float, a: float, b: float) -> float:
    if x <= k:
        return 1.0
    return (x / k) ** (-a) * ((x + c) / (k + c)) ** (a - b)


def kernel() -> float:
    """The reference work; returns a checksum so nothing is optimised away."""
    heap = [(0.0, -1)]
    for i in range(_BISECTIONS):
        lo, hi, target = 0.05, 4.0, (i % 97 + 1) / 98.0
        while hi - lo > 1e-6:
            mid = 0.5 * (lo + hi)
            if _ccdf(mid, 0.05, 2.0, 0.9, 1.8) > target:
                lo = mid
            else:
                hi = mid
        heapq.heappush(heap, (lo, i))
        if len(heap) > 64:
            heapq.heappop(heap)
    counts = np.zeros(8, dtype=np.int64)
    acc = 0.0
    for i in range(_LOOP):
        k = i & 7
        counts[k] += 1
        acc += counts[k] * 0.5
    m = _MATRIX.copy()
    for k in range(_SIZE - 1, 0, -1):
        m[:k, :k] += np.outer(m[:k, k], m[k, :k]) / (m[k, k] + _SIZE)
    return heap[0][0] + acc + float(m[0, 0])


def kernel_cpu_s() -> float:
    """Mean CPU time of RUNS kernel calls in this process."""
    started = time.process_time()
    for _ in range(RUNS):
        kernel()
    return (time.process_time() - started) / RUNS
