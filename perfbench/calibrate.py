"""Machine-speed calibration for the benchmark's timings.

On the shared 2-core Intel Xeon VM (Python 3.11.7) this benchmark was sized
on, the other tenants of the host change its speed by up to 1.5x over tens
of seconds. The same fixed work ran 1342 to 1993 complexes per second in six
12-second runs. A process cannot see this, and no run is long enough to
average it out. So after every op the worker times ``calibration_round``.
That is a fixed pure-Python routine of the same kind of work as ridgeline:
GF(2) elimination on bitmasks, set intersections, dict counting, tuple
sorting and JSON encoding. Each op's latency is then scaled by ``REFERENCE_ROUND_S``
over the local round time, which is the median of the rounds around that
op. In the same six runs the scaled throughput stayed within 1.4%.

Scaled times read as seconds on a machine whose round takes
``REFERENCE_ROUND_S``. The routine belongs to the benchmark, not to the
program, so a faster ridgeline gives faster scaled times. Changing the
routine or the constant moves every scaled metric, so keep both fixed.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from itertools import combinations

REFERENCE_ROUND_S = 0.001  # about one round on that VM
WINDOW = 9  # rounds in the local median: the op's own and four either side

_FACE = bytearray(1 if m.bit_count() <= 3 or (m.bit_count() == 4 and m % 7 == 0) else 0
                  for m in range(1 << 9))
_SETS = [frozenset(c) for c in combinations(range(8), 3)]


def _gf2_rank_profile(face: bytearray, n: int) -> list:
    by_card = [[] for _ in range(n + 1)]
    for m in range(1 << n):
        if face[m]:
            by_card[m.bit_count()].append(m)
    colidx = {}
    for p in range(n + 1):
        for k, m in enumerate(by_card[p]):
            colidx[m] = k
    ranks = [0] * (n + 2)
    for p in range(1, n + 1):
        basis = {}
        for m in by_card[p]:
            row = 0
            mm = m
            while mm:
                low = mm & -mm
                mm ^= low
                row |= 1 << colidx[m ^ low]
            while row:
                lead = row.bit_length() - 1
                b = basis.get(lead)
                if b is None:
                    basis[lead] = row
                    ranks[p] += 1
                    break
                row ^= b
    return ranks


def calibration_round() -> float:
    """Seconds one fixed round of work takes now, with the collector off so
    that the program's heap does not change the round."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _gf2_rank_profile(_FACE, 9)
        counts: dict = {}
        for a in _SETS[:20]:
            for b in _SETS:
                if len(a & b) == 2:
                    key = tuple(sorted(a | b))
                    counts[key] = counts.get(key, 0) + 1
        json.dumps({str(k): v for k, v in counts.items()}, sort_keys=True)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale_factors(rounds: list) -> list:
    """Per op, REFERENCE_ROUND_S over the median of the rounds around it."""
    half = WINDOW // 2
    return [REFERENCE_ROUND_S / statistics.median(rounds[max(0, k - half):k + half + 1])
            for k in range(len(rounds))]
