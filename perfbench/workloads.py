"""Workload ladders and the seeded operation schedule.

An operation is one ``ridgeline.verify(theorem, ("random", n, d, r, trials),
seed=op_seed, field=field, stable_time=True)`` call followed by
``report.to_json()``: the library call behind
``ridgeline verify --random n,d,r,trials --seed op_seed --stable-output``.
Operation k of a workload runs row ``k % cycle`` of its ladder (theorems
outermost), so any whole number of cycles holds every row equally often.
Its ``op_seed`` is a hash of the workload name, the workload seed and k, so
the same workload seed gives the same inputs, and any operation can be
rebuilt on its own in another process.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

# Per-instance seed rule of random verify corpora and of ``ridgeline
# generate``: instance t of a corpus run with seed s uses s * 1_000_003 + t.
INSTANCE_SEED_STRIDE = 1_000_003

# Theorems whose checks query the Betti scan once per instance: ``betti2``
# asks beta_in_degree of the facet ideal, ``froberg`` asks betti_table of
# the edge ideal (both ideals are fixed by n and the facets).
BETTI_QUERY_THEOREMS = ("betti2", "froberg")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    theorems: tuple
    field: str
    trials: int
    ladder: tuple  # (n, d, r) rows
    # ops per second of the traced run's fixed op list, sized so that on a
    # 2-core machine the untraced replay of that list takes about 0.3 of
    # --seconds with the pure-Python kernel
    trace_ops_per_s: float

    @property
    def cycle(self) -> int:
        return len(self.theorems) * len(self.ladder)

    def op(self, seed: int, k: int) -> tuple:
        """(theorem, n, d, r, trials, field, op_seed) of operation k."""
        theorem = self.theorems[(k % self.cycle) // len(self.ladder)]
        n, d, r = self.ladder[k % len(self.ladder)]
        key = f"{self.name}:{seed}:{k}".encode()
        op_seed = int.from_bytes(hashlib.sha256(key).digest()[:4], "big")
        return (theorem, n, d, r, self.trials, self.field, op_seed)

    def trace_op_count(self, seconds: float) -> int:
        """Length of the traced run's fixed op list: whole cycles, at least one."""
        cycles = round(seconds * self.trace_ops_per_s / self.cycle)
        return max(1, cycles) * self.cycle


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="betti-gf2",
            why="betti2 over GF(2): single-degree Hochster scans, so the GF(2) "
                "kernel, the window scan and the beta_2 prediction dominate",
            theorems=("betti2",),
            field="gf2",
            trials=20,
            ladder=((7, 3, 6), (8, 3, 7), (8, 2, 9), (7, 4, 5), (9, 3, 8), (6, 3, 8)),
            trace_ops_per_s=12.0,
        ),
        Workload(
            name="tables-rational",
            why="froberg over the rationals on edge graphs: whole Betti tables, "
                "their cache and the rational rank routine; no GF(2) kernel call",
            theorems=("froberg",),
            field="rational",
            trials=15,
            ladder=((6, 2, 6), (6, 2, 8), (7, 2, 9), (7, 2, 12), (6, 2, 10), (7, 2, 7)),
            trace_ops_per_s=10.0,
        ),
        Workload(
            name="searches",
            why="chordal-main, dual-chordal, shellable-connected: the bounded "
                "minor chase and shelling searches; no Betti work",
            theorems=("chordal-main", "dual-chordal", "shellable-connected"),
            field="gf2",
            trials=30,
            ladder=((6, 3, 5), (6, 3, 7), (7, 3, 6)),
            trace_ops_per_s=15.0,
        ),
        Workload(
            name="linegraph-census",
            why="five line-graph statements on bigger complexes: corpus "
                "generation, clique partitions, induced stars, ridge adjacency",
            theorems=("edge-count", "star-free", "clique-partition", "deltac", "complete"),
            field="gf2",
            trials=15,
            ladder=((12, 3, 30), (14, 4, 40), (16, 5, 50), (10, 3, 60)),
            trace_ops_per_s=10.0,
        ),
    )
}
