"""Benchmark the compiled GF(2) kernels against the pure-Python fallback.

Two workloads, both taken straight from the hot paths of the Betti-table
scan: rank profiles of facet complexes (homology) and of non-face complexes
restricted to vertex windows (Hochster scans). Identical inputs go through
both implementations; outputs are compared before timings are reported, so a
speedup claim is also a correctness check.

Run as:  python3 benchmarks/bench_kernels.py [--seed N] [--repeat R]
"""

import argparse
import random
import time

from ridgeline import COMPILED, random_pure_complex
from ridgeline import _gf2fallback as fallback

if COMPILED:
    from ridgeline import _gf2core as compiled
else:
    compiled = None


def facet_workload(seed: int):
    """(masks, n) pairs from random pure complexes across a size ladder."""
    cases = []
    grid = [(8, 3, 12), (10, 4, 25), (12, 5, 40), (14, 6, 60), (16, 5, 90)]
    for k, (n, d, r) in enumerate(grid):
        for t in range(6):
            cx = random_pure_complex(n, d, r, seed + 97 * k + t)
            pos = {v: i for i, v in enumerate(cx.support)}
            masks = []
            for f in cx.facets:
                m = 0
                for v in f:
                    m |= 1 << pos[v]
                masks.append(m)
            cases.append((masks, len(cx.support)))
    return cases


def window_workload(seed: int):
    """(generator masks, window mask) pairs mimicking a Hochster scan.

    The scan sends a window to the kernel only when it is the union of the
    generators inside it, so random windows are kept only when they are.
    """
    rng = random.Random(seed)
    cases = []
    for n in (10, 12, 14, 16):
        gens = []
        while len(gens) < 2 * n:
            m = 0
            for v in rng.sample(range(n), rng.randint(2, 4)):
                m |= 1 << v
            if m not in gens:
                gens.append(m)
        kept = 0
        while kept < 40:
            w = 0
            for v in rng.sample(range(n), rng.randint(4, min(9, n))):
                w |= 1 << v
            cover = 0
            for g in gens:
                if not g & ~w:
                    cover |= g
            if cover == w:
                cases.append((gens, w))
                kept += 1
    return cases


def run(fn, cases, repeat):
    best = None
    out = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = [fn(*args) for args in cases]
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=20240817)
    ap.add_argument("--repeat", type=int, default=3,
                    help="timing repeats; the best run is reported")
    args = ap.parse_args()

    workloads = [
        ("facet-complex ranks", "ranks_of_facet_complex", facet_workload(args.seed)),
        ("non-face window ranks", "ranks_of_nonface_complex", window_workload(args.seed)),
    ]

    if compiled is None:
        print("compiled kernel not available in this install; "
              "timing the pure-Python fallback only")
    print(f"{'workload':<24}{'cases':>7}{'pure (s)':>12}"
          + (f"{'compiled (s)':>14}{'speedup':>9}" if compiled else ""))
    for label, fn_name, cases in workloads:
        pure_t, pure_out = run(getattr(fallback, fn_name), cases, args.repeat)
        line = f"{label:<24}{len(cases):>7}{pure_t:>12.4f}"
        if compiled is not None:
            comp_t, comp_out = run(getattr(compiled, fn_name), cases, args.repeat)
            if comp_out != pure_out:
                raise SystemExit(f"MISMATCH between kernels on {label}")
            line += f"{comp_t:>14.4f}{pure_t / comp_t:>8.1f}x"
        print(line)
    if compiled is not None:
        print("outputs of both kernels identical on every case")


if __name__ == "__main__":
    main()
