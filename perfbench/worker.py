"""One phase of a benchmark run, in a fresh interpreter.

Usage: python3 perfbench/worker.py '<job JSON>'

The job names a mode:
  setup   import ridgeline and look up the workload, then stop;
  timed   run whole ladder cycles until --seconds have passed (and at least
          ``min_ops`` ops ran), timing each op;
  replay  run the fixed op list of a traced run, untraced;
  trace   the same list with every hook of ``spans`` installed;
  check   re-run a sample of ops by a second route and describe the inputs.
The worker prints READY once set up (the parent times set-up up to that
line) and a JSON result as its last line. ``_betti_entries`` is an
``lru_cache``, so each phase starts, like ``ridgeline verify``, with it cold.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import platform
import resource
import sys
import time
import traceback
from collections import Counter

from calibrate import calibration_round, scale_factors
from workloads import BETTI_QUERY_THEOREMS, INSTANCE_SEED_STRIDE, WORKLOADS


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_op(rl, op, field=None) -> object:
    theorem, n, d, r, trials, op_field, op_seed = op
    return rl.verify(theorem, ("random", n, d, r, trials), seed=op_seed,
                     field=field or op_field, stable_time=True)


def timed_op(rl, op) -> list:
    """[latency_s, digest, instances, trials, confirmations, counterexamples,
    skips] of one op, or [None, error] when it raised."""
    t0 = time.perf_counter()
    try:
        report = run_op(rl, op)
        text = report.to_json()
    except Exception:  # an op that raises is counted as failed, the run goes on
        return [None, traceback.format_exc(limit=4)]
    latency = time.perf_counter() - t0
    return [latency, digest(text), report.instances, report.trials,
            report.confirmations, len(report.counterexamples), len(report.skips)]


def run_ops(rl, wl, seed, count=None, seconds=None, min_ops=0, rss_ops=None,
            tracer=None) -> dict:
    """A fixed number of ops, or whole cycles until ``seconds`` have passed.

    A calibration round follows every op (see ``calibrate``). The peak RSS
    is read after ``rss_ops`` ops, a fixed amount of work, because the Betti
    cache keeps growing with every op a faster run fits in."""
    ops = []
    rounds = []
    peak_rss_kb = None
    k = 0
    t0 = time.perf_counter()
    while True:
        for _ in range(wl.cycle):
            if tracer is not None:
                tracer.op = k
            ops.append(timed_op(rl, wl.op(seed, k)))
            rounds.append(calibration_round())
            k += 1
            if k == rss_ops:
                peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if count is not None:
            if k >= count:
                break
        elif k >= min_ops and time.perf_counter() - t0 >= seconds:
            break
    wall = time.perf_counter() - t0
    if peak_rss_kb is None:
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"ops": ops, "rounds": rounds, "wall_s": wall, "peak_rss_mb": peak_rss_kb / 1024}


def second_route(rl, op) -> tuple:
    """(stable JSON of the op by another route, name of the route).

    betti2 and froberg are re-run over the other field; their reports must
    match except for the field name. With the compiled kernel, the check
    process runs on the pure-Python kernel; otherwise the op is re-run in
    this fresh interpreter, whose Betti cache has not seen the timed phase.
    """
    theorem, field = op[0], op[5]
    if theorem in BETTI_QUERY_THEOREMS:
        other = "rational" if field == "gf2" else "gf2"
        report = run_op(rl, op, field=other)
        return dataclasses.replace(report, field=field).to_json(), f"field {other}"
    route = "pure-Python kernel" if rl.COMPILED else "fresh re-run"
    return run_op(rl, op).to_json(), route


def describe(rl, wl, seed, count) -> dict:
    """Properties of the inputs of the first ``count`` ops, computed from the
    generated complexes: facet sizes, facets, support, and the share of Betti
    queries whose ideal was queried before (the Betti cache hit rate)."""
    sizes = Counter()
    facets = support = instances = queries = repeats = 0
    seen = set()
    for k in range(count):
        theorem, n, d, r, trials, _, op_seed = wl.op(seed, k)
        for t in range(trials):
            cx = rl.random_pure_complex(n, d, r, op_seed * INSTANCE_SEED_STRIDE + t)
            size = rl.facet_size(cx)
            instances += 1
            sizes[size] += 1
            facets += cx.facet_count
            support += len(cx.support)
            if theorem in BETTI_QUERY_THEOREMS and (theorem != "froberg" or size == 2):
                key = (cx.ambient, cx.facets)
                queries += 1
                repeats += key in seen
                seen.add(key)
    return {
        "sample_ops": count,
        "instances": instances,
        "facet_size_mix": {str(s): c / instances for s, c in sorted(sizes.items())},
        "mean_facets": facets / instances,
        "mean_support": support / instances,
        "betti_queries": queries,
        "betti_query_repeat_ratio": repeats / queries if queries else 0.0,
    }


def main() -> None:
    job = json.loads(sys.argv[1])
    import ridgeline as rl

    wl = WORKLOADS[job["workload"]]
    seed = job["seed"]
    print("READY", flush=True)
    mode = job["mode"]
    out = {"compiled": rl.COMPILED, "python": platform.python_version()}
    if mode == "timed":
        out.update(run_ops(rl, wl, seed, seconds=job["seconds"], min_ops=job["min_ops"],
                           rss_ops=job["rss_ops"]))
    elif mode == "replay":
        out.update(run_ops(rl, wl, seed, count=job["count"]))
    elif mode == "trace":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        out.update(run_ops(rl, wl, seed, count=job["count"], tracer=tracer))
        factors = scale_factors(out["rounds"])
        out["layers"] = tracer.layer_metrics(factors)
        out["absent_hooks"] = tracer.absent
        out["betti_queries"] = tracer.betti_queries
        out["betti_repeats"] = tracer.betti_repeats
        out["spans"] = len(tracer.start)
        tracer.write(job["spans_path"], factors)
    elif mode == "check":
        if rl.COMPILED:
            from ridgeline import _gf2fallback, kernels

            kernels.ranks_of_nonface_complex = _gf2fallback.ranks_of_nonface_complex
            kernels.ranks_of_facet_complex = _gf2fallback.ranks_of_facet_complex
        routes = []
        for k, expected in job["sample"]:
            try:
                text, route = second_route(rl, wl.op(seed, k))
                routes.append([k, digest(text) == expected, route])
            except Exception:  # a raising second route is a failed check
                routes.append([k, False, traceback.format_exc(limit=4)])
        out["routes"] = routes
        out["descriptors"] = describe(rl, wl, seed, job["describe_ops"])
    elif mode != "setup":
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out, separators=(",", ":")))


if __name__ == "__main__":
    main()
