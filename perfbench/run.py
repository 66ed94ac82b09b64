"""Layered benchmark of ``ridgeline verify``.

Usage, from the root of the repository:

  python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each phase of a run is a fresh interpreter (see ``worker.py``); the load is
one process and one thread, a closed loop that issues the next op when the
previous one returns. With ``--trace 0`` a run times whole ladder cycles for
``--seconds`` (at least 100 ops) and reports the end-to-end metrics; with
``--trace 1`` it replays a fixed op list untraced, then traced, and reports
the per-layer metrics. Times are scaled to a reference machine speed by the
calibration rounds of ``calibrate.py``. Every op's output is checked before
any metric is printed: against frozen digests in ``reference.json`` for the
reference seed, by report invariants for every seed, and by a second route
for a sample of ops. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. The whole result,
with the environment and the workload descriptors, is also written to
``.perfbench_out/``, and a traced run writes its spans there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from calibrate import REFERENCE_ROUND_S, calibration_round, scale_factors
from spans import LAYER_METRICS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"
REFERENCE_SEED = 1  # the default seed; reference.json holds its op digests

MIN_OPS = 100  # so that at least 10 latency samples lie beyond p90
SETUP_PROBES = 11  # fresh interpreters timed from spawn to READY
RUN_LIMIT_S = 170  # every child of one workload run must end within this
PYTHONHASHSEED = "0"

END_TO_END = {
    "throughput_inst_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """A phase could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("FRL_BUDGET", None)  # every search runs with the default budget
    env["PYTHONHASHSEED"] = PYTHONHASHSEED
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(job: dict, deadline: float) -> tuple:
    """(set-up seconds, result) of one worker phase; the set-up time runs
    from the spawn to the worker's READY line."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
        stdout=subprocess.PIPE, cwd=ROOT, env=child_env(), text=True,
    )
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or proc.returncode != 0 or not rest.strip():
        raise BenchError(f"{job['mode']} phase of {job['workload']} exited with "
                         f"code {proc.returncode}")
    try:
        return setup, json.loads(rest.strip().splitlines()[-1])
    except ValueError as exc:
        raise BenchError(f"{job['mode']} phase of {job['workload']} printed no result") from exc


def source_identity() -> dict:
    """Git commit when the root is a git work tree, and a digest of the
    package sources either way (benchmark checkouts need not be git trees)."""
    commit = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ridgeline").glob("*.py*")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_commit": commit, "src_sha256": h.hexdigest()}


def load_reference(name: str, seed: int, trials: int) -> list:
    """Frozen op digests for this workload, or [] when the seed (or the
    trial count) is not the one they were made with."""
    ref = json.loads(REFERENCE.read_text())
    entry = ref["workloads"].get(name)
    if ref["seed"] != seed or entry is None or entry["trials"] != trials:
        return []
    return entry["digests"]


def sample_ops(n_ops: int, cycle: int) -> list:
    """The first and the last ladder cycle: every row, early and late."""
    return sorted(set(range(cycle)) | set(range(n_ops - cycle, n_ops)))


def op_failures(wl, ops: list, reference: list, routes: list) -> dict:
    """op index -> reason, for every op that raised or failed a check."""
    failed = {}
    for k, rec in enumerate(ops):
        if rec[0] is None:
            failed[k] = "raised: " + rec[1].strip().splitlines()[-1]
            continue
        _, dig, instances, trials, confirmations, counterexamples, skips = rec
        if instances != wl.trials:
            failed[k] = f"{instances} instances for {wl.trials} trials requested"
        elif confirmations + counterexamples != trials or trials + skips != instances:
            failed[k] = "report counts out of balance"
        elif k < len(reference) and dig != reference[k]:
            failed[k] = "stable JSON differs from the reference digest"
    for k, ok, route in routes:
        if not ok:
            failed.setdefault(k, f"second route ({route.strip().splitlines()[-1]}) disagrees")
    return failed


def check(wl, seed: int, seconds: float, ops: list, deadline: float) -> tuple:
    """(failures, second routes, descriptors) for the ops of one phase."""
    sample = [[k, ops[k][1]] for k in sample_ops(len(ops), wl.cycle) if ops[k][0] is not None]
    _, result = run_child({"mode": "check", "workload": wl.name, "seed": seed, "sample": sample,
                           "describe_ops": wl.trace_op_count(seconds)}, deadline)
    reference = load_reference(wl.name, seed, wl.trials)
    failures = op_failures(wl, ops, reference, result["routes"])
    return failures, result["routes"], result["descriptors"]


def scaled_latencies(phase: dict) -> list:
    """Each op's latency scaled to the reference machine speed; None for an
    op that raised."""
    return [None if rec[0] is None else rec[0] * f
            for rec, f in zip(phase["ops"], scale_factors(phase["rounds"]))]


def cycle_throughputs(ops: list, latencies: list, cycle: int) -> list:
    """Instances per second of each whole ladder cycle."""
    rates = []
    for c in range(0, len(ops) - cycle + 1, cycle):
        done = [(rec[2], lat) for rec, lat in zip(ops[c:c + cycle], latencies[c:c + cycle])
                if lat is not None]
        if done:
            rates.append(sum(i for i, _ in done) / sum(lat for _, lat in done))
    return rates


def middle_tenth_mean(values: list) -> float:
    """The median estimated as the mean of the middle tenth of the sorted
    values. A ladder whose rows split op latencies into a fast and a slow
    cluster of equal size puts the plain median between two extreme ops;
    this estimate averages the ops on both sides of the gap instead."""
    s = sorted(values)
    lo = int(len(s) * 0.45)
    hi = max(lo + 1, int(len(s) * 0.55))
    return sum(s[lo:hi]) / (hi - lo)


def latency_metrics(wl, ops: list, latencies: list) -> dict:
    """Throughput and latency percentiles of one phase. The median over
    cycles keeps a rare pathological instance, such as a clique partition
    that backtracks for seconds, from swinging throughput; the slowest op is
    still reported beside the metrics."""
    done = [x for x in latencies if x is not None]
    p90 = statistics.quantiles(done, n=10)[8]
    return {
        "throughput_inst_per_s": statistics.median(cycle_throughputs(ops, latencies, wl.cycle)),
        "op_p50_ms": middle_tenth_mean(done) * 1000,
        "op_p90_ms": p90 * 1000,
        "latency_samples": len(done),
        "beyond_p90": sum(1 for x in done if x > p90),
        "op_max_ms": max(done) * 1000,
    }


def setup_samples(base: dict, deadline: float) -> tuple:
    """(scaled, raw) set-up times of SETUP_PROBES fresh interpreters, each
    scaled by calibration rounds the idle parent runs around it."""
    rounds = [[calibration_round() for _ in range(3)]]
    raw = []
    for _ in range(SETUP_PROBES):
        raw.append(run_child({**base, "mode": "setup"}, deadline)[0])
        rounds.append([calibration_round() for _ in range(3)])
    scaled = [t * REFERENCE_ROUND_S / statistics.median(rounds[k] + rounds[k + 1])
              for k, t in enumerate(raw)]
    return scaled, raw


def bench(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One workload run; returns the full result document."""
    wl = WORKLOADS[name]
    deadline = time.monotonic() + RUN_LIMIT_S
    base = {"workload": name, "seed": seed}
    OUT_DIR.mkdir(exist_ok=True)
    if not trace:
        setups, raw_setups = setup_samples(base, deadline)
        _, phase = run_child({**base, "mode": "timed", "seconds": seconds, "min_ops": MIN_OPS,
                              "rss_ops": wl.trace_op_count(seconds)}, deadline)
        ops = phase["ops"]
        failures, routes, descriptors = check(wl, seed, seconds, ops, deadline)
        scaled = latency_metrics(wl, ops, scaled_latencies(phase))
        raw = latency_metrics(wl, ops, [rec[0] for rec in ops])
        metrics = {**scaled, "setup_s": statistics.median(setups),
                   "peak_rss_mb": phase["peak_rss_mb"]}
        units = END_TO_END
        extra = {key: scaled[key] for key in ("latency_samples", "beyond_p90", "op_max_ms")}
        extra["unscaled"] = {**{m: raw[m] for m in ("throughput_inst_per_s", "op_p50_ms",
                                                   "op_p90_ms", "op_max_ms")},
                             "setup_s": statistics.median(raw_setups)}
        extra["setup_samples_s"] = setups
    else:
        count = wl.trace_op_count(seconds)
        spans_path = OUT_DIR / f"spans-{name}.json.gz"  # the latest traced run only
        _, plain = run_child({**base, "mode": "replay", "count": count}, deadline)
        _, phase = run_child({**base, "mode": "trace", "count": count,
                              "spans_path": str(spans_path)}, deadline)
        ops = phase["ops"]
        failures, routes, descriptors = check(wl, seed, seconds, ops, deadline)
        for k, (a, b) in enumerate(zip(plain["ops"], ops)):
            if a[1] != b[1]:
                failures.setdefault(k, "traced and untraced outputs differ")
        traced = sum(x for x in scaled_latencies(phase) if x is not None)
        untraced = sum(x for x in scaled_latencies(plain) if x is not None)
        metrics = {**phase["layers"], "trace.overhead_ratio": traced / untraced}
        units = LAYER_METRICS
        extra = {"spans_file": str(spans_path.relative_to(ROOT)), "spans": phase["spans"],
                 "absent_hooks": phase["absent_hooks"],
                 "unscaled": {"trace.overhead_ratio": phase["wall_s"] / plain["wall_s"]},
                 "trace_betti_queries": phase["betti_queries"],
                 "trace_betti_repeats": phase["betti_repeats"]}
    done = [rec for rec in ops if rec[0] is not None]
    env = {
        "compiled": phase["compiled"],
        "python": phase["python"],
        "nproc": len(os.sched_getaffinity(0)),
        **source_identity(),
        "workload_seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "ops": len(ops),
        "instances": sum(rec[2] for rec in done),
        "wall_s": phase["wall_s"],
        "calibration_s": sum(phase["rounds"]),
        "child_pythonhashseed": PYTHONHASHSEED,
    }
    return {
        "workload": name,
        "why": wl.why,
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "failed_op_ratio": len(failures) / len(ops),
        "failures": {str(k): v for k, v in sorted(failures.items())},
        "second_routes": routes,
        "metrics": {m: {"value": metrics[m], "unit": u} for m, u in units.items()},
        "env": env,
        "descriptors": descriptors,
        **extra,
    }


def print_result(res: dict) -> None:
    env = res["env"]
    print(f"== {res['workload']}  seed {env['workload_seed']}  trace {env['trace']}  "
          f"({res['why']})")
    for name, m in res["metrics"].items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'failed_op_ratio':<40} {res['failed_op_ratio']:>14.6g} ratio  "
          f"({res['failed']} of {res['attempted']} ops)")
    if "latency_samples" in res:
        print(f"  samples: {res['latency_samples']} op latencies, {res['beyond_p90']} beyond "
              f"p90, slowest {res['op_max_ms']:.1f} ms")
    print(f"  {env['instances']} instances in {env['wall_s']:.2f} s, "
          f"{env['calibration_s']:.2f} s of it calibration rounds")
    print("  unscaled wall-clock values: "
          + ", ".join(f"{m} {v:.6g}" for m, v in res["unscaled"].items()))
    for k, reason in list(res["failures"].items())[:5]:
        print(f"  FAILED op {k}: {reason}")
    print("env " + json.dumps(env, sort_keys=True))
    print("descriptors " + json.dumps(res["descriptors"], sort_keys=True))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ridgeline" / "__init__.py").is_file():
        print(f"no ridgeline sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        try:
            res = bench(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
        tag = f"{name}-seed{args.seed}-trace{args.trace}"
        (OUT_DIR / f"{tag}.json").write_text(json.dumps(res, indent=1, sort_keys=True) + "\n")
        print_result(res)
        results.append(res)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{m}": v for r in results for m, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
