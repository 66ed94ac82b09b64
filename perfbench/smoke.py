"""Self-test of the benchmark at a tiny size (about a minute).

Runs every workload untraced and traced with ``--seconds 1``, then checks
that every end-to-end and per-layer metric of ``BENCHMARK.json`` is emitted
with its unit, that every op passed its output checks, that the written
spans nest, that ``kernels.calls`` is 0 on every workload but betti-gf2,
that the traced Betti queries repeat exactly as the input descriptors
predict, and that a second traced run repeats every count exactly.

Usage, from the root of the repository:  python3 perfbench/smoke.py
"""

import gzip
import json
import sys

from run import OUT_DIR, REFERENCE_SEED, ROOT, bench
from spans import check_nesting

SECONDS = 1
COUNTS = ("calls", "steps", "faces", "windows")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for name in (w["name"] for w in spec["workloads"]):
        before = len(problems)
        for trace in (0, 1):
            res = bench(name, REFERENCE_SEED, SECONDS, bool(trace))
            where = f"{name} trace {trace}"
            got = {m: v["unit"] for m, v in res["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{where}: metrics {sorted(got.items())} "
                                f"!= {sorted(wanted[trace].items())}")
            if not res["correct"] or res["failed"]:
                problems.append(f"{where}: failed ops {res['failures']}")
            if not trace:
                continue
            metrics = {m: v["value"] for m, v in res["metrics"].items()}
            if (metrics["kernels.calls"] > 0) != (name == "betti-gf2"):
                problems.append(f"{where}: kernels.calls = {metrics['kernels.calls']}")
            if res["absent_hooks"]:
                problems.append(f"{where}: absent hooks {res['absent_hooks']}")
            desc = res["descriptors"]
            if (res["trace_betti_queries"] != desc["betti_queries"]
                    or res["trace_betti_repeats"]
                    != round(desc["betti_query_repeat_ratio"] * desc["betti_queries"])):
                problems.append(f"{where}: traced Betti queries differ from the descriptors")
            with gzip.open(ROOT / res["spans_file"], "rt") as fh:
                doc = json.load(fh)
            if len(doc["start"]) != res["spans"]:
                problems.append(f"{where}: span file holds {len(doc['start'])} spans")
            problems += [f"{where}: {p}" for p in check_nesting(doc)[:5]]
            again = bench(name, REFERENCE_SEED, SECONDS, True)["metrics"]
            for m, v in again.items():
                if m.rsplit(".", 1)[-1] in COUNTS and v["value"] != metrics[m]:
                    problems.append(f"{where}: {m} read {metrics[m]}, then {v['value']}")
        print(f"{name}: {len(problems) - before} problems", flush=True)
    for p in problems:
        print("PROBLEM " + p)
    print(f"smoke: {'FAIL' if problems else 'PASS'} (results in {OUT_DIR.relative_to(ROOT)})")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
