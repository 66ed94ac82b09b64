"""Regenerate ``reference.json``: the stable-JSON digests of the first ops of
every workload at the reference seed.

Run it only when a change of the reports is intended, since the benchmark
counts every op whose output differs from these digests as failed:

  python3 perfbench/make_reference.py
"""

import json
import time

from run import REFERENCE, REFERENCE_SEED, run_child
from workloads import WORKLOADS

REFERENCE_OPS = 1500  # more than a 25-second timed run completes on a 2-core machine


def main() -> None:
    doc = {"seed": REFERENCE_SEED, "ops": REFERENCE_OPS, "workloads": {}}
    for name, wl in WORKLOADS.items():
        _, res = run_child({"mode": "replay", "workload": name, "seed": REFERENCE_SEED,
                            "count": REFERENCE_OPS}, time.monotonic() + 3600)
        if any(rec[0] is None for rec in res["ops"]):
            raise SystemExit(f"an op of {name} raised; no reference written")
        doc["workloads"][name] = {"trials": wl.trials,
                                  "digests": [rec[1] for rec in res["ops"]]}
        print(f"{name}: {REFERENCE_OPS} ops in {res['wall_s']:.1f} s")
    REFERENCE.write_text(json.dumps(doc, indent=0) + "\n")


if __name__ == "__main__":
    main()
