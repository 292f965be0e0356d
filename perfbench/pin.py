"""Write pins.json, the gate's oracle, from one iteration of every workload.

    python3 perfbench/pin.py

Run it only at a commit whose verdicts are known to be right: every later
run is gated against what it writes.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

from gate import STATS_KEYS
from run import PINS, RUN_DEADLINE_S, WORK, iteration_spec, spawn
from workloads import BENCHMARKED, WORKLOADS


def pin_stage(record: dict) -> dict:
    label = record["label"].split(":", 1)[0]
    pin = {"rc": record["rc"]}
    if label in STATS_KEYS:
        pin["stats"] = {key: record["stats"][key] for key in STATS_KEYS[label]}
    if "report_sha256" in record:
        pin.update({key: record[key] for key in ("report_sha256", "totals", "paths", "failing")})
    return pin


def main() -> int:
    pins = {}
    for name in (*BENCHMARKED, "smoke"):
        workload = WORKLOADS[name]
        work = WORK / f"pin-{name}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        records = []
        try:
            for directory, kinds in (("prep", workload.prepare), ("iter-0", workload.timed)):
                if kinds:
                    spec = iteration_spec(workload, kinds, seed=1)
                    records += spawn(work / directory, spec, time.monotonic() + RUN_DEADLINE_S)["stages"]
        finally:
            shutil.rmtree(work, ignore_errors=True)
        pins[name] = {"stages": {r["label"]: pin_stage(r) for r in records
                                 if not r["label"].startswith("replay:")}}
        print(f"pinned {name}", file=sys.stderr)
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
