"""Benchmark of the actorcover pipeline: explore -> gensuite -> run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is vr-deep, kv-wide, vr-mutants or vr-check; ``all`` runs those four
in turn and ``smoke`` is the benchmark's own quick case.  Run it from the
root of a checkout: the program is imported from ``src``.

Each iteration runs the workload's CLI stages back to back in a fresh
process (one process, ``--workers 1``, ``--jobs 1``), so each iteration's
peak RSS is its own.  Iterations repeat while the next one is expected
to end within S seconds (at least one runs), and every metric is the
median over them.  With ``--trace 1`` the run
alternates untraced and traced iterations and reports per-layer metrics
(see tracing.py) instead of the end-to-end ones.  Every iteration is gated
on behaviour against pins.json (see gate.py), and all of a run's
iterations, and all runs of the same source tree in this checkout, must
write identical graph files, reports and replay logs.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Exit code 0 when a result is
printed, 1 when an iteration process crashes or times out, 2 when the
checkout holds no actorcover source tree.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import gate
from tracing import LAYER_METRICS
from workloads import BENCHMARKED, WORKLOADS, Workload, stages

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
PINS = HERE / "pins.json"
RUN_DEADLINE_S = 170  # a run must end within 180 s, set-up included
SETUP_PROBES = 5

END_TO_END = {"setup_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB"}
STAGE_METRICS = ("explore_s", "gensuite_s", "run_s")


class HarnessError(Exception):
    """An iteration process crashed or timed out; no result can be given."""


def spawn(cwd: Path, spec: dict, deadline: float) -> dict:
    """Run one iteration process in ``cwd``; add its set-up time and peak RSS."""
    cwd.mkdir(parents=True)
    (cwd / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    with open(cwd / "child.log", "wb") as log:
        spawned = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "iteration.py"), "spec.json"],
            cwd=cwd, stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT,
        )
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    raise HarnessError(f"iteration in {cwd.name} did not end in time")
                time.sleep(0.02)
        except BaseException:
            proc.kill()
            os.waitpid(proc.pid, 0)
            proc.returncode = -9
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    result_file = cwd / "result.json"
    if proc.returncode != 0 or not result_file.exists():
        tail = (cwd / "child.log").read_text(encoding="utf-8", errors="replace")[-3000:]
        raise HarnessError(f"iteration in {cwd.name} exited with {proc.returncode}:\n{tail}")
    result = json.loads(result_file.read_text(encoding="utf-8"))
    # perf_counter is CLOCK_MONOTONIC on Linux, shared by both processes.
    result["setup_s"] = result["first_call"] - spawned
    result["peak_rss_mb"] = usage.ru_maxrss / 1024
    return result


def iteration_spec(workload: Workload, kinds: tuple[str, ...], seed: int,
                   traced: bool = False, spans_out: str = "") -> dict:
    return {"root": str(ROOT), "seed": seed, "trace": traced, "stages": stages(workload, kinds),
            "graph_file": workload.graph_file, "spans_out": spans_out}


def source_digest() -> str:
    """Digest of the program and of the stage definitions."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + [HERE / "workloads.py"]:
        digest.update(str(path.relative_to(ROOT)).encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def check_history(name: str, digests: dict) -> list[str]:
    """Every run of the same source tree must write identical outputs."""
    path = WORK / f"digests-{name}-{source_digest()[:16]}.json"
    if path.exists():
        return gate.compare_digests(json.loads(path.read_text(encoding="utf-8")), digests,
                                    "differs from an earlier run")
    path.write_text(json.dumps(digests, sort_keys=True), encoding="utf-8")
    return []


def stage_seconds(result: dict, metric: str | None = None) -> float:
    return sum(s["seconds"] for s in result["stages"] if metric is None or s["metric"] == metric)


def bench(workload: Workload, seed: int, seconds: float, trace: bool, pins: dict) -> dict:
    """Measure one workload; returns the result object and the text report."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    work = WORK / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    spans_out = WORK / "trace" / f"{workload.name}.spans.tsv.gz"  # the latest traced iteration
    spans_out.parent.mkdir(parents=True, exist_ok=True)

    outcome = gate.Outcome()
    digests: dict[str, dict] = {}
    untraced: list[dict] = []
    traced: list[dict] = []
    try:
        if workload.prepare:
            prepared = spawn(work / "prep", iteration_spec(workload, workload.prepare, seed), deadline)
            outcome.add(gate.check(pins, prepared["stages"]))
            digests["prepare"] = prepared["digests"]
        # Processes that only set up (imports, registry) and exit, so that
        # setup_s is a median even when a run has a single iteration.
        setups = [spawn(work / f"setup-{k}", iteration_spec(workload, (), seed), deadline)["setup_s"]
                  for k in range(SETUP_PROBES)]
        started = time.perf_counter()
        while True:
            tracing_on = trace and len(traced) < len(untraced)
            done = len(untraced) + len(traced)
            cwd = work / f"iter-{done}"
            result = spawn(cwd, iteration_spec(workload, workload.timed, seed, tracing_on, str(spans_out)),
                           deadline)
            shutil.rmtree(cwd)
            outcome.add(gate.check(pins, result["stages"]))
            (traced if tracing_on else untraced).append(result)
            # Stop before an iteration that would end past the run's length.
            elapsed = time.perf_counter() - started
            if elapsed * (done + 2) / (done + 1) > seconds and (traced or not trace):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reference = untraced[0]["digests"]
    for result in untraced[1:] + traced:
        outcome.problems += gate.compare_digests(reference, result["digests"], "differs between iterations")
    digests["iteration"] = reference
    outcome.problems += check_history(workload.name, digests)

    stage_medians = {
        metric: median(stage_seconds(r, metric) for r in untraced)
        for metric in STAGE_METRICS
        if any(s["metric"] == metric for s in untraced[0]["stages"])
    }
    pipeline_s = median(stage_seconds(r) for r in untraced)
    disk_bytes = median(r["disk_bytes"] for r in untraced)
    if trace:
        layers = {name: median(r["layers"][name] for r in traced) for name in traced[0]["layers"]}
        for metric in STAGE_METRICS:
            layers[f"cli.{metric}"] = stage_medians.get(metric, 0.0)
        layers["cli.disk_bytes"] = disk_bytes
        layers["trace.pipeline_s"] = median(stage_seconds(r) for r in traced)
        layers["trace.overhead_s"] = layers["trace.pipeline_s"] - pipeline_s
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in LAYER_METRICS.items()}
    else:
        values = {
            "setup_s": median(setups + [r["setup_s"] for r in untraced]),
            "pipeline_s": pipeline_s,
            "peak_rss_mb": median(r["peak_rss_mb"] for r in untraced),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    lines = [
        f"{workload.name} (seed {seed}): {len(untraced)} untraced and {len(traced)} traced "
        f"iterations, one process each, --workers 1 --jobs 1",
    ]
    for name, entry in metrics.items():
        lines.append(f"  {name:<30} {entry['value']:>14.6g} {entry['unit']}")
    if not trace:
        for metric in STAGE_METRICS:
            value = f"{stage_medians[metric]:>14.6g} s" if metric in stage_medians else f"{'n/a':>14}"
            lines.append(f"  {metric:<30} {value}")
        lines.append(f"  {'disk_bytes':<30} {disk_bytes:>14.6g} bytes")
    lines.append(f"  operations: {outcome.attempted} attempted, {outcome.failed} failed")
    lines += [f"  GATE: {problem}" for problem in outcome.problems]
    return {
        "result": {
            "correct": not outcome.problems and outcome.failed == 0,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": metrics,
        },
        "report": "\n".join(lines),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*BENCHMARKED, "smoke", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "actorcover" / "cli.py").is_file():
        print(f"error: no actorcover source tree at {ROOT / 'src' / 'actorcover'}; "
              "run the benchmark from a checkout of the repository", file=sys.stderr)
        return 2
    pins = json.loads(PINS.read_text(encoding="utf-8"))
    names = BENCHMARKED if args.workload == "all" else (args.workload,)
    outputs = {}
    try:
        for name in names:
            outputs[name] = bench(WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                                  pins[name]["stages"])
            print(outputs[name]["report"], flush=True)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        result = outputs[names[0]]["result"]
    else:
        results = [outputs[name]["result"] for name in names]
        result = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{name}.{metric}": entry for name in names
                        for metric, entry in outputs[name]["result"]["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
