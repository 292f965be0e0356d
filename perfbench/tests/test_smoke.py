"""The benchmark's own tests, on the smoke workload (vr, 2 replicas, 1 query,
1 view: 310 states, 449 edges), which runs every stage kind in seconds.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
from run import PINS, ROOT, RUN_DEADLINE_S, WORK, iteration_spec, spawn  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMOKE = WORKLOADS["smoke"]


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def smoke_iteration(seed: int) -> dict:
    work = WORK / f"test-smoke-{os.getpid()}-{seed}"
    try:
        return spawn(work / "iter-0", iteration_spec(SMOKE, SMOKE.timed, seed),
                     time.monotonic() + RUN_DEADLINE_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)


@pytest.fixture(scope="module")
def iteration() -> dict:
    return smoke_iteration(seed=5)


@pytest.fixture
def pins() -> dict:
    return json.loads(PINS.read_text(encoding="utf-8"))["smoke"]["stages"]


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_declared_metric_is_printed_with_its_unit(trace, kind):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[kind]
    out = run_bench("--workload", "smoke", "--seed", "7", "--seconds", "1", "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in declared
    }
    table = out.stdout.splitlines()[:-1]
    for metric in declared:
        assert any(line.split()[:1] == [metric["name"]] and line.endswith(" " + metric["unit"])
                   for line in table), metric["name"]


def test_gate_passes_at_the_pinned_behaviour(iteration, pins):
    outcome = gate.check(pins, iteration["stages"])
    assert outcome.problems == []
    assert outcome.failed == 0
    # 8 CLI invocations, 6 runs of 108 paths, 3 log replays (one per killed mutant)
    assert outcome.attempted == 8 + 6 * 108 + 3


def test_wrong_pinned_stat_fails_the_gate(iteration, pins):
    pins["explore"]["stats"]["states"] += 1
    outcome = gate.check(pins, iteration["stages"])
    assert outcome.problems == ["explore: states 310, pinned 311"]


def test_wrong_pinned_exit_code_is_a_failed_operation(iteration, pins):
    pins["run:stale-prepare"]["rc"] = 1  # pin a kill of a mutant that survives
    outcome = gate.check(pins, iteration["stages"])
    # the run's exit code, and the replay a killed mutant owes
    assert outcome.failed == 2


def test_each_differing_path_verdict_is_a_failed_operation(iteration, pins):
    failing = pins["run:skip-commit"]["failing"]
    for pid in sorted(failing)[:3]:
        failing[pid] = gate.PASS_DIGEST
    outcome = gate.check(pins, iteration["stages"])
    assert outcome.failed == 3
    assert outcome.problems == ["run:skip-commit: 3 path verdicts differ from the pins, 0 paths missing"]


def test_replayed_log_must_reproduce_its_verdict(iteration, pins):
    stages = copy.deepcopy(iteration["stages"])
    replay = next(s for s in stages if s["label"] == "replay:skip-commit")
    assert replay["path"] is not None
    replay["digest"] = gate.PASS_DIGEST
    outcome = gate.check(pins, stages)
    assert outcome.failed == 1


def test_outputs_are_identical_across_processes_and_seeds(iteration):
    other = smoke_iteration(seed=6)
    assert gate.compare_digests(iteration["digests"], other["digests"], "seed 6") == []
    assert {"graph", "report run", "logs run:skip-commit"} <= set(iteration["digests"])


def test_fails_without_a_source_tree():
    bare = WORK / f"test-bare-{os.getpid()}"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        out = run_bench("--workload", "vr-deep", "--seed", "1", "--seconds", "1", "--trace", "0",
                        cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert out.returncode != 0
    assert out.stdout == ""
