"""Behaviour gate: an iteration's observed outputs against the pinned values.

The gate compares format-independent outputs only: the explore and
gensuite stats JSON, exit codes, the sha256 of each ``run --out`` report,
the kill matrix (report totals), every path's verdict, and replayed logs
against the verdicts of the run that wrote them.  It never hashes the AC1
graph or suite files, so a change of file format passes it unchanged.

An operation is one CLI invocation, one replayed suite path or one log
replay.  It fails when its exit code differs from the pinned one, or when a
path's verdict (status, failing step, detail) differs from the pinned one.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

STATS_KEYS = {"explore": ("states", "edges", "diameter", "sinks"), "gensuite": ("paths", "total_length")}


def verdict_digest(status: str, failing_step, detail: str) -> str:
    digest = hashlib.sha256(detail.encode("utf-8")).hexdigest()[:12]
    return f"{status} {failing_step} {digest}"


PASS_DIGEST = verdict_digest("PASS", None, "")


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems)


def check(pins: dict, stages: list[dict]) -> Outcome:
    """Gate one iteration's stage records against a workload's stage pins."""
    out = Outcome()
    by_label = {stage["label"]: stage for stage in stages}
    for stage in stages:
        label = stage["label"]
        if label.startswith("replay:"):
            _check_replay(pins, by_label, stage, out)
            continue
        out.attempted += 1
        pin = pins.get(label)
        if pin is None:
            out.failed += 1
            out.problems.append(f"{label}: no pinned values")
            continue
        if stage["rc"] != pin["rc"]:
            out.failed += 1
            out.problems.append(f"{label}: exit code {stage['rc']}, pinned {pin['rc']}")
        stats = stage.get("stats") or {}
        for key in STATS_KEYS.get(label, ()):
            if stats.get(key) != pin["stats"][key]:
                out.problems.append(f"{label}: {key} {stats.get(key)}, pinned {pin['stats'][key]}")
        if "report_sha256" in pin:
            _check_report(pin, stage, out)
    return out


def _check_report(pin: dict, stage: dict, out: Outcome) -> None:
    label = stage["label"]
    observed = stage.get("failing", {})
    count = stage.get("paths", 0)
    out.attempted += pin["paths"]
    mismatched = [
        pid for pid in set(pin["failing"]) | set(observed)
        if int(pid) < count and pin["failing"].get(pid, PASS_DIGEST) != observed.get(pid, PASS_DIGEST)
    ]
    missing = max(0, pin["paths"] - count)
    out.failed += len(mismatched) + missing
    if mismatched or missing:
        out.problems.append(f"{label}: {len(mismatched)} path verdicts differ from the pins, "
                            f"{missing} paths missing")
    if count > pin["paths"]:
        out.problems.append(f"{label}: {count} paths, pinned {pin['paths']}")
    if stage.get("totals") != pin["totals"]:
        out.problems.append(f"{label}: totals {stage.get('totals')}, pinned {pin['totals']}")
    if stage.get("report_sha256") != pin["report_sha256"]:
        out.problems.append(f"{label}: report sha256 differs from the pinned one")


def _check_replay(pins: dict, by_label: dict, stage: dict, out: Outcome) -> None:
    """A killed mutant's replayed log must reproduce its path's verdict exactly."""
    run_label = "run:" + stage["label"].split(":", 1)[1]
    killed = pins.get(run_label, {}).get("rc") == 1
    if stage["path"] is None:
        if killed:
            out.attempted += 1
            out.failed += 1
            out.problems.append(f"{stage['label']}: no replay log although the mutant is killed")
        return
    out.attempted += 1
    expected = by_label.get(run_label, {}).get("failing", {}).get(str(stage["path"]), PASS_DIGEST)
    if stage["digest"] != expected:
        out.failed += 1
        out.problems.append(f"{stage['label']}: path {stage['path']} replayed as {stage['digest']}, "
                            f"the run reported {expected}")


def compare_digests(reference: dict, digests: dict, what: str) -> list[str]:
    """Determinism: name every output whose digest differs from the reference."""
    return [
        f"{what}: {key} differs"
        for key in sorted(set(reference) | set(digests))
        if reference.get(key) != digests.get(key)
    ]
