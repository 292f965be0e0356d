"""Replay suite paths against an implementation with per-step state checks.

For every path edge the runner applies the action to a fresh emulated
implementation, projects the implementation with the actors' to-model
mappings and requires exact structural equality with the edge's
destination state in the suite's graph: actor by actor, liveness flag by
liveness flag, and the unprocessed-event set as a set.  The first
mismatching step ends the path with a structured diff; other paths keep
running.

Every failure is written as a self-contained replay log (actions plus
expected states, pinned to the suite's content hash) that reproduces the
identical verdict later.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from . import canon
from .actors import Action, ActorFailure, Emulator, IllegalActionError, SystemState
from .model import ModelState
from .suitefile import SuiteFile

PASS = "PASS"
STATE_MISMATCH = "STATE_MISMATCH"
EVENTS_MISMATCH = "EVENTS_MISMATCH"
ILLEGAL_ACTION = "ILLEGAL_ACTION"
ACTOR_FAILURE = "ACTOR_FAILURE"

STATUSES = (PASS, STATE_MISMATCH, EVENTS_MISMATCH, ILLEGAL_ACTION, ACTOR_FAILURE)

REPLAY_LOG_VERSION = 1


class LogVersionMismatchError(Exception):
    """The replay log was produced by an incompatible format version."""


@dataclass
class StateDiff:
    """Field-level comparison of implementation snapshot vs model state."""

    actor_diffs: list[tuple[str, object, object]] = field(default_factory=list)
    missing_events: list[str] = field(default_factory=list)
    unexpected_events: list[str] = field(default_factory=list)

    @property
    def equal(self) -> bool:
        return not (self.actor_diffs or self.missing_events or self.unexpected_events)

    @property
    def events_only(self) -> bool:
        return not self.actor_diffs and not self.equal

    def describe(self) -> str:
        parts = [f"{path}: implementation={canon.dumps(a)} model={canon.dumps(b)}"
                 for path, a, b in self.actor_diffs]
        parts.extend(f"missing event {e}" for e in self.missing_events)
        parts.extend(f"unexpected event {e}" for e in self.unexpected_events)
        return "; ".join(parts)


def compare_states(impl: SystemState, model: ModelState) -> StateDiff:
    """Exact structural comparison on canonical forms; no tolerances."""
    out = StateDiff()
    for i, (got, want) in enumerate(zip(impl.actors, model.actors)):
        out.actor_diffs.extend(canon.diff(got, want, f"actor {i}"))
    for i, (got, want) in enumerate(zip(impl.alive, model.alive)):
        if got != want:
            out.actor_diffs.append((f"actor {i}.alive", got, want))
    if impl.events != model.events:
        out.missing_events = sorted(e.key() for e in model.events - impl.events)
        out.unexpected_events = sorted(e.key() for e in impl.events - model.events)
    return out


@dataclass
class Verdict:
    path_id: int
    status: str
    failing_step: int | None = None
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status == PASS

    def to_json(self) -> str:
        return json.dumps(
            {
                "path": self.path_id,
                "status": self.status,
                "failing_step": self.failing_step,
                "detail": self.detail,
            },
            sort_keys=True,
        )


@dataclass
class RunReport:
    totals: dict[str, int]
    verdicts: list[Verdict]
    wall_time: float
    replays_per_second: float
    replay_logs: list[str] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def to_json(self) -> str:
        """Deterministic report body; timing lives outside this record."""
        return json.dumps(
            {
                "totals": self.totals,
                "verdicts": [
                    {
                        "path": v.path_id,
                        "status": v.status,
                        "failing_step": v.failing_step,
                        "detail": v.detail,
                    }
                    for v in self.verdicts
                ],
                "replay_logs": self.replay_logs,
            },
            sort_keys=True,
            indent=1,
        )


def _execute(
    emulator: Emulator,
    steps: list[tuple[Action, ModelState]],
    path_id: int,
) -> Verdict:
    for step_index, (action, expected) in enumerate(steps, start=1):
        try:
            snapshot = emulator.step(action)
        except IllegalActionError as exc:
            return Verdict(path_id, ILLEGAL_ACTION, step_index, str(exc))
        except ActorFailure as exc:
            return Verdict(path_id, ACTOR_FAILURE, step_index, str(exc))
        if (
            snapshot.actors == expected.actors
            and snapshot.alive == expected.alive
            and snapshot.events == expected.events
        ):
            continue
        diff = compare_states(snapshot, expected)
        status = EVENTS_MISMATCH if diff.events_only else STATE_MISMATCH
        return Verdict(path_id, status, step_index, diff.describe())
    return Verdict(path_id, PASS)


def run_path(
    emulator_factory: Callable[[], Emulator],
    suite: SuiteFile,
    path_id: int,
    replay_dir: str | None = None,
) -> Verdict:
    """Execute one suite path on a fresh implementation instance."""
    graph = suite.graph
    steps = []
    for eid in suite.paths[path_id]:
        _src, action, dst = graph.edges[eid]
        steps.append((action, graph.states[dst - 1]))
    verdict = _execute(emulator_factory(), steps, path_id)
    if not verdict.passed and replay_dir is not None:
        write_replay_log(Path(replay_dir) / f"path_{path_id}.replay", suite, path_id)
    return verdict


def run_suite(
    emulator_factory: Callable[[], Emulator],
    suite: SuiteFile,
    fail_fast: bool = False,
    replay_dir: str | None = None,
) -> RunReport:
    """Run every path in path-id order, each on an isolated fresh instance.

    With ``fail_fast`` the run stops after the first failing path, so the
    report ends with that path's verdict.
    """
    started = time.perf_counter()
    verdicts = []
    for path_id in range(len(suite.paths)):
        verdicts.append(run_path(emulator_factory, suite, path_id, replay_dir))
        if fail_fast and not verdicts[-1].passed:
            break
    elapsed = time.perf_counter() - started
    totals = {status: 0 for status in STATUSES}
    for v in verdicts:
        totals[v.status] += 1
    logs = [
        str(Path(replay_dir) / f"path_{v.path_id}.replay")
        for v in verdicts
        if not v.passed and replay_dir is not None
    ]
    rate = len(verdicts) / elapsed if elapsed > 0 else 0.0
    return RunReport(totals, verdicts, elapsed, rate, logs)


def write_replay_log(path, suite: SuiteFile, path_id: int) -> None:
    """Self-contained failing-path log: actions plus expected states."""
    header = {
        "version": REPLAY_LOG_VERSION,
        "model": suite.header.model,
        "bounds": canon.dumps(suite.header.bounds),
        "suite_hash": suite.header.content_hash,
        "path": path_id,
    }
    lines = [json.dumps(header, sort_keys=True)]
    graph = suite.graph
    for eid in suite.paths[path_id]:
        _src, action, dst = graph.edges[eid]
        lines.append("\t".join(("R", action.key(), str(dst), graph.states[dst - 1].key())))
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8", newline="\n")


@dataclass
class ReplayLog:
    model: str
    bounds: canon.Record
    suite_hash: str
    path_id: int
    steps: list[tuple[Action, int, ModelState]]


def read_replay_log(path) -> ReplayLog:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    if header.get("version") != REPLAY_LOG_VERSION:
        raise LogVersionMismatchError(
            f"log version {header.get('version')!r}, expected {REPLAY_LOG_VERSION}"
        )
    steps = []
    for line in lines[1:]:
        if not line.strip():
            continue
        _tag, action_text, dest_text, state_text = line.split("\t")
        steps.append(
            (
                Action.from_value(canon.loads(action_text)),
                int(dest_text),
                ModelState.from_value(canon.loads(state_text)),
            )
        )
    return ReplayLog(
        model=header["model"],
        bounds=canon.loads(header["bounds"]),
        suite_hash=header["suite_hash"],
        path_id=header["path"],
        steps=steps,
    )


def replay(
    log_path,
    emulator_factory: Callable[[], Emulator],
    expected_suite_hash: str | None = None,
) -> Verdict:
    """Re-execute a logged path; reproduces the original verdict exactly."""
    log = read_replay_log(log_path)
    if expected_suite_hash is not None and log.suite_hash != expected_suite_hash:
        raise LogVersionMismatchError(
            f"log pinned to suite {log.suite_hash[:12]}, current is {expected_suite_hash[:12]}"
        )
    steps = [(action, state) for action, _dest, state in log.steps]
    return _execute(emulator_factory(), steps, log.path_id)
