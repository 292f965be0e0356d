"""Replay suite paths against an implementation with per-step state checks.

For every path edge the runner applies the action to the emulated
implementation, projects the implementation with the actors' to-model
mappings and requires exact structural equality with the edge's
destination state in the suite's graph: actor by actor, liveness flag by
liveness flag, and the unprocessed-event set as a set.  The first
mismatching step ends the path with a structured diff; other paths keep
running.

Paths that share a prefix share its execution: ``run_suite`` walks the
paths in edge-id order on one emulator, saves the emulator's state where
paths part and restores it before each later branch.  Emulator steps are
deterministic and a restore puts back exactly the saved state (the
``Actor.save``/``restore`` contract), so every path's verdict is the one
its own actions give on a fresh implementation, as ``replay`` runs them.

Every failure can be written as a replay log: an AC1 file of kind
``replay`` (see ``suitefile``) holding the failing path's actions and
expected states, with the suite's content hash and the path's id in its
header.  ``replay`` checks the log's hash before it parses the log, then
reproduces the identical verdict from the log alone.
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
from .suitefile import SuiteFile, read_replay_log, write_replay_log

PASS = "PASS"
STATE_MISMATCH = "STATE_MISMATCH"
EVENTS_MISMATCH = "EVENTS_MISMATCH"
ILLEGAL_ACTION = "ILLEGAL_ACTION"
ACTOR_FAILURE = "ACTOR_FAILURE"

STATUSES = (PASS, STATE_MISMATCH, EVENTS_MISMATCH, ILLEGAL_ACTION, ACTOR_FAILURE)


class LogVersionMismatchError(Exception):
    """The replay log is pinned to another suite than the one it is checked against."""


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

    def to_value(self) -> dict:
        """The verdict's record, as ``to_json`` and a run report write it."""
        return {
            "path": self.path_id,
            "status": self.status,
            "failing_step": self.failing_step,
            "detail": self.detail,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_value(), sort_keys=True)


@dataclass
class RunReport:
    totals: dict[str, int]
    verdicts: list[Verdict]
    wall_time: float
    replays_per_second: float
    replay_logs: list[str] = field(default_factory=list)
    # Emulator steps the run executed; shared prefixes run once.  Not in
    # ``to_json``: the report records verdicts, not how they were reached.
    steps_executed: int = 0

    @property
    def all_passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def to_json(self) -> str:
        """Deterministic report body; timing lives outside this record."""
        return json.dumps(
            {
                "totals": self.totals,
                "verdicts": [v.to_value() for v in self.verdicts],
                "replay_logs": self.replay_logs,
            },
            sort_keys=True,
            indent=1,
        )


def check_step(
    emulator: Emulator, action: Action, expected: ModelState
) -> tuple[str, str] | None:
    """Apply one action and compare the result with the model's state.

    None when the step conforms; otherwise the failure's status and detail.
    """
    try:
        snapshot = emulator.step(action)
    except IllegalActionError as exc:
        return ILLEGAL_ACTION, str(exc)
    except ActorFailure as exc:
        return ACTOR_FAILURE, str(exc)
    if (
        snapshot.actors == expected.actors
        and snapshot.alive == expected.alive
        and snapshot.events == expected.events
    ):
        return None
    diff = compare_states(snapshot, expected)
    return (EVENTS_MISMATCH if diff.events_only else STATE_MISMATCH), diff.describe()


def _execute(
    emulator: Emulator,
    steps: list[tuple[Action, ModelState]],
    path_id: int,
) -> Verdict:
    for step_index, (action, expected) in enumerate(steps, start=1):
        failure = check_step(emulator, action, expected)
        if failure is not None:
            return Verdict(path_id, failure[0], step_index, failure[1])
    return Verdict(path_id, PASS)


def _walk(emulator: Emulator, suite: SuiteFile) -> tuple[list[Verdict], int]:
    """Every path's verdict, in path-id order, and the steps executed.

    Sorted by their edge-id lists, the paths that share a prefix form one
    contiguous range, in which a path that ends with the prefix comes
    first.  A stack entry ``(lo, hi, depth, saved)`` is such a range of
    ``order`` for a prefix of ``depth`` edges, with the emulator's state
    after that prefix (None: the emulator is in it already).  A failing
    step ends every path of its range with the same verdict.
    """
    graph, paths = suite.graph, suite.paths
    order = sorted(range(len(paths)), key=paths.__getitem__)
    verdicts = [None] * len(paths)
    executed = 0
    stack = [(0, len(order), 0, None)]
    while stack:
        lo, hi, depth, saved = stack.pop()
        if saved is not None:
            emulator.restore(saved)
        while lo < hi:
            path = paths[order[lo]]
            if len(path) == depth:
                verdicts[order[lo]] = Verdict(order[lo], PASS)
                lo += 1
                continue
            eid = path[depth]
            end = lo + 1
            while end < hi and paths[order[end]][depth] == eid:
                end += 1
            if end < hi:  # the paths part here: the later ones start from this state
                if saved is None:
                    saved = emulator.save()
                stack.append((end, hi, depth, saved))
            hi, saved = end, None
            edge = graph.edges[eid]
            executed += 1
            depth += 1
            failure = check_step(emulator, edge.action, graph.state(edge.destination))
            if failure is not None:
                status, detail = failure
                for path_id in order[lo:hi]:
                    verdicts[path_id] = Verdict(path_id, status, depth, detail)
                break
    return verdicts, executed


def run_suite(
    emulator_factory: Callable[[], Emulator],
    suite: SuiteFile,
    fail_fast: bool = False,
    replay_dir: str | None = None,
) -> RunReport:
    """Run every path and report the verdicts in path-id order.

    All paths run on one ``emulator_factory()`` instance and each shared
    prefix runs once: the emulator's state is saved where paths part and
    restored before each later branch.  Steps are deterministic and a
    restore is exact, so each path gets the verdict of its own action
    sequence applied to a fresh instance.

    With ``fail_fast`` the report ends with the first failing path's
    verdict, and only the reported failures get replay logs.
    """
    started = time.perf_counter()
    verdicts, executed = _walk(emulator_factory(), suite)
    if fail_fast:
        first = next((i for i, v in enumerate(verdicts) if not v.passed), len(verdicts))
        del verdicts[first + 1:]
    logs = []
    failed = [v.path_id for v in verdicts if not v.passed]
    if replay_dir is not None and failed:
        Path(replay_dir).mkdir(parents=True, exist_ok=True)
        for path_id in failed:
            logs.append(str(Path(replay_dir) / f"path_{path_id}.replay"))
            write_replay_log(logs[-1], suite, path_id)
    elapsed = time.perf_counter() - started
    totals = {status: 0 for status in STATUSES}
    for v in verdicts:
        totals[v.status] += 1
    rate = len(verdicts) / elapsed if elapsed > 0 else 0.0
    return RunReport(totals, verdicts, elapsed, rate, logs, executed)


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
