"""Replay suite paths against an implementation with per-step state checks.

For every path edge the runner applies the action to the emulated
implementation, projects the implementation with the actors' to-model
mappings and requires exact structural equality with the edge's
destination state in the suite's graph: actor by actor, liveness flag by
liveness flag, and the unprocessed-event set as a set.  The first
mismatching step ends the path with a status (EVENTS_MISMATCH when only
the events differ, else STATE_MISMATCH) and a detail that names each
difference; other paths keep running.

Paths that share a prefix share its execution: ``run_suite`` walks the
paths in edge-id order on one emulator, saves the emulator's state where
paths part and restores it before each later branch.  Emulator steps are
deterministic and a restore puts back exactly the saved state (the
``Actor.save``/``restore`` contract), so every path's verdict is the one
its own actions give on a fresh implementation, as ``replay`` runs them.

Every failure can be written as a replay log: an AC1 file of kind
``replay`` (see ``suitefile``) holding the failing path's actions and
expected states up to its failing step, with the suite's content hash and
a path id in its header.  The paths that fail at the same step of a
shared prefix get the same verdict and the same log: one file, under the
lowest of their ids and with that id in its header, hard-linked under the
others' names (copied where the file system has no hard links).  Editing
one of those files in place edits it for all of them.  ``replay`` checks
the log's hash before it parses the log, then reproduces the identical
status, step and detail from the log alone.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from . import canon
from .actors import Action, ActorFailure, Emulator, IllegalActionError, SystemState
from .model import ModelState
from .suitefile import ReplayLog, SuiteFile, read_replay_log, write_replay_log

PASS = "PASS"
STATE_MISMATCH = "STATE_MISMATCH"
EVENTS_MISMATCH = "EVENTS_MISMATCH"
ILLEGAL_ACTION = "ILLEGAL_ACTION"
ACTOR_FAILURE = "ACTOR_FAILURE"

STATUSES = (PASS, STATE_MISMATCH, EVENTS_MISMATCH, ILLEGAL_ACTION, ACTOR_FAILURE)


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
    replay_logs: list[str] = field(default_factory=list)
    # Emulator steps the run executed; shared prefixes run once.  Not in
    # ``to_json``: the report records verdicts, not how they were reached.
    steps_executed: int = 0
    # Distinct files behind ``replay_logs`` (hard links share one); not in
    # ``to_json`` either.
    replay_files: int = 0

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
    events = snapshot.events
    if (
        snapshot.actors == expected.actors
        and snapshot.alive == expected.alive
        and len(events) == len(expected.events)
        and events.issuperset(expected.events)
    ):
        return None
    return _mismatch(snapshot, expected)


def _mismatch(impl: SystemState, model: ModelState) -> tuple[str, str]:
    """Status and detail of a snapshot that differs from the model's state: actor
    differences, then missing events, then unexpected ones; no tolerances."""
    diffs = []
    if len(impl.actors) != len(model.actors):
        diffs.append(("actor count", len(impl.actors), len(model.actors)))
    for i, (got, want) in enumerate(zip(impl.actors, model.actors)):
        diffs.extend(canon.diff(got, want, f"actor {i}"))
    for i, (got, want) in enumerate(zip(impl.alive, model.alive)):
        if got != want:
            diffs.append((f"actor {i}.alive", got, want))
    parts = [f"{path}: implementation={canon.dumps(a)} model={canon.dumps(b)}"
             for path, a, b in diffs]
    expected = set(model.events)
    parts += ["missing event " + k for k in sorted(e.key() for e in expected - impl.events)]
    parts += ["unexpected event " + k for k in sorted(e.key() for e in impl.events - expected)]
    return (STATE_MISMATCH if diffs else EVENTS_MISMATCH), "; ".join(parts)


def _walk(emulator: Emulator, suite: SuiteFile) -> tuple[list[Verdict], dict[int, int], int]:
    """Every path's verdict in path-id order, each failing path's lead, and the steps executed.

    Sorted by their edge-id lists, the paths that share a prefix form one
    contiguous range, in which a path that ends with the prefix comes
    first.  A stack entry ``(lo, hi, depth, saved)`` is such a range of
    ``order`` for a prefix of ``depth`` edges, with the emulator's state
    after that prefix (None: the emulator is in it already).  A failing
    step ends every path of its range with the same verdict; the range's
    lowest path id is the lead of each of them.
    """
    graph, paths = suite.graph, suite.paths
    actions, action_ids, destinations = graph.actions, graph.action_ids, graph.destinations
    order = sorted(range(len(paths)), key=paths.__getitem__)
    verdicts = [None] * len(paths)
    leads = {}
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
            executed += 1
            depth += 1
            failure = check_step(emulator, actions[action_ids[eid]],
                                 graph.state(destinations[eid]))
            if failure is not None:
                status, detail = failure
                ids = order[lo:hi]
                lead = min(ids)
                for path_id in ids:
                    verdicts[path_id] = Verdict(path_id, status, depth, detail)
                    leads[path_id] = lead
                break
    return verdicts, leads, executed


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

    Each failing path gets ``replay_dir/path_<id>.replay``.  The paths of
    one failing range share it: its lead's log ends at the failing step,
    and the others' names are hard links to it (copies where linking
    fails).  An existing file of the same name is replaced, never written
    through, so a link left by an earlier run keeps its bytes.
    """
    started = time.perf_counter()
    verdicts, leads, executed = _walk(emulator_factory(), suite)
    if fail_fast:
        first = next((i for i, v in enumerate(verdicts) if not v.passed), len(verdicts))
        del verdicts[first + 1:]
    logs, files = [], 0
    failed = [v for v in verdicts if not v.passed]
    if replay_dir is not None and failed:
        directory = Path(replay_dir)
        directory.mkdir(parents=True, exist_ok=True)
        for v in failed:  # in path-id order: a lead comes before the rest of its range
            log = directory / f"path_{v.path_id}.replay"
            lead = directory / f"path_{leads[v.path_id]}.replay"
            log.unlink(missing_ok=True)
            if log == lead:
                write_replay_log(log, suite, v.path_id, v.failing_step)
                files += 1
            else:
                try:
                    os.link(lead, log)
                except OSError:  # no hard links on this file system
                    shutil.copyfile(lead, log)
                    files += 1
            logs.append(str(log))
    elapsed = time.perf_counter() - started
    totals = {status: 0 for status in STATUSES}
    for v in verdicts:
        totals[v.status] += 1
    return RunReport(totals, verdicts, elapsed, logs, executed, files)


def replay(log, emulator_factory: Callable[[], Emulator]) -> Verdict:
    """Re-execute a logged path; reproduces the original verdict exactly.

    ``log`` is a ``ReplayLog`` or the path of a log file to read.
    """
    if not isinstance(log, ReplayLog):
        log = read_replay_log(log)
    emulator = emulator_factory()
    for step_index, (action, _dest, expected) in enumerate(log.steps, start=1):
        failure = check_step(emulator, action, expected)
        if failure is not None:
            return Verdict(log.path_id, failure[0], step_index, failure[1])
    return Verdict(log.path_id, PASS)
