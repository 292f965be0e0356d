"""Replaying min suites against the correct emulators and the seeded vr mutants.

The vr suite is the 108-path min suite of vr with 2 replicas, 1 query and
1 view (310 states); the kill matrix below pins which mutants it kills.
The prefix-sharing runner's verdicts are checked against fresh per-path
replay (``oracles.fresh_replay_verdicts``).
"""

import errno
import os
from dataclasses import replace
from functools import partial
from pathlib import Path

import pytest

from actorcover import canon
from actorcover.actors import EXTERNAL, Action, Emulator, Event, SystemState
from actorcover.conformance import (
    ACTOR_FAILURE,
    EVENTS_MISMATCH,
    PASS,
    STATE_MISMATCH,
    STATUSES,
    check_step,
    read_replay_log,
    replay,
    run_suite,
)
from actorcover.model import ModelState
from actorcover.suitefile import SuiteFile, read_header
from actorcover.systems import get_system
from actorcover.systems.kv import SET_REQUEST, KvActor, make_emulator as kv_emulator
from actorcover.systems.vr import make_emulator as vr_emulator
from actorcover.tsg import baseline_suite, min_suite

from conftest import KV_BOUNDS, VR_BOUNDS
from oracles import fresh_replay_verdicts, product_search

VR_MUTANTS = get_system("vr").mutants

# Mutant -> failing paths by status; a mutant with no entry survives the suite.
KILL_MATRIX = {
    "skip-commit": {STATE_MISMATCH: 40},
    "no-commit-broadcast": {EVENTS_MISMATCH: 40},
    "keep-phase2": {STATE_MISMATCH: 75},
    "prepend-entry": {},
    "stale-prepare": {},
}


def mutant_factory(name):
    return lambda: VR_MUTANTS[name](VR_BOUNDS)


def test_kill_matrix_covers_every_mutant():
    assert set(KILL_MATRIX) == set(VR_MUTANTS)


@pytest.mark.parametrize("suite, factory", [("vr_min_suite", "vr_factory"),
                                            ("kv_min_suite", "kv_factory")])
def test_every_path_passes_against_the_correct_emulator(request, suite, factory):
    suite = request.getfixturevalue(suite)
    report = run_suite(request.getfixturevalue(factory), suite)
    assert report.all_passed
    assert report.totals[PASS] == len(suite.paths) > 0
    assert [v.path_id for v in report.verdicts] == list(range(len(suite.paths)))


def failing_prefix(suite, verdict):
    """The edge ids of a failing path up to and including its failing step."""
    return tuple(suite.paths[verdict.path_id][:verdict.failing_step])


def failing_prefixes(suite, verdicts):
    """Failing prefix -> the ids of the paths that fail on it, from the verdicts alone."""
    sharing = {}
    for v in verdicts:
        if not v.passed:
            sharing.setdefault(failing_prefix(suite, v), []).append(v.path_id)
    return sharing


@pytest.mark.parametrize("mutant", sorted(KILL_MATRIX))
def test_vr_kill_matrix_and_replay_logs(vr_min_suite, mutant, tmp_path):
    """Each killed path's replay log, replayed with the mutant, gives the same verdict.

    Paths that fail on one prefix share its log, whose header names the
    lowest of their ids: the replay is that path's verdict.
    """
    assert len(vr_min_suite.paths) == 108
    factory = mutant_factory(mutant)
    report = run_suite(factory, vr_min_suite, replay_dir=str(tmp_path))
    expected = dict.fromkeys(STATUSES, 0)
    expected.update(KILL_MATRIX[mutant])
    expected[PASS] = 108 - sum(KILL_MATRIX[mutant].values())
    assert report.totals == expected
    failed = [v for v in report.verdicts if not v.passed]
    assert len(report.replay_logs) == len(failed)
    sharing = failing_prefixes(vr_min_suite, report.verdicts)
    for verdict, log in zip(failed, report.replay_logs):
        parsed = read_replay_log(log)
        assert parsed.suite_hash == vr_min_suite.header.content_hash
        replayed = replay(parsed, factory)
        assert (replayed.status, replayed.failing_step, replayed.detail) == (
            verdict.status, verdict.failing_step, verdict.detail)
        lowest = min(sharing[failing_prefix(vr_min_suite, verdict)])
        assert parsed.path_id == lowest
        assert replayed == report.verdicts[lowest]


KILLING_MUTANTS = sorted(m for m, kills in KILL_MATRIX.items() if kills)


@pytest.mark.parametrize("mutant", KILLING_MUTANTS)
def test_one_log_file_per_failing_prefix(vr_min_suite, mutant, tmp_path):
    report = run_suite(mutant_factory(mutant), vr_min_suite, replay_dir=str(tmp_path))
    sharing = failing_prefixes(vr_min_suite, report.verdicts)
    inodes = {os.stat(log).st_ino for log in report.replay_logs}
    assert len(inodes) == len(sharing) == report.replay_files < len(report.replay_logs)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        Path(log).name for log in report.replay_logs)
    for ids in sharing.values():
        assert len({os.stat(tmp_path / f"path_{i}.replay").st_ino for i in ids}) == 1


def test_a_shared_log_names_the_lowest_id_in_any_path_order(vr_min_suite, tmp_path):
    suite = SuiteFile(vr_min_suite.header, vr_min_suite.graph, vr_min_suite.paths[::-1])
    report = run_suite(mutant_factory("keep-phase2"), suite, replay_dir=str(tmp_path))
    sharing = failing_prefixes(suite, report.verdicts)
    assert report.replay_files == len(sharing) < len(report.replay_logs)
    for verdict, log in zip([v for v in report.verdicts if not v.passed], report.replay_logs):
        assert read_replay_log(log).path_id == min(sharing[failing_prefix(suite, verdict)])


@pytest.mark.parametrize("mutant", KILLING_MUTANTS)
def test_a_log_ends_at_its_failing_step(vr_min_suite, mutant, tmp_path):
    report = run_suite(mutant_factory(mutant), vr_min_suite, replay_dir=str(tmp_path))
    graph = vr_min_suite.graph
    for verdict, log in zip([v for v in report.verdicts if not v.passed], report.replay_logs):
        assert read_header(log).stats["steps"] == verdict.failing_step
        steps = read_replay_log(log).steps
        eids = failing_prefix(vr_min_suite, verdict)
        assert [(a.key(), dest, state) for a, dest, state in steps] == [
            (graph.actions[graph.action_ids[eid]].key(), graph.destinations[eid],
             graph.state(graph.destinations[eid])) for eid in eids]


@pytest.mark.parametrize("mutant", KILLING_MUTANTS)
def test_logs_are_copies_where_links_fail(vr_min_suite, mutant, tmp_path, monkeypatch):
    factory = mutant_factory(mutant)
    linked = run_suite(factory, vr_min_suite, replay_dir=str(tmp_path / "linked"))

    def refuse(*_args, **_kwargs):
        raise OSError(errno.EPERM, "no hard links here")

    monkeypatch.setattr(os, "link", refuse)
    copied = run_suite(factory, vr_min_suite, replay_dir=str(tmp_path / "copied"))
    assert copied.to_json() == linked.to_json().replace("/linked/", "/copied/")
    assert [Path(p).read_bytes() for p in copied.replay_logs] == [
        Path(p).read_bytes() for p in linked.replay_logs]
    inodes = {os.stat(log).st_ino for log in copied.replay_logs}
    assert len(inodes) == copied.replay_files == len(copied.replay_logs)


@pytest.mark.parametrize("mutant", KILLING_MUTANTS)
def test_fail_fast_writes_one_log(vr_min_suite, mutant, tmp_path):
    report = run_suite(mutant_factory(mutant), vr_min_suite, fail_fast=True,
                       replay_dir=str(tmp_path))
    assert report.replay_files == len(report.replay_logs) == 1
    assert [p.name for p in tmp_path.iterdir()] == [Path(report.replay_logs[0]).name]


def test_a_second_run_replaces_the_logs_of_the_first(vr_min_suite, tmp_path):
    """A link left by an earlier run in the same directory is replaced, not written through."""
    first = run_suite(mutant_factory("keep-phase2"), vr_min_suite, replay_dir=str(tmp_path))
    before = {log: Path(log).read_bytes() for log in first.replay_logs}
    factory = mutant_factory("skip-commit")
    second = run_suite(factory, vr_min_suite, replay_dir=str(tmp_path))
    assert set(first.replay_logs) - set(second.replay_logs)
    for log in set(first.replay_logs) - set(second.replay_logs):
        assert Path(log).read_bytes() == before[log]
    verdicts = {v.path_id: v for v in second.verdicts}
    for log in second.replay_logs:
        verdict = verdicts[int(Path(log).stem.removeprefix("path_"))]
        replayed = replay(log, factory)
        assert (replayed.status, replayed.failing_step, replayed.detail) == (
            verdict.status, verdict.failing_step, verdict.detail)


def test_a_replay_log_shares_the_parts_of_equal_text(vr_min_suite, tmp_path):
    # One state parser reads a log's R lines, as it reads a graph's S and E lines.
    report = run_suite(mutant_factory("keep-phase2"), vr_min_suite, replay_dir=str(tmp_path))
    log = read_replay_log(max(report.replay_logs, key=lambda p: Path(p).stat().st_size))
    assert len(log.steps) > 2
    by_text = {}
    for action, _dest, state in log.steps:
        for part in (state.actors, state.alive, state.globals_):
            assert by_text.setdefault(("value", canon.dumps(part)), part) is part
        for event in [*state.events, *filter(None, [action.event])]:
            assert by_text.setdefault(("event", event.key()), event) is event


def in_memory_suite(graph, paths):
    """A suite over an explored graph, without files; running it reads no header."""
    return SuiteFile(None, graph, paths)


def assert_walk_matches_fresh_replay(factory, suite):
    """The prefix-sharing run gives every path the verdict fresh replay gives it."""
    report = run_suite(factory, suite)
    assert report.verdicts == fresh_replay_verdicts(factory, suite)
    return report


@pytest.fixture(scope="module")
def vr_baseline_suite(vr_graph):
    _model, graph = vr_graph
    return in_memory_suite(graph, baseline_suite(graph.cover_graph()).paths)


@pytest.mark.parametrize("mutant", [None, *sorted(VR_MUTANTS)])
@pytest.mark.parametrize("suite", ["vr_min_suite", "vr_baseline_suite"])
def test_vr_verdicts_equal_fresh_replay(request, suite, mutant):
    suite = request.getfixturevalue(suite)
    factory = request.getfixturevalue("vr_factory") if mutant is None else mutant_factory(mutant)
    assert_walk_matches_fresh_replay(factory, suite)


def test_baseline_paths_end_where_others_continue(vr_baseline_suite):
    ordered = sorted(vr_baseline_suite.paths)
    assert any(len(p) < len(q) and q[: len(p)] == p for p, q in zip(ordered, ordered[1:]))


def test_kv_verdicts_equal_fresh_replay(kv_min_suite, kv_factory, bench_graph):
    assert_walk_matches_fresh_replay(kv_factory, kv_min_suite)
    # Crashes reset volatile state and drop events on the way.
    model, graph = bench_graph("kv-a3-s2-crash-drop")
    suite = in_memory_suite(graph, min_suite(graph.cover_graph()).paths)
    report = assert_walk_matches_fresh_replay(lambda: kv_emulator(model.bounds), suite)
    assert report.all_passed


def test_verdicts_do_not_depend_on_path_order_or_duplicates(vr_min_suite):
    """Reversed paths, one of them twice, get the verdicts their paths got before."""
    factory = mutant_factory("keep-phase2")
    before = {tuple(path): (v.status, v.failing_step, v.detail) for path, v in
              zip(vr_min_suite.paths, run_suite(factory, vr_min_suite).verdicts)}
    paths = [*reversed(vr_min_suite.paths), vr_min_suite.paths[0]]
    report = assert_walk_matches_fresh_replay(factory, in_memory_suite(vr_min_suite.graph, paths))
    assert [(v.status, v.failing_step, v.detail) for v in report.verdicts] == [
        before[tuple(path)] for path in paths]
    assert not report.all_passed


class _FailsOnActorZeroSets(KvActor):
    """Stores a set delivered to actor 0, then raises: one branch fails."""

    def on_event(self, event):
        requests = super().on_event(event)
        if event.kind == SET_REQUEST and self.actor_id == 0:
            raise RuntimeError("planted failure")
        return requests


def test_a_failing_branch_leaves_its_siblings_passing(kv_min_suite):
    def factory():
        return Emulator(KV_BOUNDS.actors, _FailsOnActorZeroSets)

    report = assert_walk_matches_fresh_replay(factory, kv_min_suite)
    assert 0 < report.totals[ACTOR_FAILURE] < len(kv_min_suite.paths)
    assert report.totals[PASS] + report.totals[ACTOR_FAILURE] == len(kv_min_suite.paths)


def test_an_emulator_of_another_actor_count_is_told_by_its_detail(vr_min_suite):
    report = run_suite(lambda: vr_emulator(replace(VR_BOUNDS, replicas=3)), vr_min_suite)
    assert report.totals[STATE_MISMATCH] == len(vr_min_suite.paths)
    assert {(v.failing_step, v.detail.split("; ")[0]) for v in report.verdicts} == {
        (1, "actor count: implementation=3 model=2")}


def test_each_shared_prefix_is_stepped_once(vr_min_suite, vr_factory):
    paths = vr_min_suite.paths
    prefixes = {tuple(p[:k]) for p in paths for k in range(1, len(p) + 1)}
    assert run_suite(vr_factory, vr_min_suite).steps_executed == len(prefixes) == 501
    assert sum(map(len, paths)) == 1056
    # A failing step ends every path through it: fewer steps run.
    assert run_suite(mutant_factory("keep-phase2"), vr_min_suite).steps_executed < 501


class _Snapshot:
    """An emulator stand-in whose every step gives the same snapshot."""

    def __init__(self, actors, alive, events):
        self.snapshot = SystemState(tuple(map(canon.freeze, actors)), alive, frozenset(events))

    def step(self, _action):
        return self.snapshot


SENT = Event("Ping", {"n": 1}, EXTERNAL, 0)
LOST = Event("Ping", {"n": 2}, EXTERNAL, 1)
STEP = Action.inject(SENT)


def model_state(actors, alive, events):
    return ModelState(tuple(map(canon.freeze, actors)), alive, canon.Record(), frozenset(events))


@pytest.mark.parametrize(
    "snapshot, expected, failure",
    [
        (([{"x": 1}], (True,), [SENT]), ([{"x": 1}], (True,), [SENT]), None),
        (([{"x": 1}], (True,), [SENT]), ([{"x": 1}], (True,), [LOST]),
         (EVENTS_MISMATCH, f"missing event {LOST.key()}; unexpected event {SENT.key()}")),
        (([{"x": 1}, {"y": "a"}], (True, True), [SENT]),
         ([{"x": 2}, {"y": "b"}], (True, True), [LOST]),
         (STATE_MISMATCH, 'actor 0.x: implementation=1 model=2; '
                          'actor 1.y: implementation="a" model="b"; '
                          f"missing event {LOST.key()}; unexpected event {SENT.key()}")),
        (([{"x": 1}], (True,), []), ([{"x": 3}], (True,), [LOST]),
         (STATE_MISMATCH, f"actor 0.x: implementation=1 model=3; missing event {LOST.key()}")),
        (([{"x": 1}, {"x": 1}], (True, False), []), ([{"x": 1}, {"x": 1}], (True, True), []),
         (STATE_MISMATCH, "actor 1.alive: implementation=false model=true")),
        (([{"x": 1}, {"x": 2}, {"x": 3}], (True, True, True), []),
         ([{"x": 1}, {"x": 5}], (True, True), []),
         (STATE_MISMATCH, "actor count: implementation=3 model=2; "
                          "actor 1.x: implementation=2 model=5")),
    ],
    ids=["equal", "events-only", "actors-and-events", "actors-and-missing", "alive-only",
         "actor-count"],
)
def test_check_step_tells_events_only_from_state_mismatches(snapshot, expected, failure):
    """Events alone differing is EVENTS_MISMATCH; any other difference is STATE_MISMATCH,
    detailed actors first, then missing events, then unexpected ones."""
    assert check_step(_Snapshot(*snapshot), STEP, model_state(*expected)) == failure


def test_check_step_compares_the_store_image_with_the_model_events():
    """The implementation's store counts a duplicate; the model's events are
    a tuple of distinct events, compared as a set of the same size."""
    emulator = Emulator(1, KvActor)
    event = Event(SET_REQUEST, {"key": "k", "value": "v", "serial": 1}, EXTERNAL, 0)
    emulator.step(Action.inject(event))
    images = emulator.snapshot().actors
    expected = ModelState(images, (True,), canon.Record(), (event,))
    assert check_step(emulator, Action.inject(event), expected) is None
    assert emulator.store.total() == 2
    # One event swapped for another at the same count, or one more event:
    # only the events differ.
    other = Event("Ping", {"n": 3}, EXTERNAL, 0)
    both = _Snapshot([{"x": 1}], (True,), [SENT, LOST])
    swapped = check_step(both, STEP, model_state([{"x": 1}], (True,), [other, LOST]))
    assert swapped == (EVENTS_MISMATCH, f"missing event {other.key()}; unexpected event {SENT.key()}")
    extra = check_step(both, STEP, model_state([{"x": 1}], (True,), [LOST]))
    assert extra == (EVENTS_MISMATCH, f"unexpected event {SENT.key()}")


# (graph, mutant) -> edges whose step fails from an emulator state that
# conforming steps reach; mutant None is the correct implementation.
PRODUCT_FRONTIERS = {
    ("kv", None): 0,
    **{("vr", m): 0 for m in (None, "prepend-entry", "stale-prepare")},
    ("vr", "keep-phase2"): 50,
    ("vr", "skip-commit"): 25,
    ("vr", "no-commit-broadcast"): 25,
    ("vr-r2-q2-v1", None): 0,
    ("vr-r2-q2-v1", "keep-phase2"): 545,
    ("vr-r2-q2-v1", "skip-commit"): 455,
    ("vr-r2-q2-v1", "no-commit-broadcast"): 455,
    ("vr-r2-q2-v1", "prepend-entry"): 300,
    ("vr-r2-q2-v1", "stale-prepare"): 0,
}


@pytest.fixture(scope="module")
def min_suites(request, bench_graph):
    """Graph name -> (model, min suite over its graph), built once per module."""
    built = {}

    def get(name):
        if name not in built:
            if name in ("kv", "vr"):
                model, graph = request.getfixturevalue(f"{name}_graph")
            else:
                model, graph = bench_graph(name)
            built[name] = model, in_memory_suite(graph, min_suite(graph.cover_graph()).paths)
        return built[name]

    return get


def test_product_frontiers_cover_every_mutant():
    for graph in ("vr", "vr-r2-q2-v1"):
        assert {m for name, m in PRODUCT_FRONTIERS if name == graph} == {None, *VR_MUTANTS}


@pytest.mark.parametrize("name, mutant", sorted(PRODUCT_FRONTIERS, key=str))
def test_the_min_suite_fails_on_every_edge_of_the_product_frontier(min_suites, name, mutant):
    """Searched exhaustively, conforming steps reach one emulator state per
    vertex, and the edges whose step fails from one of them are exactly the
    edges the min suite's paths first fail on."""
    model, suite = min_suites(name)
    spec = get_system(model.name)
    make = spec.make_emulator if mutant is None else spec.mutants[mutant]
    factory = partial(make, model.bounds)
    reached, frontier = product_search(factory, suite.graph)
    assert all(len(states) == 1 for states in reached.values())
    assert len(frontier) == PRODUCT_FRONTIERS[name, mutant]
    report = run_suite(factory, suite)
    assert frontier == {suite.paths[v.path_id][v.failing_step - 1]
                        for v in report.verdicts if not v.passed}
