"""Replaying min suites against the correct emulators and the seeded vr mutants.

The vr suite is the 108-path min suite of vr with 2 replicas, 1 query and
1 view (310 states); the kill matrix below pins which mutants it kills.
The prefix-sharing runner's verdicts are checked against fresh per-path
replay (``oracles.fresh_replay_verdicts``).
"""

from pathlib import Path

import pytest

from actorcover import canon
from actorcover.actors import Emulator, EmulatorConfig
from actorcover.conformance import (
    ACTOR_FAILURE,
    EVENTS_MISMATCH,
    PASS,
    STATE_MISMATCH,
    STATUSES,
    read_replay_log,
    replay,
    run_suite,
)
from actorcover.suitefile import SuiteFile
from actorcover.systems import get_system
from actorcover.systems.kv import SET_REQUEST, KvActor, make_emulator as kv_emulator
from actorcover.tsg import baseline_suite, min_suite

from conftest import KV_BOUNDS, VR_BOUNDS
from oracles import fresh_replay_verdicts

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


@pytest.mark.parametrize("mutant", sorted(KILL_MATRIX))
def test_vr_kill_matrix_and_replay_logs(vr_min_suite, mutant, tmp_path):
    """Each killed path's replay log, replayed with the mutant, gives the same verdict."""
    assert len(vr_min_suite.paths) == 108
    factory = mutant_factory(mutant)
    report = run_suite(factory, vr_min_suite, replay_dir=str(tmp_path))
    expected = dict.fromkeys(STATUSES, 0)
    expected.update(KILL_MATRIX[mutant])
    expected[PASS] = 108 - sum(KILL_MATRIX[mutant].values())
    assert report.totals == expected
    failed = [v for v in report.verdicts if not v.passed]
    assert len(report.replay_logs) == len(failed)
    for verdict, log in zip(failed, report.replay_logs):
        assert replay(log, factory, vr_min_suite.header.content_hash) == verdict


def test_a_replay_log_shares_the_parts_of_equal_text(vr_min_suite, tmp_path):
    # One state parser reads a log's R lines, as it reads a graph's S and E lines.
    report = run_suite(mutant_factory("keep-phase2"), vr_min_suite, replay_dir=str(tmp_path))
    log = read_replay_log(max(report.replay_logs, key=lambda p: Path(p).stat().st_size))
    assert len(log.steps) > 2
    by_text = {}
    for action, _dest, state in log.steps:
        for part in (state.actors, state.alive, state.globals_):
            assert by_text.setdefault(("value", canon.dumps(part)), part) is part
        for event in [*state.events, *filter(None, [action.event]), *action.drops]:
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
        return Emulator(EmulatorConfig(KV_BOUNDS.actors, _FailsOnActorZeroSets))

    report = assert_walk_matches_fresh_replay(factory, kv_min_suite)
    assert 0 < report.totals[ACTOR_FAILURE] < len(kv_min_suite.paths)
    assert report.totals[PASS] + report.totals[ACTOR_FAILURE] == len(kv_min_suite.paths)


def test_each_shared_prefix_is_stepped_once(vr_min_suite, vr_factory):
    paths = vr_min_suite.paths
    prefixes = {tuple(p[:k]) for p in paths for k in range(1, len(p) + 1)}
    assert run_suite(vr_factory, vr_min_suite).steps_executed == len(prefixes) == 501
    assert sum(map(len, paths)) == 1056
    # A failing step ends every path through it: fewer steps run.
    assert run_suite(mutant_factory("keep-phase2"), vr_min_suite).steps_executed < 501
