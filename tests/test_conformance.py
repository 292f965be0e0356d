"""Replaying min suites against the correct emulators and the seeded vr mutants.

The vr suite is the 108-path min suite of vr with 2 replicas, 1 query and
1 view (310 states); the kill matrix below pins which mutants it kills.
"""

import pytest

from actorcover.conformance import (
    EVENTS_MISMATCH,
    PASS,
    STATE_MISMATCH,
    STATUSES,
    replay,
    run_suite,
)
from actorcover.systems import get_system

from conftest import VR_BOUNDS

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


@pytest.mark.parametrize("mutant", [None, "keep-phase2", "no-commit-broadcast"])
def test_jobs_do_not_change_verdicts(vr_min_suite, vr_factory, mutant):
    factory = vr_factory if mutant is None else mutant_factory(mutant)
    one = run_suite(factory, vr_min_suite, jobs=1)
    two = run_suite(factory, vr_min_suite, jobs=2)
    assert two.verdicts == one.verdicts
    assert two.totals == one.totals
