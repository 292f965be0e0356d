import hashlib
import random

import pytest

from actorcover import canon
from actorcover.actors import EXTERNAL, Action, Event
from actorcover.explore import check_quiescent_progress, explore
from actorcover.model import GuardViolationError, ModelState
from actorcover.systems.vr import (
    VIEW_CHANGE,
    VrActor,
    VrBounds,
    VrModel,
    committed_prefix,
    initial_replica,
)
from oracles import edges


def timeout_event(replica, view):
    return Event("StartViewChange", {"view": view}, EXTERNAL, replica)


def request_event(replica, op=1):
    return Event("Request", {"op": op}, EXTERNAL, replica)


def test_initial_state_matches_protocol_start():
    model = VrModel(VrBounds(3, 1, 1))
    state = model.initial_state()
    for r in range(3):
        rec = state.actors[r]
        assert rec["status"] == "Normal"
        assert rec["log"] == ()
        assert rec["viewNumber"] == 0
        assert rec["commitNumber"] == 0
        assert rec["downloadReplica"] == r  # self: not downloading
        assert rec["catchupPos"] == 0
        assert rec["phase2"] is False
    assert state.globals_["queriesCount"] == 0
    assert state.events == ()


def test_init_enables_requests_and_timeouts_only():
    model = VrModel(VrBounds(3, 1, 1))
    actions = model.enabled_actions(model.initial_state())
    assert len(actions) == 6
    assert all(a.kind == "inject" for a in actions)
    kinds = sorted((a.event.kind, a.event.destination) for a in actions)
    assert kinds == [
        ("Request", 0),
        ("Request", 1),
        ("Request", 2),
        ("StartViewChange", 0),
        ("StartViewChange", 1),
        ("StartViewChange", 2),
    ]


def test_exhausted_query_bound_disables_client_requests():
    model = VrModel(VrBounds(3, 0, 1))
    actions = model.enabled_actions(model.initial_state())
    assert all(a.event.kind != "Request" for a in actions)


def test_view_bound_disables_timeout():
    model = VrModel(VrBounds(3, 1, 0))
    actions = model.enabled_actions(model.initial_state())
    assert all(a.event.kind != "StartViewChange" for a in actions)


def test_timeout_fire_produces_view_change_state():
    # Inject the timer stimulus, then deliver it: replica 1 enters the view
    # change and notifies each other replica once.
    model = VrModel(VrBounds(3, 1, 1))
    state = model.apply(model.initial_state(), Action.inject(timeout_event(1, 1)))
    state = model.apply(state, Action.deliver(timeout_event(1, 1)))
    rec = state.actors[1]
    assert rec["status"] == "ViewChange"
    assert rec["viewNumber"] == 1
    assert rec["downloadReplica"] is None
    assert rec["catchupPos"] == 0
    assert rec["phase2"] is False
    assert state.events == (
        Event("StartViewChange", {"view": 1}, 1, 0),
        Event("StartViewChange", {"view": 1}, 1, 2),
    )
    # Bookkeeping untouched by anything but client requests.
    assert state.globals_["queriesCount"] == 0


def test_applying_same_action_twice_is_pure():
    model = VrModel(VrBounds(3, 1, 1))
    init = model.initial_state()
    action = Action.inject(request_event(0))
    assert model.apply(init, action) == model.apply(init, action)
    assert init.globals_["queriesCount"] == 0


def test_request_injection_counts_queries():
    model = VrModel(VrBounds(3, 2, 0))
    state = model.apply(model.initial_state(), Action.inject(request_event(0)))
    assert state.globals_["queriesCount"] == 1
    state = model.apply(state, Action.inject(request_event(2, op=2)))
    assert state.globals_["queriesCount"] == 2
    with pytest.raises(GuardViolationError):
        model.apply(state, Action.inject(request_event(1, op=3)))


def test_disabled_action_raises_guard_violation():
    model = VrModel(VrBounds(3, 1, 1))
    with pytest.raises(GuardViolationError):
        model.apply(model.initial_state(), Action.deliver(request_event(0)))


def test_memoized_steps_keep_both_delivery_guards():
    # Deliver a Prepare to replica 1 once, so the step memo holds
    # (replica 1's initial record, prepare).
    model = VrModel(VrBounds(3, 1, 0))
    init = model.initial_state()
    sent = model.apply(init, Action.inject(request_event(0)))
    sent = model.apply(sent, Action.deliver(request_event(0)))
    prepare = next(e for e in sent.events if e.destination == 1)
    delivered = model.apply(sent, Action.deliver(prepare))
    assert delivered.actors[1]["log"] == (prepare.payload["entry"],)
    assert (init.actors[1], prepare) in model._steps
    # Same record, same event, but the event is not in flight.
    assert init.actors[1] == sent.actors[1]
    with pytest.raises(GuardViolationError, match="not in flight"):
        model.apply(init, Action.deliver(prepare))
    # The event is in flight, but replica 1 is mid-election, so it is not deliverable.
    moved = ModelState(
        actors=sent.replace_actor(1, sent.actors[1].replace(status=VIEW_CHANGE)),
        alive=sent.alive,
        globals_=sent.globals_,
        events=sent.events,
    )
    with pytest.raises(GuardViolationError, match="not enabled"):
        model.apply(moved, Action.deliver(prepare))
    # With the record back as it was, the memoized step is returned again.
    assert model.apply(sent, Action.deliver(prepare)) == delivered


def test_an_unknown_message_kind_raises_guard_violation():
    model = VrModel(VrBounds(2, 1, 1))
    init = model.initial_state()
    bogus = Event("Bogus", {"view": 1}, 1, 0)
    state = ModelState(init.actors, init.alive, init.globals_, frozenset({bogus}))
    with pytest.raises(GuardViolationError, match="unknown message kind 'Bogus'"):
        model.enabled_actions(state)
    with pytest.raises(GuardViolationError, match="unknown message kind 'Bogus'"):
        model.apply(state, Action.deliver(bogus))


def test_master_appends_and_replicates():
    model = VrModel(VrBounds(3, 1, 0))
    state = model.apply(model.initial_state(), Action.inject(request_event(0)))
    state = model.apply(state, Action.deliver(request_event(0)))
    rec = state.actors[0]
    entry = canon.Record(view=0, op=1)
    assert rec["log"] == (entry,)
    assert rec["commitNumber"] == 0
    expected = (
        Event("Prepare", {"view": 0, "pos": 1, "entry": entry, "commit": 0}, 0, 1),
        Event("Prepare", {"view": 0, "pos": 1, "entry": entry, "commit": 0}, 0, 2),
    )
    assert state.events == expected


def test_request_to_backup_is_dropped():
    model = VrModel(VrBounds(3, 1, 0))
    state = model.apply(model.initial_state(), Action.inject(request_event(1)))
    state = model.apply(state, Action.deliver(request_event(1)))
    assert state.actors[1]["log"] == ()
    assert state.events == ()


def test_single_replica_commits_at_append():
    model = VrModel(VrBounds(1, 1, 0))
    state = model.apply(model.initial_state(), Action.inject(request_event(0)))
    state = model.apply(state, Action.deliver(request_event(0)))
    rec = state.actors[0]
    assert rec["commitNumber"] == 1 and len(rec["log"]) == 1
    assert state.events == ()


def explore_vr(*bounds, **kwargs):
    model = VrModel(VrBounds(*bounds))
    result = explore(model, **kwargs)
    assert not result.violations
    return model, result.graph


def test_normal_case_reaches_full_commit_everywhere():
    model, graph = explore_vr(3, 1, 0)
    report = check_quiescent_progress(graph, model)
    assert not report.violations and not report.no_sinks
    for index in graph.sink_indices():
        state = graph.state(index)
        logs = [rec["log"] for rec in state.actors]
        assert logs[0] == logs[1] == logs[2]
        assert all(rec["commitNumber"] == len(rec["log"]) for rec in state.actors)


def test_view_change_quiesces_with_elected_master():
    model, graph = explore_vr(3, 0, 1)
    report = check_quiescent_progress(graph, model)
    assert not report.violations
    for index in graph.sink_indices():
        state = graph.state(index)
        assert all(rec["status"] == "Normal" for rec in state.actors)
        views = {rec["viewNumber"] for rec in state.actors}
        assert views == {1}


def test_committed_prefixes_only_extend_along_edges():
    _model, graph = explore_vr(2, 1, 1)
    for source, destination in zip(graph.sources, graph.destinations):
        src = graph.state(source)
        dst = graph.state(destination)
        for before, after in zip(src.actors, dst.actors):
            prefix = committed_prefix(before)
            assert committed_prefix(after)[: len(prefix)] == prefix


def test_stale_messages_never_block_quiescence():
    model, graph = explore_vr(2, 1, 1)
    report = check_quiescent_progress(graph, model)
    assert not report.violations
    assert not report.no_sinks


def test_actor_initial_projection_matches_model():
    for r in range(3):
        actor = VrActor(r, 3)
        assert actor.to_model() == initial_replica(r)


def test_actor_crash_resets_only_volatile_fields():
    actor = VrActor(1, 3)
    actor.log = [canon.Record(view=0, op=1)]
    actor.view_number = 1
    actor.commit_number = 1
    actor.status = "ViewChange"
    actor.phase2 = True
    actor.download_replica = None
    actor.catchup_pos = 1
    actor.reset_volatile()
    projected = actor.to_model()
    assert projected["log"] == (canon.Record(view=0, op=1),)
    assert projected["viewNumber"] == 1
    assert projected["commitNumber"] == 1
    assert projected["status"] == "Normal"
    assert projected["phase2"] is False
    assert projected["downloadReplica"] == 1
    assert projected["catchupPos"] == 0


def test_actor_prepare_appends_without_committing():
    actor = VrActor(1, 3)
    entry = canon.Record(view=0, op=1)
    requests = actor.on_event(
        Event("Prepare", {"view": 0, "pos": 1, "entry": entry, "commit": 0}, 0, 1)
    )
    projected = actor.to_model()
    assert projected["log"] == (entry,)
    assert projected["commitNumber"] == 0
    assert len(requests) == 1
    ack = requests[0].to_event(1)
    assert ack.kind == "PrepareOk" and ack.destination == 0
    assert ack.payload == canon.Record(view=0, pos=1)


def test_replicas_bound_enforced():
    with pytest.raises(ValueError):
        VrBounds(replicas=4)


# sha256 of the violations (index, name, detail) and the counterexample
# (action key, state index) that explore reported on the bug below, taken
# before the invariants were memoized; lines joined as in ``digest_lines``.
QUORUM_BUG_VIOLATIONS = "37fac7b07dc83464722c0cf1b8d5229c7ea3a185abded76fd4090533b6c10e91"
QUORUM_BUG_COUNTEREXAMPLE = "6012bec36d60a7b3fbecaa97f0495cf684b6b6907fca0d08f00e96e44abb4cb6"


def digest_lines(rows) -> str:
    text = "\n".join("\t".join(map(str, row)) for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()


def test_commit_without_quorum_bug_is_caught_by_invariant():
    model = VrModel(VrBounds(3, 2, 1), commit_without_quorum=True)
    result = explore(model, max_states=400_000)
    names = {v.name for v in result.violations}
    assert "PrefixLogConsistency" in names
    assert len(result.violations) == 4
    assert (
        digest_lines((v.state_index, v.name, v.detail) for v in result.violations)
        == QUORUM_BUG_VIOLATIONS
    )
    violation = result.violations[0]
    steps = edges(result.graph)
    path = [steps[eid] for eid in result.graph.tree_path(violation.state_index)]
    assert (digest_lines((action.key(), dst) for _src, action, dst in path)
            == QUORUM_BUG_COUNTEREXAMPLE)
    # The counterexample replays from the initial state to the bad state.
    state = model.initial_state()
    for _src, action, _dst in path:
        state = model.apply(state, action)
    assert violation.state_index == path[-1][2]
    assert model._check_prefix_consistency(state) is not None


def test_type_bounds_verdicts_are_kept_per_actors_and_globals():
    # Equal actors, different globals: each state gets its own verdict, in
    # either order, from one invariant list (one memo).
    model = VrModel(VrBounds(3, 1, 1))
    within = model.initial_state()
    beyond = ModelState(
        actors=within.actors,
        alive=within.alive,
        globals_=canon.Record(queriesCount=2),
        events=within.events,
    )
    for order in ([within, beyond], [beyond, within]):
        checks = {inv.name: inv.check for inv in model.invariants()}
        verdicts = {id(state): checks["TypeBounds"](state) for state in order}
        assert verdicts[id(within)] is None
        assert verdicts[id(beyond)] == "queriesCount beyond bound"
        assert checks["PrefixLogConsistency"](beyond) is None


def test_memoized_invariants_agree_with_the_checks_on_every_state(vr_graph):
    model, graph = vr_graph
    checks = {inv.name: inv.check for inv in model.invariants()}
    for state in graph.states:
        assert checks["PrefixLogConsistency"](state) == model._check_prefix_consistency(state)
        assert checks["TypeBounds"](state) == model._check_type_bounds(state)


def test_step_values_of_equal_text_are_one_object():
    model = VrModel(VrBounds(3, 1, 1))
    first = model._intern(canon.Record(view=0, op=1))
    assert model._intern(canon.Record(op=1, view=0)) is first
    event = model._intern(Event("Commit", {"view": 0, "commit": 1}, 0, 1))
    assert model._intern(Event("Commit", {"commit": 1, "view": 0}, 0, 1)) is event
    # Equal but written differently: two objects, each with its own text.
    one = model._intern(canon.Record(a=1))
    true = model._intern(canon.Record(a=True))
    assert one == true and one is not true
    assert (canon.dumps(one), canon.dumps(true)) == ('{"a":1}', '{"a":true}')
    assert model._intern(canon.Record(a=True)) is true


def test_explored_states_share_one_object_per_record_and_event(vr_graph):
    _model, graph = vr_graph
    records, events = {}, {}
    for state in graph.states:
        for rec in state.actors:
            assert records.setdefault(canon.dumps(rec), rec) is rec
        for event in state.events:
            assert events.setdefault(event.key(), event) is event
    assert len(records) < len(graph.states)


def test_enabled_actions_reuse_one_action_per_event_in_sort_token_order(vr_graph):
    model, graph = vr_graph
    shuffle = random.Random(5).shuffle
    seen = {}
    for state in graph.states:
        actions = model.enabled_actions(state)
        for action in actions:
            assert seen.setdefault((action.kind, action.event.key()), action) is action
        fresh = [Action(a.kind, event=Event(**a.event.to_value())) for a in actions]
        shuffle(fresh)
        fresh.sort(key=Action.sort_token)
        assert [a.key() for a in fresh] == [a.key() for a in actions]
    assert {(graph.actions[aid].kind, graph.actions[aid].event.key())
            for aid in graph.action_ids} == seen.keys()
