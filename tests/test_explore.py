import pytest

from actorcover import canon
from actorcover.actors import Action, Event
from actorcover.explore import (
    StateCapExceededError,
    canonical_key,
    check_quiescent_progress,
    explore,
)
from actorcover.model import (
    DuplicateEmissionError,
    Invariant,
    Model,
    ModelState,
    merged_events,
)
from actorcover.systems.kv import KvBounds, KvModel


class CounterModel(Model):
    """Tiny inline model: bump a counter to a limit via inject actions."""

    name = "counter"

    def __init__(self, limit, fail_at=None):
        self.limit = limit
        self.fail_at = fail_at

    def bounds_value(self):
        return canon.Record(limit=self.limit)

    def initial_state(self):
        return ModelState(
            actors=(canon.Record(count=0),),
            alive=(True,),
            globals_=canon.Record(),
            events=frozenset(),
        )

    def enabled_actions(self, state):
        count = state.actors[0]["count"]
        if count >= self.limit:
            return []
        return [Action.inject(Event("Tick", {"n": count + 1}, -1, 0))]

    def apply(self, state, action):
        count = state.actors[0]["count"]
        return ModelState(
            actors=(canon.Record(count=count + 1),),
            alive=(True,),
            globals_=canon.Record(),
            events=frozenset(),
        )

    def invariants(self):
        if self.fail_at is None:
            return []
        return [
            Invariant(
                "BelowFailure",
                lambda s: "hit" if s.actors[0]["count"] == self.fail_at else None,
            )
        ]


def test_model_with_no_enabled_actions_gives_single_state():
    result = explore(CounterModel(0))
    assert result.graph.state_count == 1
    assert result.graph.edge_count == 0
    assert result.graph.diameter() == 0


def test_kv_single_actor_graph_shape():
    result = explore(KvModel(KvBounds(actors=1, max_sets=1)))
    graph = result.graph
    assert graph.state_count == 3
    assert graph.edge_count == 2
    kinds = [e.action.kind for e in graph.edges]
    assert kinds == ["inject", "deliver"]


def test_kv_three_actor_graph_shape():
    graph = explore(KvModel(KvBounds(actors=3, max_sets=1))).graph
    assert graph.state_count == 7
    assert graph.edge_count == 6
    assert graph.diameter() == 2
    assert len(graph.sink_indices()) == 3


def test_vertex_count_equals_distinct_canonical_keys():
    graph = explore(KvModel(KvBounds(actors=2, max_sets=2))).graph
    keys = {canonical_key(s) for s in graph.states}
    assert len(keys) == graph.state_count


def test_edge_count_is_sum_of_enabled_actions():
    model = KvModel(KvBounds(actors=2, max_sets=2, max_gets=1))
    graph = explore(model).graph
    assert graph.edge_count == sum(
        len(model.enabled_actions(state)) for state in graph.states
    )


def test_every_state_reachable_from_root():
    graph = explore(KvModel(KvBounds(actors=2, max_sets=2))).graph
    seen = {1}
    frontier = [1]
    while frontier:
        nxt = []
        for u in frontier:
            for e in graph.edges:
                if e.source == u and e.destination not in seen:
                    seen.add(e.destination)
                    nxt.append(e.destination)
        frontier = nxt
    assert seen == set(range(1, graph.state_count + 1))


def test_exploring_twice_yields_identical_graphs():
    model = KvModel(KvBounds(actors=2, max_sets=2, max_gets=1))
    first = explore(model).graph
    second = explore(model).graph
    assert [canonical_key(s) for s in first.states] == [
        canonical_key(s) for s in second.states
    ]
    assert [(e.source, e.action.key(), e.destination) for e in first.edges] == [
        (e.source, e.action.key(), e.destination) for e in second.edges
    ]


def test_state_cap_exceeded():
    with pytest.raises(StateCapExceededError) as info:
        explore(CounterModel(100), max_states=10)
    assert info.value.states == 10


def test_invariant_violation_has_shortest_counterexample():
    result = explore(CounterModel(10, fail_at=4))
    assert result.violations
    violation = result.violations[0]
    assert violation.name == "BelowFailure"
    assert result.counterexample is not None
    assert len(result.counterexample) == 4  # four ticks reach the bad state
    assert result.counterexample[-1][1] == violation.state_index


def test_commutativity_diamond_on_kv_graph():
    graph = explore(KvModel(KvBounds(actors=2, max_sets=2))).graph
    by_source = {}
    for e in graph.edges:
        by_source.setdefault(e.source, []).append(e)
    diamonds = 0
    for index in range(1, graph.state_count + 1):
        delivers = [
            e
            for e in by_source.get(index, [])
            if e.action.kind == "deliver"
        ]
        for i, first in enumerate(delivers):
            for second in delivers[i + 1 :]:
                if first.action.event.destination == second.action.event.destination:
                    continue
                after_first = {
                    e.action.event: e.destination
                    for e in by_source.get(first.destination, [])
                    if e.action.kind == "deliver"
                }
                after_second = {
                    e.action.event: e.destination
                    for e in by_source.get(second.destination, [])
                    if e.action.kind == "deliver"
                }
                meet_a = after_first.get(second.action.event)
                meet_b = after_second.get(first.action.event)
                assert meet_a is not None and meet_a == meet_b
                diamonds += 1
    assert diamonds > 0


def test_quiescence_flags_graph_without_sinks():
    class Spinner(CounterModel):
        def enabled_actions(self, state):
            return [Action.inject(Event("Tick", {"n": 0}, -1, 0))]

        def apply(self, state, action):
            return state

    report = check_quiescent_progress(explore(Spinner(1)).graph, Spinner(1))
    assert report.no_sinks
    assert not report.violations


def test_duplicate_emission_rejected():
    event = Event("Tick", {"n": 1}, -1, 0)
    with pytest.raises(DuplicateEmissionError):
        merged_events(frozenset({event}), None, [Event("Tick", {"n": 1}, -1, 0)])


def test_merged_events_removes_and_adds():
    a = Event("Tick", {"n": 1}, -1, 0)
    b = Event("Tick", {"n": 2}, -1, 0)
    assert merged_events(frozenset({a}), a, [b]) == frozenset({b})


def test_canonical_key_stable_listing():
    state = KvModel(KvBounds(actors=2)).initial_state()
    assert canonical_key(state) == (
        '{"actors":[{"storage":{}},{"storage":{}}],"alive":[true,true],'
        '"events":{"$set":[]},"globals":{"gets":0,"sets":0}}'
    )
    assert canonical_key(state) == canon.dumps(state.to_value())
