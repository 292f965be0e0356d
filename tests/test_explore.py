import gc
import hashlib
import tracemalloc
import weakref
from array import array

import pytest

from actorcover import canon, tsg
from actorcover.actors import Action, Event
from actorcover.dot import export_dot
from actorcover.explore import (
    StateCapExceededError,
    TransitionGraph,
    check_quiescent_progress,
    explore,
)
from actorcover.model import (
    DuplicateEmissionError,
    GuardViolationError,
    Invariant,
    Model,
    ModelState,
    merged_events,
)
from actorcover.suitefile import read_graph_file, write_graph_file
from actorcover.systems.kv import KvBounds, KvModel, _corrupted_payload
from actorcover.systems.vr import VrBounds, VrModel
from conftest import KV_BOUNDS, VR_BOUNDS
from oracles import edges


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
    kinds = [action.kind for _src, action, _dst in edges(graph)]
    assert kinds == ["inject", "deliver"]


def test_kv_three_actor_graph_shape():
    graph = explore(KvModel(KvBounds(actors=3, max_sets=1))).graph
    assert graph.state_count == 7
    assert graph.edge_count == 6
    assert graph.diameter() == 2
    assert len(graph.sink_indices()) == 3


def test_kv_corrupts_each_set_request_at_most_once():
    model = KvModel(KvBounds(actors=1, max_sets=1, allow_corrupt=True))
    graph = explore(model).graph
    # Inject, then deliver the request or corrupt it and deliver that.
    assert (graph.state_count, graph.edge_count) == (5, 4)
    corrupt = next(dst for _src, action, dst in edges(graph) if action.kind == "corrupt")
    state = graph.state(corrupt)
    (event,) = state.events
    assert event.payload["value"] == "corrupt:v1"
    assert all(a.kind != "corrupt" for a in model.enabled_actions(state))
    with pytest.raises(GuardViolationError, match="unexpected corruption"):
        model.apply(state, Action.corrupt(event, _corrupted_payload(event)))


def test_vertex_count_equals_distinct_canonical_keys():
    graph = explore(KvModel(KvBounds(actors=2, max_sets=2))).graph
    keys = {s.key() for s in graph.states}
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
            for src, dst in zip(graph.sources, graph.destinations):
                if src == u and dst not in seen:
                    seen.add(dst)
                    nxt.append(dst)
        frontier = nxt
    assert seen == set(range(1, graph.state_count + 1))


def test_exploring_twice_yields_identical_graphs():
    model = KvModel(KvBounds(actors=2, max_sets=2, max_gets=1))
    first = explore(model).graph
    second = explore(model).graph
    assert [s.key() for s in first.states] == [s.key() for s in second.states]
    assert [(src, a.key(), dst) for src, a, dst in edges(first)] == [
        (src, a.key(), dst) for src, a, dst in edges(second)
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
    path = result.graph.tree_path(violation.state_index)
    assert len(path) == 4  # four ticks reach the bad state
    assert result.graph.destinations[path[-1]] == violation.state_index


def test_commutativity_diamond_on_kv_graph():
    graph = explore(KvModel(KvBounds(actors=2, max_sets=2))).graph
    by_source = {}
    for src, action, dst in edges(graph):
        by_source.setdefault(src, []).append((action, dst))
    diamonds = 0
    for index in range(1, graph.state_count + 1):
        delivers = [
            (action, dst)
            for action, dst in by_source.get(index, [])
            if action.kind == "deliver"
        ]
        for i, (first, first_dst) in enumerate(delivers):
            for second, second_dst in delivers[i + 1 :]:
                if first.event.destination == second.event.destination:
                    continue
                after_first = {
                    action.event: dst
                    for action, dst in by_source.get(first_dst, [])
                    if action.kind == "deliver"
                }
                after_second = {
                    action.event: dst
                    for action, dst in by_source.get(second_dst, [])
                    if action.kind == "deliver"
                }
                meet_a = after_first.get(second.event)
                meet_b = after_second.get(first.event)
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
    assert merged_events(frozenset({a}), a, [b]) == (b,)


def test_merged_events_keep_distinct_keys_in_key_order():
    a, b, c = (Event("Tick", {"n": n}, -1, 0) for n in (1, 2, 3))
    # An equal event that is another object is removed as well as the object in flight.
    assert merged_events((a, b), Event("Tick", {"n": 1}, -1, 0), []) == (b,)
    assert merged_events((a, b), b, []) == (a,)
    assert merged_events((a,), c, []) == (a,)
    merged = merged_events((b,), None, [c, a])
    assert merged == (a, b, c)
    assert [e.key() for e in merged] == sorted(e.key() for e in merged)
    with pytest.raises(DuplicateEmissionError):
        merged_events((a, b), None, [Event("Tick", {"n": 2}, -1, 0)])
    # Equal events of two texts are two members, as in a file.
    true = Event("Tick", {"n": True}, -1, 0)
    assert true == a
    assert merged_events((a,), None, [true]) == tuple(sorted((a, true), key=Event.key))


def test_a_state_from_a_set_of_events_is_the_model_state(vr_graph):
    _model, graph = vr_graph
    built = max(graph.states, key=lambda s: len(s.events))
    assert len(built.events) > 2
    from_set = ModelState(built.actors, built.alive, built.globals_, frozenset(built.events))
    assert from_set.events == built.events
    assert from_set == built and hash(from_set) == hash(built)
    assert from_set.text() == built.text() == canon.dumps(built.to_value())
    assert not hasattr(built, "__dict__") and not hasattr(from_set, "__dict__")


def test_explore_keeps_its_states_compact():
    """Under tracemalloc, the vr r2 q2 v1 graph with its model retains at most
    1.6 MB (1.36 MB with its edges in columns, 1.93 MB with one object per
    edge, and 3.2 MB when each state also held a frozenset and a ``__dict__``)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        model = VrModel(VrBounds(2, 2, 1))
        result = explore(model)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert result.graph.state_count == 4805
    assert retained <= 1.6e6, f"explore retains {retained / 1e6:.2f} MB"


def test_canonical_key_stable_listing():
    state = KvModel(KvBounds(actors=2)).initial_state()
    assert state.key() == (
        '{"actors":[{"storage":{}},{"storage":{}}],"alive":[true,true],'
        '"events":{"$set":[]},"globals":{"gets":0,"sets":0}}'
    )
    assert state.key() == canon.dumps(state.to_value())


# sha256 of the graph files ``write_graph_file`` wrote for the conftest vr
# (310 states) and kv graphs, taken before Records cached their text.
GRAPH_DIGESTS = {
    "vr": "636505e46ebe93cbf8c4dd5b1b69003114e5856bb99bfe8b5c08b5faca116796",
    "kv": "0584025d6114a05087822ef6d064fda436ce7f2d8d1c8a9450a4184be19ec6fd",
}


@pytest.mark.parametrize("name", sorted(GRAPH_DIGESTS))
def test_graph_files_are_pinned_byte_for_byte(request, tmp_path, name):
    model, graph = request.getfixturevalue(f"{name}_graph")
    first, second = tmp_path / "first.ac1", tmp_path / "second.ac1"
    write_graph_file(first, model.name, model.bounds_value(), graph)
    assert hashlib.sha256(first.read_bytes()).hexdigest() == GRAPH_DIGESTS[name]
    # Read back through the state parser, the graph writes the same bytes.
    _header, read = read_graph_file(first)
    assert read.states == graph.states
    # The columns explore built, and its actions in the same first-use order.
    assert read.sources == graph.sources
    assert read.action_ids == graph.action_ids
    assert read.destinations == graph.destinations
    assert [a.key() for a in read.actions] == [a.key() for a in graph.actions]
    assert read.actions == graph.actions
    # The parser shares events by text: the states' with each other and with the actions'.
    events = {}
    for event in ([e for s in read.states for e in s.events]
                  + [a.event for a in read.actions]):
        assert event is None or events.setdefault(event.key(), event) is event
    write_graph_file(second, model.name, model.bounds_value(), read)
    assert second.read_bytes() == first.read_bytes()


# sha256 of the graph files written for the benchmark's explored bounds: the
# first two taken before explore shared actions and memoized replica steps,
# vr r3 q1 v1 (72,518 states, 149,003 edges) before the vr model interned its
# step values and reused its actions.
BENCH_GRAPH_DIGESTS = {
    "vr-r2-q2-v1": (
        lambda: VrModel(VrBounds(replicas=2, max_queries=2, max_views=1)),
        "cd3d45a78b8803c4d371bdfcb1775cb157b87646dfab9d3ee165a9f26d42a020",
    ),
    "kv-a3-s2-crash-drop": (
        lambda: KvModel(KvBounds(actors=3, max_sets=2, allow_crash=True, allow_drop=True)),
        "41ec17bd68e2f43ccbad650d320bef7e3e9fc506e7729a20dedddbb4a9d11fdb",
    ),
    "vr-r3-q1-v1": (
        lambda: VrModel(VrBounds(replicas=3, max_queries=1, max_views=1)),
        "d4aae1770642acc53695c23ca683f75c4e2f5501b7d0db7aeb1908b5a2963c21",
    ),
}


@pytest.mark.parametrize("name", sorted(BENCH_GRAPH_DIGESTS))
def test_bench_graph_files_are_pinned_byte_for_byte(tmp_path, name):
    make_model, digest = BENCH_GRAPH_DIGESTS[name]
    model = make_model()
    result = explore(model)
    assert result.ok
    # Each distinct action is one object, and one id, on the edges.
    actions = result.graph.actions
    assert len(set(actions)) == len(actions)
    assert set(result.graph.action_ids) == set(range(len(actions)))
    path = tmp_path / "graph.ac1"
    write_graph_file(path, model.name, model.bounds_value(), result.graph)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


# (states, sha256) of the vr graph files at bounds the pins above miss:
# single-replica adoption (r1 q2 v2), a second view change (r2 q1 v2),
# 3-replica catch-up (r3 q2 v0) and an election with no requests (r3 q0 v1).
# Taken before the delivery rules moved into the vr handlers.
VR_GRAPH_DIGESTS = {
    (1, 2, 2): (70, "28a1612ada199de2838600cd6a1a640adb9db90ee6e60d6a88e2d83df81167df"),
    (2, 1, 2): (5065, "d84bce1b709a054f2dd6aeb6fe678d8ab41fe426410c36990643536e188dd53e"),
    (3, 2, 0): (835, "7f29a73ab975da3b0f72ccccdeb13e7a94368298cac4e96370b4117523a3cb00"),
    (3, 0, 1): (690, "abaa393349cb36588a173e52b2cd4a1672d41986773431939bc632b635382b95"),
}


@pytest.mark.parametrize("bounds", sorted(VR_GRAPH_DIGESTS),
                         ids=lambda b: "r{}-q{}-v{}".format(*b))
def test_vr_graph_files_are_pinned_byte_for_byte(tmp_path, bounds):
    states, digest = VR_GRAPH_DIGESTS[bounds]
    model = VrModel(VrBounds(*bounds))
    result = explore(model)
    assert result.ok
    assert result.graph.state_count == states
    path = tmp_path / "graph.ac1"
    write_graph_file(path, model.name, model.bounds_value(), result.graph)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("name", ["kv", "vr"])
def test_a_read_graph_exports_the_same_dot(request, tmp_path, name):
    model, graph = request.getfixturevalue(f"{name}_graph")
    write_graph_file(tmp_path / "graph.ac1", model.name, model.bounds_value(), graph)
    _header, read = read_graph_file(tmp_path / "graph.ac1")
    assert export_dot(read) == export_dot(graph)


@pytest.mark.parametrize("name", ["vr", "kv", "vr-r2-q2-v1", "kv-a3-s2-crash-drop"])
def test_the_diameter_is_the_depth_of_the_bfs_tree(request, bench_graph, name):
    # The tree is read off explore's edge order; tsg runs a BFS of its own.
    if name in ("vr", "kv"):
        graph = request.getfixturevalue(f"{name}_graph")[1]
    else:
        graph = bench_graph(name)[1]
    assert graph.diameter() == tsg.diameter(graph.cover_graph())
    path = graph.tree_path(graph.state_count)
    assert len(path) == graph.diameter()
    at = 1
    for eid in path:
        assert graph.sources[eid] == at
        at = graph.destinations[eid]
    assert at == graph.state_count


def test_the_tree_path_takes_the_first_edge_id_into_each_state():
    # 0: 1->2, 1: 1->2 (parallel), 2: 2->2 (self-loop), 3: 2->3, 4: 1->3, 5: 3->4, 6: 2->4.
    ticks = [Action.inject(Event("Tick", {"n": n}, -1, 0)) for n in range(2)]
    pairs = [(1, 2), (1, 2), (2, 2), (2, 3), (1, 3), (3, 4), (2, 4)]
    graph = TransitionGraph(
        [CounterModel(0).initial_state()] * 4, ticks,
        array("I", [src for src, _dst in pairs]), array("I", [n % 2 for n in range(7)]),
        array("I", [dst for _src, dst in pairs]))
    assert [graph.tree_path(index) for index in (1, 2, 3, 4)] == [[], [0], [0, 3], [0, 3, 5]]
    assert graph.diameter() == 3


class GcProbe(CounterModel):
    """CounterModel that records whether the collector runs while it is stepped."""

    def __init__(self, limit, fail_at_apply=None):
        super().__init__(limit)
        self.fail_at_apply = fail_at_apply
        self.collector_enabled = []

    def enabled_actions(self, state):
        self.collector_enabled.append(gc.isenabled())
        return super().enabled_actions(state)

    def apply(self, state, action):
        if state.actors[0]["count"] == self.fail_at_apply:
            raise RuntimeError("model error")
        return super().apply(state, action)


def test_explore_pauses_the_collector_and_enables_it_again(collector_enabled):
    model = GcProbe(5)
    explore(model)
    assert model.collector_enabled == [False] * 6
    assert gc.isenabled()


def test_the_collector_is_enabled_again_when_explore_raises(collector_enabled):
    with pytest.raises(StateCapExceededError):
        explore(GcProbe(100), max_states=10)
    assert gc.isenabled()
    with pytest.raises(RuntimeError, match="model error"):
        explore(GcProbe(5, fail_at_apply=3))
    assert gc.isenabled()


def test_explore_leaves_a_disabled_collector_disabled(collector_enabled):
    gc.disable()
    model = GcProbe(3)
    explore(model)
    assert model.collector_enabled == [False] * 4
    assert not gc.isenabled()


@pytest.mark.parametrize("make_model", [lambda: VrModel(VR_BOUNDS), lambda: KvModel(KV_BOUNDS)],
                         ids=["vr", "kv"])
def test_a_dropped_model_dies_without_the_collector(collector_enabled, make_model):
    gc.disable()
    model = make_model()
    explore(model)
    dropped = weakref.ref(model)
    del model
    assert dropped() is None
