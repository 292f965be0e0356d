"""Graph file reader, its state parser, and the streamed writer.

``gensuite`` covers the endpoints of the graph ``read_graph_file`` reads,
and ``run`` replays it; the CLI tests check that both reject a damaged
graph at the same line.
"""

import pytest
from hypothesis import given, settings

from actorcover import canon
from actorcover.actors import EXTERNAL, Action, Event
from actorcover.explore import Edge, TransitionGraph
from actorcover.model import ModelState
from actorcover.suitefile import (
    MalformedInputError,
    StateParser,
    read_graph_file,
    read_header,
    write_graph_file,
)
from actorcover.systems.kv import _set_event
from conftest import BENCH_MODELS
from test_canon import values


@pytest.fixture(scope="module", params=["vr", "kv", *sorted(BENCH_MODELS)])
def graph_file(request, tmp_path_factory):
    """A written graph file of the conftest vr and kv bounds and of the bench bounds."""
    if request.param in BENCH_MODELS:
        model, graph = request.getfixturevalue("bench_graph")(request.param)
    else:
        model, graph = request.getfixturevalue(f"{request.param}_graph")
    path = tmp_path_factory.mktemp(request.param) / "graph.ac1"
    write_graph_file(path, model.name, model.bounds_value(), graph)
    return path, graph


def test_the_cover_reader_gives_the_graph_readers_endpoints(graph_file):
    # gensuite covers the endpoints of the graph it reads: the written ones.
    path, written = graph_file
    header, graph = read_graph_file(path)
    assert header == read_header(path)
    assert graph.cover_graph() == written.cover_graph()
    # Each distinct action text is parsed once: one Action object per text.
    actions = {}
    for edge in graph.edges:
        assert actions.setdefault(edge.action.key(), edge.action) is edge.action
    assert len({id(edge.action) for edge in graph.edges}) == len(actions)


def _parts(state: ModelState) -> list:
    """The parts a parser shares: actor tuple, alive, globals and each event."""
    return [state.actors, state.alive, state.globals_, *state.events]


def _text(part) -> str:
    return part.key() if type(part) is Event else canon.dumps(part)


def assert_parts_shared_by_text(parts) -> None:
    """Parts of equal text are one object; events apart from other values."""
    by_text = {}
    for part in parts:
        assert by_text.setdefault((type(part) is Event, _text(part)), part) is part


def _state(a, b) -> ModelState:
    a, b = canon.freeze(a), canon.freeze(b)
    return ModelState(
        actors=(a, b),
        alive=(True, False),
        globals_=canon.Record(g=a),
        events=frozenset({Event("K", a, EXTERNAL, 0), Event("K", b, EXTERNAL, 1)}),
    )


@given(values, values)
@settings(max_examples=200, deadline=None)
def test_a_parser_shares_the_parts_of_equal_text(a, b):
    expected = [_state(a, b), _state(b, a), _state(a, b), _state(b, b)]
    texts = [state.text() for state in expected]
    parser = StateParser()
    parsed = [parser.state(text) for text in texts]
    assert parsed == expected
    assert [state.text() for state in parsed] == texts
    assert_parts_shared_by_text([part for state in parsed for part in _parts(state)])


def _state_text(value: str) -> str:
    """A state text whose globals and one event's payload are ``value``."""
    event = '{"destination":0,"kind":"K","payload":%s,"source":-1}' % value
    return '{"actors":[],"alive":[],"events":{"$set":[%s]},"globals":%s}' % (event, value)


def test_the_parser_keeps_true_and_one_apart():
    texts = [_state_text(v) for v in ('{"a":1}', '{"a":true}', '{"a":1}', '{"a":[true]}', '{"a":[1]}')]
    parser = StateParser()
    parsed = [parser.state(text) for text in texts]
    assert [state.text() for state in parsed] == texts
    for part in (lambda s: s.globals_, lambda s: next(iter(s.events))):
        one, true, one_again, list_true, list_one = map(part, parsed)
        assert one is one_again
        assert one == true and one is not true
        assert list_true is not list_one


def test_actions_share_their_events_with_the_states():
    texts = [
        Action.deliver(_set_event(1, 0)).key(),
        Action.crash(0, drops=(_set_event(1, 0), _set_event(2, 0))).key(),
        '{"event":{"destination":0,"kind":"K","payload":{"a":1},"source":-1},"kind":"inject"}',
        '{"event":{"destination":0,"kind":"K","payload":{"a":true},"source":-1},"kind":"inject"}',
    ]
    parser = StateParser()
    state = parser.state(_state_text('{"a":true}'))
    deliver, crash, one, true = map(parser.action, texts)
    assert parser.action(texts[0]) is deliver
    assert deliver.event is crash.drops[0]
    assert [a.key() for a in (deliver, crash, one, true)] == texts
    assert one.event == true.event and one.event is not true.event
    assert true.event in state.events and one.event in state.events
    assert_parts_shared_by_text([*_parts(state), deliver.event, *crash.drops, one.event, true.event])


class Unrenderable:
    """An action whose text cannot be rendered."""

    def key(self):
        raise RuntimeError("cannot render")


def test_a_write_that_fails_partway_leaves_a_file_rejected_at_line_1(vr_graph, tmp_path):
    model, graph = vr_graph
    # Edge 400 is body line 711: the first lines are on disk when it fails.
    edges = list(graph.edges)
    edges[400] = Edge(edges[400].source, Unrenderable(), edges[400].destination)
    path = tmp_path / "graph.ac1"
    with pytest.raises(RuntimeError, match="cannot render"):
        write_graph_file(path, model.name, model.bounds_value(), TransitionGraph(graph.states, edges))
    assert path.read_bytes().count(b"\nS\t") > 0
    for read in (read_header, read_graph_file):
        with pytest.raises(MalformedInputError, match="content hash mismatch") as info:
            read(path)
        assert info.value.line == 1
