"""Graph file reader, its state parser, and the streamed writer.

``gensuite`` covers the endpoints of the graph ``read_graph_file`` reads,
and ``run`` replays it; the CLI tests check that both reject a damaged
graph at the same line.
"""

import gc
import hashlib
import json
import random

import pytest
from hypothesis import given, settings

from actorcover import canon
from actorcover.actors import EXTERNAL, Action, Event
from actorcover.explore import TransitionGraph
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
from oracles import DecodingStateParser
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
    # Each distinct action text is parsed once: one Action object and one id per text.
    texts = [line.split("\t")[3] for line in path.read_text(encoding="utf-8").splitlines()
             if line.startswith("E\t")]
    assert [graph.actions[aid].key() for aid in graph.action_ids] == texts
    assert [a.key() for a in graph.actions] == list(dict.fromkeys(texts))
    assert len({id(a) for a in graph.actions}) == len(graph.actions)


def rehashed(path, body: list[str]):
    """Rewrite the graph file at ``path`` with ``body`` lines under a header hashing them."""
    header = path.read_text(encoding="utf-8").splitlines()[0].rsplit("\t", 1)[0]
    data = "".join(line + "\n" for line in body).encode("utf-8")
    path.write_bytes(f"{header}\thash={hashlib.sha256(data).hexdigest()}\n".encode() + data)
    return path


@pytest.fixture
def vr_file(vr_graph, tmp_path):
    """The conftest vr graph's file, and its body lines."""
    model, graph = vr_graph
    path = tmp_path / "graph.ac1"
    write_graph_file(path, model.name, model.bounds_value(), graph)
    return path, path.read_text(encoding="utf-8").splitlines()[1:]


def test_an_edge_may_come_before_the_states_it_names(vr_graph, vr_file):
    path, body = vr_file
    states = [line for line in body if line.startswith("S\t")]
    edge_lines = [line for line in body if line.startswith("E\t")]
    _header, read = read_graph_file(rehashed(path, edge_lines + states))
    graph = vr_graph[1]
    assert read.states == graph.states
    assert read.sources == graph.sources
    assert read.destinations == graph.destinations
    assert read.action_ids == graph.action_ids


@pytest.mark.parametrize("endpoints", ["-1\t2", "1\t4294967296", "0\t1"],
                         ids=["negative", "beyond-32-bits", "zero"])
def test_an_endpoint_no_column_can_hold_is_rejected_at_its_line(vr_file, endpoints):
    path, body = vr_file
    at = next(i for i, line in enumerate(body) if line.startswith("E\t"))
    body[at] = "\t".join(["E", endpoints, body[at].split("\t")[3]])
    with pytest.raises(MalformedInputError, match="edge endpoint out of range") as info:
        read_graph_file(rehashed(path, body))
    assert info.value.line == at + 2


def _probed(monkeypatch) -> list[bool]:
    """Whether the collector is enabled at each state the graph reader parses."""
    seen, state = [], StateParser.state

    def probe(self, text):
        seen.append(gc.isenabled())
        return state(self, text)

    monkeypatch.setattr(StateParser, "state", probe)
    return seen


def test_the_graph_reader_pauses_the_collector_and_enables_it_again(
        collector_enabled, vr_file, monkeypatch):
    seen = _probed(monkeypatch)
    _header, graph = read_graph_file(vr_file[0])
    assert seen == [False] * graph.state_count
    assert gc.isenabled()


def test_the_collector_is_enabled_again_when_the_graph_reader_rejects_a_line(
        collector_enabled, vr_file, monkeypatch):
    path, body = vr_file
    seen = _probed(monkeypatch)
    with pytest.raises(MalformedInputError, match="unknown record 'X'"):
        read_graph_file(rehashed(path, body[:5] + ["X\t1"] + body[5:]))
    assert seen == [False] * 5
    assert gc.isenabled()


def test_the_graph_reader_leaves_a_disabled_collector_disabled(
        collector_enabled, vr_file, monkeypatch):
    gc.disable()
    seen = _probed(monkeypatch)
    _header, graph = read_graph_file(vr_file[0])
    assert seen == [False] * graph.state_count
    assert not gc.isenabled()


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
        Action.drop(_set_event(1, 0)).key(),
        '{"event":{"destination":0,"kind":"K","payload":{"a":1},"source":-1},"kind":"inject"}',
        '{"event":{"destination":0,"kind":"K","payload":{"a":true},"source":-1},"kind":"inject"}',
    ]
    parser = StateParser()
    state = parser.state(_state_text('{"a":true}'))
    deliver, drop, one, true = map(parser.action, texts)
    assert parser.action(texts[0]) is deliver
    assert deliver.event is drop.event
    assert [a.key() for a in (deliver, drop, one, true)] == texts
    assert one.event == true.event and one.event is not true.event
    assert true.event in state.events and one.event in state.events
    assert_parts_shared_by_text([*_parts(state), deliver.event, one.event, true.event])


def _events_by_key(state: ModelState) -> list[Event]:
    return sorted(state.events, key=Event.key)  # unequal events have unequal keys


def parse_against_the_reference(texts) -> tuple[int, int, int]:
    """Parse ``texts`` in turn with a ``StateParser`` and with the decode-only
    reference; returns (accepted, rejected, states built from known parts).

    Both accept and reject the same texts, with the same error; accepted
    texts give equal states; and a part of one parser is one object exactly
    where the other's is, so parts of equal text are the same object.
    """
    parser, reference = StateParser(), DecodingStateParser()
    known = parser._known_parts
    hits = 0

    def counted(text):
        nonlocal hits
        state = known(text)
        hits += state is not None
        return state

    parser._known_parts = counted
    ours, theirs = {}, {}
    accepted = rejected = 0
    for text in texts:
        try:
            want = reference.state(text)
        except (ValueError, TypeError, KeyError) as exc:
            with pytest.raises(type(exc)) as info:
                parser.state(text)
            assert str(info.value) == str(exc), text
            rejected += 1
            continue
        got = parser.state(text)
        assert got == want, text
        assert len(got.events) == len(want.events)
        pairs = zip([got.actors, got.alive, got.globals_, *_events_by_key(got)],
                    [want.actors, want.alive, want.globals_, *_events_by_key(want)])
        for mine, its in pairs:
            assert ours.setdefault(id(mine), its) is its, text
            assert theirs.setdefault(id(its), mine) is mine, text
        accepted += 1
    return accepted, rejected, hits


_MARKERS = [',"alive":', ',"events":{"$set":[', ']},"globals":', "},{", '"$set"', "null"]
_NOISE = '{}[],:" 0123456789-tfnule\\$'


def _parts_of(text: str) -> list[str]:
    """A canonical state text's actors, alive, events and globals texts."""
    plain = json.loads(text)
    return [json.dumps(plain[key], sort_keys=True, separators=(",", ":"))
            for key in ("actors", "alive", "events", "globals")]


def _state_of(actors: str, alive: str, events: str, globals_: str) -> str:
    return '{"actors":%s,"alive":%s,"events":%s,"globals":%s}' % (actors, alive, events, globals_)


def damaged(rng: random.Random, texts: list[str]) -> str:
    """One of ``texts``, often with one random edit: a character, a marker, or whole parts."""
    text = rng.choice(texts)
    at = rng.randrange(len(text))
    how = rng.randrange(10)
    if how == 0:
        return text
    if how == 1:
        return text[:at] + text[at + 1:]
    if how == 2:
        return text[:at] + rng.choice(_NOISE) + text[at:]
    if how == 3:
        return text[:at] + rng.choice(_NOISE) + text[at + 1:]
    if how == 4:
        return text[:at] + rng.choice(_MARKERS) + text[at:]
    parts = _parts_of(text)
    other = _parts_of(rng.choice(texts))
    if how == 5:  # one part from another state
        k = rng.randrange(4)
        parts[k] = other[k]
    elif how == 6:  # one part where another belongs
        k, j = rng.sample(range(4), 2)
        parts[k] = other[j]
    elif how == 7:  # the events shuffled, one repeated, or one dropped
        members = json.loads(parts[2])["$set"]
        if members:
            rng.choice([rng.shuffle, lambda m: m.append(rng.choice(m)), list.pop])(members)
        parts[2] = json.dumps({"$set": members}, sort_keys=True, separators=(",", ":"))
    elif how == 8:  # the events as a plain array, or a part that is null
        parts[rng.randrange(4)] = rng.choice(["null", parts[2][8:-1]])
    else:  # spaces and unsorted keys: the same state in other text
        plain = json.loads(_state_of(*parts))
        return json.dumps(dict(reversed(plain.items())))
    return _state_of(*parts)


@pytest.mark.parametrize("name", ["vr", "kv-a3-s2-crash-drop"])
def test_the_parser_agrees_with_the_reference_on_damaged_states(request, bench_graph, name):
    # The conftest kv graph has 7 states; the bench one has 7,656.
    _model, graph = bench_graph(name) if name in BENCH_MODELS else request.getfixturevalue(
        f"{name}_graph")
    texts = [state.text() for state in graph.states]
    rng = random.Random(2512)
    accepted, rejected, hits = parse_against_the_reference(
        damaged(rng, texts) for _ in range(12_500))
    assert accepted + rejected == 12_500
    assert accepted > 5_000 and rejected > 2_500 and hits > 2_500, (accepted, rejected, hits)


def _event_text(payload: str, source: int = -1) -> str:
    return '{"destination":0,"kind":"K","payload":%s,"source":%d}' % (payload, source)


@pytest.mark.parametrize("text", [
    # "},{" inside an event, between its nested records and in a string.
    _state_of("[]", "[]", '{"$set":[%s,%s]}' % (_event_text('[{"a":1},{"b":2}]'),
                                                _event_text('"},{"', 0)), '{"g":1}'),
    # ',"alive":' inside the actors' part, as a nested record's key.
    _state_of('[{"a":1,"alive":true}]', "[true]", '{"$set":[]}', '{"g":1}'),
    # ']},"globals":' inside the globals' part.
    _state_of("[]", "[]", '{"$set":[%s]}' % _event_text("1"), '{"a":{"b":[1]},"globals":2}'),
    # Not canonical: a space after each colon.
    _state_of("[]", "[]", '{"$set":[%s]}' % _event_text("1"), '{"g":1}').replace(":", ": "),
    # A set with a repeated member.
    _state_of("[]", "[]", '{"$set":[%s,%s]}' % (_event_text("1"), _event_text("1")), '{"g":1}'),
    # A part that is null.
    _state_of("null", "[]", '{"$set":[]}', '{"g":1}'),
], ids=["events-hold-records-and-a-string", "alive-key-in-actors", "globals-key-in-globals",
        "spaces", "repeated-event", "null-actors"])
def test_the_parser_agrees_with_the_reference_where_slices_mislead(text):
    canonical = _state_of("[]", "[]", '{"$set":[%s]}' % _event_text("1"), '{"g":1}')
    # Each text twice, so the second parse finds its parts known.
    assert parse_against_the_reference([canonical, text, text, canonical])[:2] == (4, 0)


class Unrenderable:
    """An action whose text cannot be rendered."""

    def key(self):
        raise RuntimeError("cannot render")


def test_a_write_that_fails_partway_leaves_a_file_rejected_at_line_1(vr_graph, tmp_path):
    model, graph = vr_graph
    # Edge 400 is body line 711: the first lines are on disk when it fails.
    action_ids = graph.action_ids[:]
    action_ids[400] = len(graph.actions)
    damaged_graph = TransitionGraph(graph.states, [*graph.actions, Unrenderable()],
                                    graph.sources, action_ids, graph.destinations)
    path = tmp_path / "graph.ac1"
    with pytest.raises(RuntimeError, match="cannot render"):
        write_graph_file(path, model.name, model.bounds_value(), damaged_graph)
    assert path.read_bytes().count(b"\nS\t") > 0
    for read in (read_header, read_graph_file):
        with pytest.raises(MalformedInputError, match="content hash mismatch") as info:
            read(path)
        assert info.value.line == 1
