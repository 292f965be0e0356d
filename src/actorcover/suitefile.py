"""Line-delimited graph, suite and replay-log files shared by the whole pipeline.

Layout (UTF-8, LF newlines, TAB-separated fields):

    AC1 <kind> model=<name> bounds=<canon> stats=<canon> hash=<sha256>
    S <index> <canonical system state>       graph files
    E <src> <dst> <canonical action>         graph files
    G <graph file> <graph content hash>      suite files: first line
    P <count> <edge-id> <edge-id>…           suite files: one per path
    R <action> <dst> <state>                 replay logs: one per step

``kind`` is graph, suite or replay; ``bounds`` and ``stats`` are records,
and a header holding any other value there is rejected at line 1.  State
index 1 is always the initial state and S lines appear in index order;
edge ids number the E lines from 0.  A graph file reads back into the
``explore.TransitionGraph`` it was written from: E line k is edge k of the
graph's ``sources``, ``action_ids`` and ``destinations`` columns, and the
distinct action texts are its ``actions`` in first-use order.  So the
first edge id into each state is still its BFS tree edge.
The hash covers every byte after the header line, so readers can reject
tampered or truncated files, and replay logs can pin the exact suite they
were produced from.  Writers render, hash and write the body a few
hundred lines at a time: the header goes out first with a placeholder
hash of the same width, and the digest replaces it once the body is
complete, so no writer holds a file's text and a write that fails partway
leaves a file whose hash check fails.  Readers check the hash before they
parse the body, then parse it one line at a time, so no reader holds a
file's text either.

``read_graph_file`` is the one graph reader: ``gensuite`` keeps only the
edges' endpoints of what it returns, ``run`` the whole graph.  Every
state and action text the program reads, in graph files and in replay
logs, goes through one ``StateParser`` per file.  It builds each distinct
part of a state (actor tuple, ``alive``, ``globals``, each event) and
each distinct action once, keyed by its text (an E line's action id is
that action's position among them), so a file's repetitive
states share their parts and an edge's action shares its events with the
states (hash-consing).  Keying by text keeps ``{"a":1}`` and
``{"a":true}`` apart, although they are equal.  A state whose parts all
repeat earlier ones is built from its slices of the line, without a JSON
decode; in the benchmark's graphs that is over 90% of S lines.

A suite holds only what its graph does not.  The G line names the graph
file relative to the suite's directory and pins the graph's hash, so the
suite's hash covers the graph too; a missing or changed graph is rejected
at the G line.  The suite header copies the graph's model, bounds and
stats, the stats extended with ``paths`` and ``total_length``; no hash
covers a header, so a suite whose model or bounds differ from its graph's
is rejected at the G line too.  A suite of
a plain edge list has ``model=none``, pins the sha256 of the edge list's
bytes, and cannot be run.

A replay log is the prefix of a suite path that ends at the path's
failing step, self-contained: each R line holds a step's action, the
index of the state it reaches and that state, so the log replays without
the suite or its graph.  Its header copies the suite's model, bounds and
stats, the stats extended with ``path`` (the path's id), ``steps`` (the
failing step, which is the number of R lines) and ``suite`` (the suite's
content hash); a log whose ``path`` or ``steps`` is not a non-negative int
or whose ``suite`` is not a sha256 hex digest is rejected.  Paths that fail
at the same step of a shared prefix share one log: ``run --replay-log``
writes it once, under the lowest of their ids, and hard-links it under
the others' names, so ``path`` names that lowest id and editing the file
in place edits it for all of them.

Migration: suite files from before edge-id paths copied every state (S
lines) and step action (P lines); they are rejected at their first S line
and must be regenerated with ``actorcover gensuite``.  Replay logs from
before this layout start with a JSON header line; they are rejected at
line 1 and are written again by ``actorcover run --replay-log``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import re
from array import array
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable

from . import canon
from .actors import Action, Event
from .explore import TransitionGraph, collector_paused
from .model import STATE_ACTORS, STATE_ALIVE, STATE_EVENTS, STATE_GLOBALS, ModelState
from .tsg import CoverGraph, TestSuite

FORMAT_VERSION = "AC1"

_WRITE_LINES = 512  # body lines rendered, hashed and written together
_SHA256 = re.compile("[0-9a-f]{64}")


class MalformedInputError(Exception):
    """File does not parse; carries the 1-based offending line number.

    ``line`` is None for a file that cannot be read at all.
    """

    def __init__(self, line: int | None, message: str):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Header:
    """The first line of a graph, suite or replay-log file."""

    kind: str
    model: str
    bounds: canon.Record
    stats: canon.Record
    content_hash: str


@dataclass
class SuiteFile:
    """A suite's header, the graph its G line pins, and its edge-id paths."""

    header: Header
    graph: TransitionGraph
    paths: list[list[int]]


@dataclass
class ReplayLog:
    """A replay log's model and bounds, the suite and path it was written from, and its steps."""

    model: str
    bounds: canon.Record
    suite_hash: str
    path_id: int
    steps: list[tuple[Action, int, ModelState]]


def _write(path, kind: str, model: str, bounds, stats, body_lines: Iterable[str]) -> str:
    """Stream a header and the body lines to ``path``; returns the body's hash.

    The header is written with a placeholder hash of the digest's width and
    overwritten in place once every body line is written and hashed.
    """
    prefix = "\t".join(
        (
            FORMAT_VERSION,
            kind,
            f"model={model}",
            f"bounds={canon.dumps(bounds)}",
            f"stats={canon.dumps(stats)}",
            "hash=",
        )
    ).encode("utf-8")
    digest = hashlib.sha256()
    with open(path, "wb") as handle:
        handle.write(prefix + b"0" * (2 * digest.digest_size) + b"\n")
        lines = iter(body_lines)
        while chunk := list(itertools.islice(lines, _WRITE_LINES)):
            data = "".join(line + "\n" for line in chunk).encode("utf-8")
            digest.update(data)
            handle.write(data)
        content_hash = digest.hexdigest()
        handle.seek(len(prefix))
        handle.write(content_hash.encode("ascii"))
    return content_hash


def write_graph_file(path, model_name: str, bounds, graph: TransitionGraph) -> str:
    """Write states and labeled edges; returns the content hash."""
    actions = graph.actions
    lines = itertools.chain(
        (f"S\t{i}\t{state.text()}" for i, state in enumerate(graph.states, start=1)),
        (f"E\t{src}\t{dst}\t{actions[aid].key()}"
         for src, aid, dst in zip(graph.sources, graph.action_ids, graph.destinations)),
    )
    return _write(path, "graph", model_name, bounds, graph.stats_value(), lines)


def write_suite_file(path, graph_path, graph: Header, suite: TestSuite) -> str:
    """Write ``suite``'s paths pinned to the graph file at ``graph_path``.

    ``graph`` is that file's header; returns the suite's content hash.
    """
    path = Path(path)
    name = Path(os.path.relpath(graph_path, path.parent)).as_posix()
    lines = itertools.chain(
        [f"G\t{name}\t{graph.content_hash}"],
        ("\t".join(["P", str(len(p))] + [str(eid) for eid in p]) for p in suite.paths),
    )
    stats = graph.stats.replace(paths=suite.path_count, total_length=suite.total_length)
    return _write(path, "suite", graph.model, graph.bounds, stats, lines)


def write_replay_log(path, suite: SuiteFile, path_id: int, steps: int) -> str:
    """Write the first ``steps`` steps of path ``path_id`` of ``suite`` as a replay log.

    Returns the log's content hash.  The log's directory must exist.
    """
    header, graph, eids = suite.header, suite.graph, suite.paths[path_id][:steps]
    actions, action_ids, destinations = graph.actions, graph.action_ids, graph.destinations
    lines = (
        f"R\t{actions[action_ids[eid]].key()}\t{destinations[eid]}\t"
        f"{graph.state(destinations[eid]).key()}"
        for eid in eids
    )
    stats = header.stats.replace(path=path_id, steps=len(eids), suite=header.content_hash)
    return _write(path, "replay", header.model, header.bounds, stats, lines)


def _parse_header(line: bytes, kinds: tuple[str, ...]) -> Header:
    """Parse a header line, then check the file's kind."""
    if not line:
        raise MalformedInputError(1, "empty file")
    fields = line.decode("utf-8", "replace").rstrip("\n").split("\t")
    if len(fields) != 6 or fields[0] != FORMAT_VERSION:
        raise MalformedInputError(1, f"not a {FORMAT_VERSION} file header")
    try:
        parts = dict(f.split("=", 1) for f in fields[2:])
        header = Header(
            kind=fields[1],
            model=parts["model"],
            bounds=canon.loads(parts["bounds"]),
            stats=canon.loads(parts["stats"]),
            content_hash=parts["hash"],
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise MalformedInputError(1, f"bad header: {exc}") from exc
    for name in ("bounds", "stats"):
        if type(getattr(header, name)) is not canon.Record:
            raise MalformedInputError(1, f"bad header: {name}={parts[name]} is not a record")
    if header.kind not in kinds:
        raise MalformedInputError(1, f"expected a {' or '.join(kinds)} file, found {header.kind}")
    return header


def read_header(path, kinds: tuple[str, ...] = ("graph", "suite", "replay")) -> Header:
    """Parse only the header line; the body is streamed through sha256 to check it."""
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as handle:
            header = _parse_header(handle.readline(), kinds)
            for chunk in iter(lambda: handle.read(1 << 20), b""):
                digest.update(chunk)
    except OSError as exc:
        raise MalformedInputError(None, exc.strerror or str(exc)) from exc
    if digest.hexdigest() != header.content_hash:
        raise MalformedInputError(1, "content hash mismatch (file corrupted or truncated)")
    return header


def decode_utf8(data: bytes, first_line: int = 1) -> str:
    """``data`` as text; MalformedInputError names the line of the first bad byte."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = first_line + data.count(b"\n", 0, exc.start)
        raise MalformedInputError(line, f"not UTF-8 ({exc.reason})") from exc


def _body_lines(path):
    """(line number, fields) of each non-blank body line, read one line at a time.

    Callers check the file's header and hash with ``read_header`` first.
    """
    with open(path, "rb") as handle:
        handle.readline()
        for lineno, raw in enumerate(handle, start=2):
            line = decode_utf8(raw, lineno)
            if line.strip():
                yield lineno, line.rstrip("\r\n").split("\t")


_PLAIN = json.JSONDecoder(parse_float=canon._no_float, parse_constant=canon._no_float)


# A plainly decoded JSON value back to text: sorted keys, no spaces, ASCII
# escapes.  A canonical text renders back to itself.
_RENDER = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), ensure_ascii=True, check_circular=False
).encode


def _members(value):
    """The plainly decoded ``value`` as its canon value iterates: a set's members, else itself."""
    while type(value) is dict and canon.SET_TAG in value:
        if len(value) != 1:
            raise ValueError(f"record key {canon.SET_TAG!r} is reserved")
        value = value[canon.SET_TAG]
    return value


class StateParser:
    """Parses the state and action texts of one file, building each distinct part once.

    A state's parts are its actor tuple, ``alive``, ``globals`` and each
    event, and each distinct part is kept under its text.  A canonical
    state text is those parts' texts between fixed markers, so the parser
    first cuts the text at the markers and looks the slices up; events
    are cut apart at ``},{``.  When every slice is a known text and the
    event texts are strictly ascending, the state is built from the known
    parts without decoding anything, its events in text order: an event
    is known under its key only, so that is the key order a state holds.
    Otherwise (a part not seen before in this file, a text that is not
    canonical, or a marker inside a part, such as a nested record's
    ``alive`` key or ``},{`` in a string) the text is
    decoded once as plain JSON, each part is rendered back to text and
    looked up by it, and only a text not seen before goes through
    ``canon.loads``; the state's constructor sorts those events.

    Both ways give the same state: every known text is a complete JSON
    value that renders back to itself, so a text made of markers and
    known texts decodes into exactly those parts.  So parts of equal
    text are one object across the file's states and actions, and parts
    that are equal but not alike in text stay apart (``1 == True``).
    Accepts and rejects what ``canon.loads`` and the model types do: a
    state text that is not a record of four fields is first checked whole
    by ``canon.loads``.  Bad texts raise ValueError, TypeError or KeyError.
    """

    def __init__(self):
        self._values: dict[str, object] = {}  # actor tuples, alive and globals
        self._events: dict[str, Event] = {}
        self._action_ids: dict[str, int] = {}
        # The distinct actions, one per text, in first-read order: a graph's ``actions``.
        self.actions: list[Action] = []

    def _value(self, plain):
        text = _RENDER(plain)
        value = self._values.get(text)
        if value is None:
            value = self._values[text] = canon.loads(text)
        return value

    def _event(self, text: str) -> Event:
        event = self._events.get(text)
        if event is None:
            event = Event.from_value(canon.loads(text))
            # Kept under its key, the text a canonical state holds, and not
            # under a text that differs from it (say, a payload's set with
            # its members out of order), so that ``_known_parts`` can take
            # ascending known texts for ascending keys.
            event = self._events.setdefault(event.key(), event)
        return event

    def state(self, text: str) -> ModelState:
        """The state of an S or R line's text.

        Fields are read in the order ``actors``, ``alive``, ``globals``,
        ``events``, so a state that lacks several is reported by the first.
        """
        return self._known_parts(text) or self._decode(text)

    def _known_parts(self, text: str) -> ModelState | None:
        """The state of a canonical text whose every part is known; else None."""
        a = text.find(STATE_ALIVE)
        e = text.find(STATE_EVENTS, a + len(STATE_ALIVE))
        g = text.rfind(STATE_GLOBALS, e + len(STATE_EVENTS))
        if not (text.startswith(STATE_ACTORS) and a > 0 and e > 0 and g > 0
                and text.endswith("}")):
            return None
        values = self._values
        actors = values.get(text[len(STATE_ACTORS):a])
        alive = values.get(text[a + len(STATE_ALIVE):e])
        globals_ = values.get(text[g + len(STATE_GLOBALS):-1])
        # A part whose value is None (the text ``null``) is decoded like any miss.
        if actors is None or alive is None or globals_ is None:
            return None
        members = text[e + len(STATE_EVENTS):g]
        if not members:
            return ModelState(actors, alive, globals_, ())
        if members[0] != "{" or members[-1] != "}":
            return None
        texts = ["{%s}" % m for m in members[1:-1].split("},{")]
        # Known texts are their events' keys, so strictly ascending texts are
        # the key-ordered tuple a state holds; any other order is decoded.
        distinct = set(texts)
        if sorted(distinct) != texts or not self._events.keys() >= distinct:
            return None
        return ModelState(actors, alive, globals_, tuple(map(self._events.__getitem__, texts)))

    def _decode(self, text: str) -> ModelState:
        """The state of any text: decoded whole, each part looked up by its rendered text."""
        plain = _PLAIN.decode(text)
        if type(plain) is not dict or len(plain) != 4:
            value = canon.loads(text)  # rejects a bad value in any field
            if type(value) is not canon.Record:
                raise TypeError(f"a state is a record, not {type(value).__name__}")
        return ModelState(
            actors=self._value(plain["actors"]),
            alive=self._value(plain["alive"]),
            globals_=self._value(plain["globals"]),
            # A list, not a set: the constructor sorts it and keeps one event
            # per key, where a set would also merge equal events of two keys.
            events=[self._event(_RENDER(v)) for v in _members(plain["events"])],
        )

    def action_id(self, text: str) -> int:
        """The position in ``actions`` of an E or R line's action text.

        One id and one object per distinct text.
        """
        action_id = self._action_ids.get(text)
        if action_id is None:
            action = Action.from_value(canon.loads(text))
            self.actions.append(replace(
                action,
                event=None if action.event is None else self._event(action.event.key()),
            ))
            action_id = self._action_ids[text] = len(self.actions) - 1
        return action_id

    def action(self, text: str) -> Action:
        """The action of an E or R line's text; one object per distinct text."""
        return self.actions[self.action_id(text)]


def read_graph_file(path) -> tuple[Header, TransitionGraph]:
    """Check the header and hash, then parse S and E lines one at a time.

    Only the parsed graph is held, never the file's text; one
    ``StateParser`` shares the parts of equal text and numbers the distinct
    action texts, and each E line is appended to the edge columns.  The
    first bad line in file order is reported, except that an edge endpoint
    can only be checked once every state is known, after the last line.
    The cyclic collector is paused while the lines are parsed.
    """
    header = read_header(path, ("graph",))
    parser = StateParser()
    states: list[ModelState] = []
    sources, action_ids, destinations = array("I"), array("I"), array("I")
    # (line, edge id, src, dst) of the E lines naming a state not yet read.
    unchecked: list[tuple[int, int, int, int]] = []
    with collector_paused():
        for lineno, fields in _body_lines(path):
            if fields[0] == "S":
                if len(fields) != 3:
                    raise MalformedInputError(lineno, "S line needs index and state")
                try:
                    index = int(fields[1])
                    state = parser.state(fields[2])
                except (ValueError, TypeError, KeyError) as exc:
                    raise MalformedInputError(lineno, f"bad state: {exc}") from exc
                if index != len(states) + 1:
                    raise MalformedInputError(lineno, f"state index {index} out of order")
                states.append(state)
            elif fields[0] == "E":
                if len(fields) != 4:
                    raise MalformedInputError(lineno, "E line needs src, dst and action")
                try:
                    src, dst = int(fields[1]), int(fields[2])
                    action_id = parser.action_id(fields[3])
                except (ValueError, TypeError, KeyError) as exc:
                    raise MalformedInputError(lineno, f"bad edge: {exc}") from exc
                if not (1 <= src <= len(states) and 1 <= dst <= len(states)):
                    unchecked.append((lineno, len(sources), src, dst))
                    src = dst = 0  # stand-ins until every state is known
                sources.append(src)
                action_ids.append(action_id)
                destinations.append(dst)
            else:
                raise MalformedInputError(lineno, f"unknown record {fields[0]!r}")
    if not states:
        raise MalformedInputError(1, "graph file has no states (index 1 required)")
    for lineno, eid, src, dst in unchecked:
        if not (1 <= src <= len(states) and 1 <= dst <= len(states)):
            raise MalformedInputError(lineno, f"edge endpoint out of range: {src}->{dst}")
        sources[eid], destinations[eid] = src, dst
    return header, TransitionGraph(states, parser.actions, sources, action_ids, destinations)


def read_replay_log(path) -> ReplayLog:
    """Check the header and hash, then parse the R lines one at a time."""
    header = read_header(path, ("replay",))
    stats = header.stats
    try:
        suite_hash, path_id, length = stats["suite"], stats["path"], stats["steps"]
    except KeyError as exc:
        raise MalformedInputError(1, f"bad header: no {exc} in stats") from exc
    if type(suite_hash) is not str or not _SHA256.fullmatch(suite_hash):
        raise MalformedInputError(
            1, f"bad header: suite={canon.dumps(suite_hash)} is not a sha256 hex digest")
    for name in ("path", "steps"):
        if type(stats[name]) is not int or stats[name] < 0:
            raise MalformedInputError(
                1, f"bad header: {name}={canon.dumps(stats[name])} is not a non-negative int")
    parser = StateParser()
    steps = []
    for lineno, fields in _body_lines(path):
        if len(fields) != 4 or fields[0] != "R":
            raise MalformedInputError(lineno, "R line needs action, destination and state")
        try:
            steps.append((parser.action(fields[1]), int(fields[2]), parser.state(fields[3])))
        except (ValueError, TypeError, KeyError) as exc:
            raise MalformedInputError(lineno, f"bad replay step: {exc}") from exc
    if len(steps) != length:
        raise MalformedInputError(1, f"bad header: steps={length}, but the log has "
                                     f"{len(steps)} R lines")
    return ReplayLog(header.model, header.bounds, suite_hash, path_id, steps)


def _pinned_graph(
    suite_header: Header, directory: Path, fields: list[str], lineno: int
) -> TransitionGraph:
    """The graph a G line pins, after its header line is checked against the pin,
    then the suite header's model and bounds; no body byte is read before that."""
    if len(fields) != 3:
        raise MalformedInputError(lineno, "G line needs a graph file and its content hash")
    name, pinned = fields[1], fields[2]
    # The content hash leaves the headers out, so they are compared by canonical text.
    in_suite = f"model={suite_header.model} bounds={canon.dumps(suite_header.bounds)}"
    try:
        with open(directory / name, "rb") as handle:
            header = _parse_header(handle.readline(), ("graph",))
        in_graph = f"model={header.model} bounds={canon.dumps(header.bounds)}"
        if header.content_hash == pinned and in_graph == in_suite:
            return read_graph_file(directory / name)[1]
    except OSError as exc:
        raise MalformedInputError(lineno, f"graph file {name}: {exc.strerror or exc}") from exc
    except MalformedInputError as exc:
        raise MalformedInputError(lineno, f"graph file {name}: {exc}") from exc
    if header.content_hash != pinned:
        raise MalformedInputError(
            lineno,
            f"graph file {name} has content hash {header.content_hash[:12]}, "
            f"the suite pins {pinned[:12]}; regenerate the suite with `actorcover gensuite`",
        )
    raise MalformedInputError(
        lineno, f"graph file {name} has {in_graph}, the suite header says {in_suite}"
    )


def read_suite_file(path) -> SuiteFile:
    """Load a suite and the graph file its G line pins.

    The graph's header must name the suite header's model and bounds, and
    every path must start at state 1 and chain edge to edge through the graph.
    """
    path = Path(path)
    header = read_header(path, ("suite",))
    if header.model == "none":
        raise MalformedInputError(1, "a suite of a plain edge list (model=none) cannot be run")
    graph = None
    paths: list[list[int]] = []
    for lineno, fields in _body_lines(path):
        if fields[0] == "S":
            raise MalformedInputError(
                lineno,
                "suite file from before edge-id paths (it copies states); "
                "regenerate it with `actorcover gensuite`",
            )
        if fields[0] == "G" and graph is None:
            graph = _pinned_graph(header, path.parent, fields, lineno)
            sources, destinations = graph.sources, graph.destinations
            continue
        if fields[0] != "P" or graph is None:
            raise MalformedInputError(
                lineno, f"unexpected {fields[0]!r} record: a suite is a G line, then P lines"
            )
        try:
            count = int(fields[1])
            eids = [int(f) for f in fields[2:]]
        except (IndexError, ValueError) as exc:
            raise MalformedInputError(lineno, "bad P line") from exc
        if len(eids) != count:
            raise MalformedInputError(lineno, f"P line claims {count} edges, fields disagree")
        at = 1
        for eid in eids:
            if not 0 <= eid < len(sources) or sources[eid] != at:
                raise MalformedInputError(lineno, f"edge {eid} does not leave state {at}")
            at = destinations[eid]
        paths.append(eids)
    if graph is None:
        raise MalformedInputError(2, "suite file has no G line")
    return SuiteFile(header, graph, paths)


def parse_edge_list(text: str) -> CoverGraph:
    """Plain ``u v`` edge lines, 1-based, source fixed at vertex 1.

    Blank lines and ``#`` comments are ignored; the vertex count is the
    largest mentioned vertex.
    """
    edges: list[tuple[int, int]] = []
    n = 1
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise MalformedInputError(lineno, f"expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise MalformedInputError(lineno, f"expected integers, got {line!r}") from exc
        if u < 1 or v < 1:
            raise MalformedInputError(lineno, "vertices are 1-based")
        n = max(n, u, v)
        edges.append((u, v))
    return CoverGraph(n, edges)
