"""Line-delimited graph and suite files shared by the whole pipeline.

Layout (UTF-8, LF newlines, TAB-separated fields):

    AC1 <kind> model=<name> bounds=<canon> stats=<canon> hash=<sha256>
    S <index> <canonical system state>       graph files
    E <src> <dst> <canonical action>         graph files
    G <graph file> <graph content hash>      suite files: first line
    P <count> <edge-id> <edge-id>…           suite files: one per path

``kind`` is graph or suite.  State index 1 is always the initial state
and S lines appear in index order; edge ids number the E lines from 0.
A graph file reads back into the ``explore.TransitionGraph`` it was
written from.
The hash covers every byte after the header line, so readers can reject
tampered or truncated files, and replay logs can pin the exact suite they
were produced from.  Readers check the hash before they parse the body,
then parse it one line at a time, so no reader holds a file's text.

A suite holds only what its graph does not.  The G line names the graph
file relative to the suite's directory and pins the graph's hash, so the
suite's hash covers the graph too; a missing or changed graph is rejected
at the G line.  The suite header copies the graph's model, bounds and
stats, the stats extended with ``paths`` and ``total_length``.  A suite of
a plain edge list has ``model=none``, pins the sha256 of the edge list's
bytes, and cannot be run.

Migration: suite files from before edge-id paths copied every state (S
lines) and step action (P lines); they are rejected at their first S line
and must be regenerated with ``actorcover gensuite``.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from pathlib import Path

from . import canon
from .actors import Action
from .explore import Edge, TransitionGraph
from .model import ModelState
from .tsg import CoverGraph, TestSuite

FORMAT_VERSION = "AC1"


class MalformedInputError(Exception):
    """File does not parse; carries the 1-based offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Header:
    """The first line of a graph or suite file."""

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


def _finish(path: Path, kind: str, model: str, bounds, stats, body_lines: list[str]) -> str:
    body = "".join(line + "\n" for line in body_lines)
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    header = "\t".join(
        (
            FORMAT_VERSION,
            kind,
            f"model={model}",
            f"bounds={canon.dumps(bounds)}",
            f"stats={canon.dumps(stats)}",
            f"hash={digest}",
        )
    )
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(header + "\n")
        handle.write(body)
    return digest


def write_graph_file(path, model_name: str, bounds, graph: TransitionGraph) -> str:
    """Write states and labeled edges; returns the content hash."""
    lines = []
    for i, state in enumerate(graph.states, start=1):
        lines.append(f"S\t{i}\t{state.text()}")
    for edge in graph.edges:
        lines.append(f"E\t{edge.source}\t{edge.destination}\t{edge.action.key()}")
    return _finish(Path(path), "graph", model_name, bounds, graph.stats_value(), lines)


def write_suite_file(path, graph_path, graph: Header, suite: TestSuite) -> str:
    """Write ``suite``'s paths pinned to the graph file at ``graph_path``.

    ``graph`` is that file's header; returns the suite's content hash.
    """
    path = Path(path)
    name = Path(os.path.relpath(graph_path, path.parent)).as_posix()
    lines = [f"G\t{name}\t{graph.content_hash}"]
    for p in suite.paths:
        lines.append("\t".join(["P", str(len(p))] + [str(eid) for eid in p]))
    stats = graph.stats.replace(paths=suite.path_count, total_length=suite.total_length)
    return _finish(path, "suite", graph.model, graph.bounds, stats, lines)


def _parse_header(line: bytes, kinds: tuple[str, ...], body_hash: str) -> Header:
    """Parse a header line, then check the file's kind and its body's hash."""
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
    if header.kind not in kinds:
        raise MalformedInputError(1, f"expected a {' or '.join(kinds)} file, found {header.kind}")
    if body_hash != header.content_hash:
        raise MalformedInputError(1, "content hash mismatch (file corrupted or truncated)")
    return header


def read_header(path, kinds: tuple[str, ...] = ("graph", "suite")) -> Header:
    """Parse only the header line; the body is streamed through sha256 to check it."""
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as handle:
            line = handle.readline()
            for chunk in iter(lambda: handle.read(1 << 20), b""):
                digest.update(chunk)
    except OSError as exc:
        raise MalformedInputError(0, str(exc)) from exc
    return _parse_header(line, kinds, digest.hexdigest())


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


def read_graph_file(path) -> tuple[Header, TransitionGraph]:
    """Check the header and hash, then parse S and E lines one at a time.

    Only the parsed graph is held, never the file's text.  The first bad
    line in file order is reported, except that an edge endpoint can only
    be checked once every state is known, after the last line.
    """
    header = read_header(path, ("graph",))
    memo: dict = {}  # equal records and events parsed from this file are one object
    states: list[ModelState] = []
    edges: list[Edge] = []
    unchecked: list[tuple[int, int, int]] = []  # E lines naming a state not yet read
    for lineno, fields in _body_lines(path):
        if fields[0] == "S":
            if len(fields) != 3:
                raise MalformedInputError(lineno, "S line needs index and state")
            try:
                index = int(fields[1])
                state = ModelState.from_value(canon.loads(fields[2], memo), memo)
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
                action = Action.from_value(canon.loads(fields[3], memo), memo)
            except (ValueError, TypeError, KeyError) as exc:
                raise MalformedInputError(lineno, f"bad edge: {exc}") from exc
            if not (1 <= src <= len(states) and 1 <= dst <= len(states)):
                unchecked.append((lineno, src, dst))
            edges.append(Edge(src, action, dst))
        else:
            raise MalformedInputError(lineno, f"unknown record {fields[0]!r}")
    if not states:
        raise MalformedInputError(1, "graph file has no states (index 1 required)")
    for lineno, src, dst in unchecked:
        if not (1 <= src <= len(states) and 1 <= dst <= len(states)):
            raise MalformedInputError(lineno, f"edge endpoint out of range: {src}->{dst}")
    return header, TransitionGraph(states, edges)


def _pinned_graph(directory: Path, fields: list[str], lineno: int) -> TransitionGraph:
    if len(fields) != 3:
        raise MalformedInputError(lineno, "G line needs a graph file and its content hash")
    name, pinned = fields[1], fields[2]
    try:
        header, graph = read_graph_file(directory / name)
    except MalformedInputError as exc:
        raise MalformedInputError(lineno, f"graph file {name}: {exc}") from exc
    if header.content_hash != pinned:
        raise MalformedInputError(
            lineno,
            f"graph file {name} has content hash {header.content_hash[:12]}, "
            f"the suite pins {pinned[:12]}; regenerate the suite with `actorcover gensuite`",
        )
    return graph


def read_suite_file(path) -> SuiteFile:
    """Load a suite and the graph file its G line pins.

    Every path must start at state 1 and chain edge to edge through the graph.
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
            graph = _pinned_graph(path.parent, fields, lineno)
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
            if not 0 <= eid < len(graph.edges) or graph.edges[eid].source != at:
                raise MalformedInputError(lineno, f"edge {eid} does not leave state {at}")
            at = graph.edges[eid].destination
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
