"""Graph file readers and the streamed writer.

``read_cover_graph`` (gensuite's reader) must give the endpoints that
``read_graph_file`` (run's reader) gives; the CLI tests check that both
reject a damaged graph at the same line.
"""

import pytest

from actorcover.explore import Edge, TransitionGraph
from actorcover.suitefile import (
    MalformedInputError,
    read_cover_graph,
    read_graph_file,
    read_header,
    write_graph_file,
)
from conftest import BENCH_MODELS


@pytest.fixture(scope="module", params=["vr", "kv", *sorted(BENCH_MODELS)])
def graph_file(request, tmp_path_factory):
    """A written graph file of the conftest vr and kv bounds and of the bench bounds."""
    if request.param in BENCH_MODELS:
        model, graph = request.getfixturevalue("bench_graph")(request.param)
    else:
        model, graph = request.getfixturevalue(f"{request.param}_graph")
    path = tmp_path_factory.mktemp(request.param) / "graph.ac1"
    write_graph_file(path, model.name, model.bounds_value(), graph)
    return path


def test_the_cover_reader_gives_the_graph_readers_endpoints(graph_file):
    header, cover = read_cover_graph(graph_file)
    full_header, graph = read_graph_file(graph_file)
    assert header == full_header == read_header(graph_file)
    assert cover == graph.cover_graph()
    # Each distinct action text is parsed once: one Action object per text.
    actions = {}
    for edge in graph.edges:
        assert actions.setdefault(edge.action.key(), edge.action) is edge.action
    assert len({id(edge.action) for edge in graph.edges}) == len(actions)


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
    for read in (read_header, read_graph_file, read_cover_graph):
        with pytest.raises(MalformedInputError, match="content hash mismatch") as info:
            read(path)
        assert info.value.line == 1
