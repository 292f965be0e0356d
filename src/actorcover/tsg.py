"""Edge-covering path suites over single-source directed multigraphs.

Given a graph whose every vertex is reachable from vertex 1, produce a set
of root-anchored paths that together traverse every edge at least once:

``baseline_suite``
    one path per edge (BFS tree prefix + the edge); total length is at
    most (D + 1) * |E| where D is the source diameter.
``flow_suite``
    add a zero-lower-bound return edge from every vertex back to the
    source, require one unit on every original edge, solve the resulting
    circulation with a max-flow solver, walk an Eulerian circuit that
    takes each edge as many times as its flow, and split it at return
    edges.
``min_suite``
    the same reduction solved as a minimum-cost circulation (original
    edges cost 1, return edges cost 0), which makes the summed path
    length minimal among all edge-covering suites: the flow suite's
    circulation with its negative residual cycles cancelled, so the two
    suites are equal wherever that circulation is already minimal.

Vertices are 1-based and the source is always vertex 1 (``SOURCE``), the
initial state of an explored graph; edges are identified by their 0-based
position in the input list.  All tie-breaking is by ascending edge id, so
each generator is a deterministic function of the input graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .flow import BoundedEdge, solve_circulation

SOURCE = 1


class UnreachableVertexError(Exception):
    """Some vertex is not reachable from the source; the graph is malformed."""


class MalformedPathError(Exception):
    """A path does not start at the source or does not chain edge-to-edge."""


class UnbalancedDegreeError(Exception):
    """Euler input has a vertex with in-degree != out-degree."""


@dataclass
class CoverGraph:
    """Directed multigraph with vertices 1..n and source vertex 1.

    Parallel edges and self-loops are allowed; ``edges[k]`` is the
    (source, destination) pair of edge id k.
    """

    n: int
    edges: list[tuple[int, int]]


@dataclass
class TestSuite:
    """Ordered list of paths, each an edge-id sequence starting at the source."""

    __test__ = False  # not a pytest class, despite the name

    paths: list[list[int]] = field(default_factory=list)

    @property
    def path_count(self) -> int:
        return len(self.paths)

    @property
    def total_length(self) -> int:
        return sum(len(p) for p in self.paths)


@dataclass
class CoverageReport:
    uncovered: list[int]
    path_count: int
    total_length: int
    length_bound: int

    @property
    def ok(self) -> bool:
        return not self.uncovered


def _bfs(graph: CoverGraph) -> tuple[list[int], list[int]]:
    """BFS from the source: parent edge id and distance per vertex.

    The parent of the source is -1; ties break by ascending edge id.
    Raises UnreachableVertexError unless every vertex is reached.
    """
    out: list[list[int]] = [[] for _ in range(graph.n + 1)]
    for eid, (u, _v) in enumerate(graph.edges):
        out[u].append(eid)
    parent = [-1] * (graph.n + 1)
    dist = [-1] * (graph.n + 1)
    dist[SOURCE] = 0
    frontier = [SOURCE]
    while frontier:
        nxt = []
        for u in frontier:
            for eid in out[u]:
                v = graph.edges[eid][1]
                if dist[v] < 0:
                    parent[v], dist[v] = eid, dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    missing = [v for v in range(1, graph.n + 1) if dist[v] < 0]
    if missing:
        raise UnreachableVertexError(f"vertices unreachable from source: {missing}")
    return parent, dist


def diameter(graph: CoverGraph) -> int:
    """Maximum BFS distance from the source to any vertex."""
    _parent, dist = _bfs(graph)
    return max(dist[1:])


def baseline_suite(graph: CoverGraph) -> TestSuite:
    """One path per edge: the BFS-tree path to its source plus the edge."""
    parent, _dist = _bfs(graph)
    tree_paths: dict[int, list[int]] = {SOURCE: []}

    def tree_path(v: int) -> list[int]:
        if v not in tree_paths:
            eid = parent[v]
            tree_paths[v] = tree_path(graph.edges[eid][0]) + [eid]
        return tree_paths[v]

    paths = [tree_path(u) + [eid] for eid, (u, _v) in enumerate(graph.edges)]
    return TestSuite(paths)


def euler_circuit(
    n: int, edges: list[tuple[int, int]], counts: list[int], start: int
) -> list[int]:
    """Edge-id circuit from ``start`` using edge k exactly ``counts[k]`` times.

    Hierholzer's construction over the multigraph with ``counts[k]`` copies
    of edge k, without building it: a vertex's edges are taken by ascending
    id, and an edge's copies one after another.  Requires in-degree ==
    out-degree everywhere and every used edge reachable from ``start``;
    edges of count 0 are ignored.
    """
    out: list[list[int]] = [[] for _ in range(n + 1)]
    degree = [0] * (n + 1)
    for eid, ((u, v), count) in enumerate(zip(edges, counts)):
        if count:
            out[u].append(eid)
            degree[u] += count
            degree[v] -= count
    bad = [v for v in range(1, n + 1) if degree[v] != 0]
    if bad:
        raise UnbalancedDegreeError(f"in-degree != out-degree at vertices {bad}")
    for eids in out:
        eids.reverse()  # [-1] then yields ascending edge ids

    left = list(counts)
    circuit: list[int] = []
    stack_v = [start]
    stack_e: list[int] = []
    while stack_v:
        u = stack_v[-1]
        if out[u]:
            eid = out[u][-1]
            left[eid] -= 1
            if not left[eid]:
                out[u].pop()
            stack_v.append(edges[eid][1])
            stack_e.append(eid)
        else:
            stack_v.pop()
            if stack_e:
                circuit.append(stack_e.pop())
    circuit.reverse()
    if len(circuit) != sum(counts):
        raise UnreachableVertexError("some edges are not reachable from the start vertex")
    return circuit


def _circulation_suite(graph: CoverGraph, minimize_cost: bool) -> TestSuite:
    """Split an Euler circuit of a covering circulation at its return edges.

    Every edge must carry at least one unit, and every vertex may send
    flow back to the source at no cost.  ``solve_circulation`` finds such
    a circulation by one Dinic max flow; with ``minimize_cost`` it then
    cancels negative residual cycles until none is left.  A circulation's
    cost is its number of original-edge traversals, which is the suite's
    total length, so every cancel shortens the suite by at least one step.
    """
    _bfs(graph)  # rejects unreachable vertices
    m = len(graph.edges)
    if m == 0:
        return TestSuite([])
    cap = m + 1  # finite stand-in for unbounded capacity; m units always suffice
    bounded = [BoundedEdge(u - 1, v - 1, 1, cap, 1) for u, v in graph.edges]
    bounded += [BoundedEdge(v - 1, SOURCE - 1, 0, cap, 0) for v in range(1, graph.n + 1)]
    flows = solve_circulation(graph.n, bounded, minimize_cost=minimize_cost)
    # The return edges get ids >= m; listed after the solve, so not held at the network's peak.
    edges = graph.edges + [(v, SOURCE) for v in range(1, graph.n + 1)]

    paths: list[list[int]] = []
    current: list[int] = []
    for eid in euler_circuit(graph.n, edges, flows, SOURCE):
        if eid < m:
            current.append(eid)
        elif current:
            paths.append(current)
            current = []
    if current:
        # The circuit ends back at the source; a trailing segment can only
        # exist when the last traversed edge is an original edge into s.
        paths.append(current)
    return TestSuite(paths)


def flow_suite(graph: CoverGraph) -> TestSuite:
    """Edge-covering suite from any feasible unit-lower-bound circulation."""
    return _circulation_suite(graph, minimize_cost=False)


def min_suite(graph: CoverGraph) -> TestSuite:
    """Edge-covering suite of minimum total length.

    The flow suite's circulation with every negative residual cycle
    cancelled (Klein's optimality test), so it equals ``flow_suite``
    wherever that circulation already has minimum cost.
    """
    return _circulation_suite(graph, minimize_cost=True)


def verify_coverage(graph: CoverGraph, suite: TestSuite) -> CoverageReport:
    """Check path validity and report per-edge coverage.

    Raises MalformedPathError when a path does not start at the source or
    does not chain head-to-tail.
    """
    hits = [0] * len(graph.edges)
    for pid, path in enumerate(suite.paths):
        position = SOURCE
        for eid in path:
            if not 0 <= eid < len(graph.edges):
                raise MalformedPathError(f"path {pid}: no such edge id {eid}")
            u, v = graph.edges[eid]
            if u != position:
                raise MalformedPathError(
                    f"path {pid}: edge {eid} departs {u}, expected {position}"
                )
            hits[eid] += 1
            position = v
    uncovered = [eid for eid, c in enumerate(hits) if c == 0]
    bound = (diameter(graph) + 1) * len(graph.edges)
    return CoverageReport(uncovered, suite.path_count, suite.total_length, bound)
