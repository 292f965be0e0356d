"""Independent reference solvers and serializer the package is checked against.

Deliberately naive: these share no code or algorithmic structure with the
production code, so agreement is meaningful.  Three exceptions:
``fresh_replay_verdicts`` and ``product_search`` reuse the runner's per-step
check, because what they check is how paths are executed and which steps a
suite reaches, not how a step is judged; and
``DecodingStateParser`` builds each state part through ``canon.loads`` and the
model types as the file reader does, because what it checks is how the reader
finds a state's parts, not how a part is built.

``random_cover_graph`` makes the random graphs the cover solvers are
checked on, and ``edges`` lists a transition graph's edges from its columns.
"""

from __future__ import annotations

import heapq
import itertools
import json
import random
from collections import deque
from collections.abc import Mapping


def ford_fulkerson_unit(n: int, edges: list[tuple[int, int, int]], s: int, t: int) -> int:
    """Max flow by augmenting one unit at a time along any BFS path."""
    cap = {}
    adj: dict[int, set[int]] = {v: set() for v in range(n)}
    for u, v, c in edges:
        cap[(u, v)] = cap.get((u, v), 0) + c
        cap.setdefault((v, u), 0)
        adj[u].add(v)
        adj[v].add(u)
    total = 0
    while True:
        parent = {s: None}
        queue = deque([s])
        while queue and t not in parent:
            u = queue.popleft()
            for v in sorted(adj[u]):
                if v not in parent and cap.get((u, v), 0) > 0:
                    parent[v] = u
                    queue.append(v)
        if t not in parent:
            return total
        v = t
        while parent[v] is not None:
            u = parent[v]
            cap[(u, v)] -= 1
            cap[(v, u)] += 1
            v = u
        total += 1


def _circulations(n: int, edges: list[tuple[int, int, int, int]]):
    """Every integer flow assignment within bounds that conserves flow."""
    for flows in itertools.product(*(range(lo, hi + 1) for _u, _v, lo, hi in edges)):
        balance = [0] * n
        for (u, v, _lo, _hi), f in zip(edges, flows):
            balance[u] -= f
            balance[v] += f
        if not any(balance):
            yield flows


def feasible_circulation_exists(n: int, edges: list[tuple[int, int, int, int]]) -> bool:
    """Brute force over all integer flow assignments within bounds."""
    return next(_circulations(n, edges), None) is not None


def min_circulation_cost(n: int, edges: list[tuple[int, int, int, int, int]]) -> int | None:
    """Least sum(cost * flow) over all integer circulations within
    (source, destination, lower, cap, cost) bounds, by brute force; None
    when there is none."""
    costs = [cost for *_bounds, cost in edges]
    return min(
        (sum(c * f for c, f in zip(costs, flows))
         for flows in _circulations(n, [bounds for *bounds, _cost in edges])),
        default=None,
    )


def min_total_cover_length(n: int, edges: list[tuple[int, int]], source: int) -> int | None:
    """Exhaustive minimum summed length of any edge-covering path suite.

    Dijkstra over (uncovered-edge bitmask, current walk position): walking
    an edge costs 1 and may clear its bit; abandoning the walk and
    starting a new path at the source is free.  None when some edge is
    unreachable.
    """
    m = len(edges)
    out: dict[int, list[tuple[int, int]]] = {}
    for eid, (u, v) in enumerate(edges):
        out.setdefault(u, []).append((eid, v))
    start = ((1 << m) - 1, source)
    dist = {start: 0}
    heap = [(0, start)]
    while heap:
        d, (mask, pos) = heapq.heappop(heap)
        if d > dist[(mask, pos)]:
            continue
        if mask == 0:
            return d
        if pos != source:  # end this path and start another: free
            new = (mask, source)
            if d < dist.get(new, d + 1):
                dist[new] = d
                heapq.heappush(heap, (d, new))
        for eid, nxt in out.get(pos, ()):
            new = (mask & ~(1 << eid), nxt)
            nd = d + 1
            if nd < dist.get(new, nd + 1):
                dist[new] = nd
                heapq.heappush(heap, (nd, new))
    return None


def reference_dumps(value) -> str:
    """Canonical text of a model value, by the recursive serializer ``canon``
    used before Records cached their text.

    Walks plain and frozen values alike through the Mapping interface:
    sorted record keys, sorted set members as ``{"$set":[...]}``.
    """
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=True)
    if isinstance(value, Mapping):
        fields = (json.dumps(k, ensure_ascii=True) + ":" + reference_dumps(value[k])
                  for k in sorted(value))
        return "{" + ",".join(fields) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(reference_dumps(v) for v in value) + "]"
    if isinstance(value, (set, frozenset)):
        return '{"$set":[' + ",".join(sorted(reference_dumps(v) for v in value)) + "]}"
    raise TypeError(f"not a model value: {value!r}")


def edges(graph) -> list[tuple]:
    """(source, action, destination) of each of a transition graph's edges, by edge id."""
    return [(src, graph.actions[aid], dst)
            for src, aid, dst in zip(graph.sources, graph.action_ids, graph.destinations)]


def fresh_replay_verdicts(emulator_factory, suite) -> list:
    """Every path's verdict from its own fresh emulator, in path-id order:
    each path's actions from the start, sharing nothing with other paths."""
    from actorcover.conformance import PASS, Verdict, check_step

    graph = suite.graph
    steps = edges(graph)
    verdicts = []
    for path_id, path in enumerate(suite.paths):
        emulator = emulator_factory()
        verdict = Verdict(path_id, PASS)
        for step_index, eid in enumerate(path, start=1):
            _src, action, dst = steps[eid]
            failure = check_step(emulator, action, graph.state(dst))
            if failure is not None:
                verdict = Verdict(path_id, failure[0], step_index, failure[1])
                break
        verdicts.append(verdict)
    return verdicts


def product_search(emulator_factory, graph) -> tuple[dict[int, set], set[int]]:
    """Breadth-first search of (graph vertex, emulator state) pairs from the root.

    An emulator state is keyed on its actors' images, its liveness flags and
    its event counts.  From each pair, every out-edge of the vertex is
    stepped with ``check_step`` from a restore of the pair's save: a
    conforming step reaches the edge's destination with the emulator's new
    state, and a failing one puts the edge on the frontier.  Returns the
    emulator keys reached at each vertex and the frontier's edge ids.
    """
    from actorcover.conformance import check_step

    steps = edges(graph)
    out_edges: dict[int, list[int]] = {}
    for eid, (src, _action, _dst) in enumerate(steps):
        out_edges.setdefault(src, []).append(eid)
    emulator = emulator_factory()

    def key():
        snapshot = emulator.snapshot()
        return snapshot.actors, snapshot.alive, frozenset(emulator.store.items())

    reached = {1: {key()}}
    frontier = set()
    queue = deque([(1, emulator.save())])
    while queue:
        vertex, saved = queue.popleft()
        for eid in out_edges.get(vertex, ()):
            emulator.restore(saved)
            _src, action, dst = steps[eid]
            if check_step(emulator, action, graph.state(dst)) is not None:
                frontier.add(eid)
                continue
            state, keys = key(), reached.setdefault(dst, set())
            if state not in keys:
                keys.add(state)
                queue.append((dst, emulator.save()))
    return reached, frontier


class DecodingStateParser:
    """The graph reader's state parser before it looked parts up by their
    slices of the text: every text is decoded whole as plain JSON, and each
    part (actor tuple, ``alive``, ``globals``, each event) is rendered back
    to text and built once per distinct rendered text."""

    def __init__(self):
        from actorcover import canon
        from actorcover.actors import Event
        from actorcover.model import ModelState

        self._canon, self._event_type, self._state_type = canon, Event, ModelState
        self._plain = json.JSONDecoder(parse_float=canon._no_float,
                                       parse_constant=canon._no_float)
        self._values: dict = {}
        self._events: dict = {}

    @staticmethod
    def _render(plain) -> str:
        return json.dumps(plain, sort_keys=True, separators=(",", ":"), ensure_ascii=True)

    def _value(self, plain):
        text = self._render(plain)
        value = self._values.get(text)
        if value is None:
            value = self._values[text] = self._canon.loads(text)
        return value

    def _event(self, plain):
        text = self._render(plain)
        event = self._events.get(text)
        if event is None:
            event = self._events[text] = self._event_type.from_value(self._canon.loads(text))
        return event

    def _members(self, value):
        tag = self._canon.SET_TAG
        while type(value) is dict and tag in value:
            if len(value) != 1:
                raise ValueError(f"record key {tag!r} is reserved")
            value = value[tag]
        return value

    def state(self, text: str):
        plain = self._plain.decode(text)
        if type(plain) is not dict or len(plain) != 4:
            value = self._canon.loads(text)
            if type(value) is not self._canon.Record:
                raise TypeError(f"a state is a record, not {type(value).__name__}")
        return self._state_type(
            actors=self._value(plain["actors"]),
            alive=self._value(plain["alive"]),
            globals_=self._value(plain["globals"]),
            events=frozenset(self._event(v) for v in self._members(plain["events"])),
        )


def random_cover_graph(rng: random.Random, max_vertices: int, max_edges: int) -> CoverGraph:
    """Random single-source multigraph; reachability holds by construction.

    Each vertex beyond the source first gets an edge from an
    already-reachable vertex, then extra edges (parallels and self-loops
    included) are sprinkled up to the edge budget.
    """
    from actorcover.tsg import CoverGraph

    n = rng.randint(1, max_vertices)
    edges: list[tuple[int, int]] = []
    for v in range(2, n + 1):
        edges.append((rng.randint(1, v - 1), v))
    extra = rng.randint(0, max(0, max_edges - len(edges)))
    for _ in range(extra):
        edges.append((rng.randint(1, n), rng.randint(1, n)))
    rng.shuffle(edges)
    # A shuffle may place a vertex's first incoming edge after edges that
    # leave it; reachability is unaffected (edge order is only an id order).
    return CoverGraph(n, edges)
