"""Bounded breadth-first enumeration of a model's transition graph.

States are deduplicated by canonical key and indexed 1-based in discovery
order; index 1 is always the initial state.  Exploration is level
synchronous: each BFS level's new states are sorted by canonical key
before indexing, which makes the resulting indices (and therefore every
file derived from the graph) identical across runs and processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import canon
from .actors import Action
from .model import InvariantViolation, Model, ModelState

DEFAULT_STATE_CAP = 10_000_000


class StateCapExceededError(Exception):
    """The hard state cap was hit; carries partial statistics."""

    def __init__(self, cap: int, states: int, edges: int):
        super().__init__(f"state cap {cap} exceeded ({states} states, {edges} edges so far)")
        self.cap = cap
        self.states = states
        self.edges = edges


@dataclass(frozen=True)
class Edge:
    source: int
    action: Action
    destination: int


@dataclass
class TransitionGraph:
    """Single-source labeled transition multigraph; immutable once built."""

    states: list[ModelState] = field(default_factory=list)
    edges: list[Edge] = field(default_factory=list)

    @property
    def state_count(self) -> int:
        return len(self.states)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def state(self, index: int) -> ModelState:
        """1-based lookup; index 1 is the initial state."""
        return self.states[index - 1]

    def sink_indices(self) -> list[int]:
        sources = {e.source for e in self.edges}
        return [i for i in range(1, self.state_count + 1) if i not in sources]

    def diameter(self) -> int:
        """Maximum BFS distance from state 1 over the edge relation."""
        adjacency: dict[int, list[int]] = {}
        for e in self.edges:
            adjacency.setdefault(e.source, []).append(e.destination)
        dist = {1: 0}
        frontier = [1]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adjacency.get(u, ()):
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        return max(dist.values()) if dist else 0

    def stats_value(self) -> canon.Record:
        """Machine-readable summary record."""
        return canon.Record(
            states=self.state_count,
            edges=self.edge_count,
            diameter=self.diameter(),
            sinks=len(self.sink_indices()),
        )


@dataclass
class ExploreResult:
    graph: TransitionGraph
    violations: list[InvariantViolation]
    counterexample: list[tuple[Action, int]] | None = None

    @property
    def ok(self) -> bool:
        return not self.violations


def canonical_key(state: ModelState) -> str:
    """Canonical dedup key; injective over semantically distinct states."""
    return state.key()


def explore(
    model: Model,
    max_states: int = DEFAULT_STATE_CAP,
    stop_on_violation: bool = True,
) -> ExploreResult:
    """BFS the model from its initial state under the hard state cap.

    Invariants are checked at every discovered state.  With
    ``stop_on_violation`` the current level is finished and exploration
    stops, so the reported counterexample path is shortest.
    """
    invariants = model.invariants()
    init = model.initial_state()
    states: list[ModelState] = [init]
    index_of: dict[ModelState, int] = {init: 1}
    parents: dict[int, tuple[int, Action]] = {}
    edges: list[Edge] = []
    violations: list[InvariantViolation] = []

    def check(state: ModelState, index: int) -> None:
        for inv in invariants:
            detail = inv.check(state)
            if detail is not None:
                violations.append(InvariantViolation(index, inv.name, detail))

    check(init, 1)
    frontier = [1]
    while frontier and not (violations and stop_on_violation):
        expansions = [
            (src, action, model.apply(states[src - 1], action))
            for src in frontier
            for action in model.enabled_actions(states[src - 1])
        ]
        # Dedup new successors; assign this level's indices in key order.
        fresh: dict[ModelState, tuple[int, Action]] = {}
        for src, action, succ in expansions:
            if succ not in index_of and succ not in fresh:
                fresh[succ] = (src, action)
        level = sorted(fresh, key=canonical_key)
        for succ in level:
            src, action = fresh[succ]
            if len(states) >= max_states:
                raise StateCapExceededError(max_states, len(states), len(edges))
            states.append(succ)
            index = len(states)
            index_of[succ] = index
            parents[index] = (src, action)
            check(succ, index)
        for src, action, succ in expansions:
            edges.append(Edge(src, action, index_of[succ]))
        frontier = [index_of[succ] for succ in level]

    graph = TransitionGraph(states, edges)
    counterexample = None
    if violations:
        counterexample = _path_to(parents, graph, violations[0].state_index)
    return ExploreResult(graph, violations, counterexample)


def _path_to(parents, graph, index: int) -> list[tuple[Action, int]]:
    """Root-anchored action path reaching the given state index."""
    steps = []
    while index != 1:
        src, action = parents[index]
        steps.append((action, index))
        index = src
    steps.reverse()
    return steps


@dataclass
class QuiescenceReport:
    violations: list[InvariantViolation]
    sink_count: int
    no_sinks: bool


def check_quiescent_progress(graph: TransitionGraph, model: Model) -> QuiescenceReport:
    """Assert bounded progress at every sink whose bounds are exhausted.

    A graph without sinks passes vacuously but is flagged, since that
    usually means the bounds do not actually exhaust.
    """
    violations = []
    sinks = graph.sink_indices()
    for index in sinks:
        state = graph.state(index)
        if not model.bounds_exhausted(state):
            continue
        detail = model.quiescence_violation(state)
        if detail is not None:
            violations.append(InvariantViolation(index, "QuiescentProgress", detail))
    return QuiescenceReport(violations, len(sinks), no_sinks=not sinks)
