"""Bounded breadth-first enumeration of a model's transition graph.

States are deduplicated by canonical key and indexed 1-based in discovery
order; index 1 is always the initial state.  Exploration is level
synchronous: each BFS level's new states are sorted by canonical key
(rendered for the sort, not kept on the states) before indexing, which
makes the resulting indices (and therefore every file derived from the
graph) identical across runs and processes.

Each level's edges are appended in expansion order, so a state's first
incoming edge is the one that discovered it: the first edge into each
state other than 1 is its BFS tree edge.  The counterexample path and the
diameter are read off that tree, with no parent table or second BFS.

:class:`TransitionGraph` is the pipeline's one graph type: ``explore``
builds it, and ``suitefile.read_graph_file`` reads it back for ``run``,
which replays its edges, and for ``gensuite``, which covers only the
edges' endpoints (:meth:`TransitionGraph.cover_graph`).
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field

from . import canon
from .actors import Action
from .model import InvariantViolation, Model, ModelState
from .tsg import CoverGraph

DEFAULT_STATE_CAP = 10_000_000


class StateCapExceededError(Exception):
    """The hard state cap was hit; carries partial statistics."""

    def __init__(self, cap: int, states: int, edges: int):
        super().__init__(f"state cap {cap} exceeded ({states} states, {edges} edges so far)")
        self.cap = cap
        self.states = states
        self.edges = edges


@dataclass(frozen=True, slots=True)
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

    def cover_graph(self) -> CoverGraph:
        """The edges' endpoints, for the suite generators in ``tsg``."""
        return CoverGraph(self.state_count, [(e.source, e.destination) for e in self.edges])

    def sink_indices(self) -> list[int]:
        sources = {e.source for e in self.edges}
        return [i for i in range(1, self.state_count + 1) if i not in sources]

    def tree_path(self, index: int) -> list[Edge]:
        """The BFS tree's edges from state 1 to state ``index``.

        A state's tree edge is its first incoming edge, as ``explore``
        orders states and edges; a graph file keeps that order.
        """
        first: list[Edge | None] = [None] * (self.state_count + 1)
        for e in self.edges:
            if first[e.destination] is None:
                first[e.destination] = e
        path = []
        while index > 1:
            path.append(first[index])
            index = path[-1].source
        path.reverse()
        return path

    def diameter(self) -> int:
        """Maximum BFS distance from state 1: the tree depth of the last state.

        States are numbered level by level, so the last one lies on the
        deepest level.
        """
        return len(self.tree_path(self.state_count))

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

    @property
    def ok(self) -> bool:
        return not self.violations


def explore(model: Model, max_states: int = DEFAULT_STATE_CAP) -> ExploreResult:
    """BFS the model from its initial state under the hard state cap.

    Invariants are checked at every discovered state.  After a violation
    the current level is finished and exploration stops, so the graph's
    tree path to the first violating state is a shortest counterexample.

    The cyclic garbage collector is paused while the graph is built, and
    its previous state restored however explore ends.  Explore keeps
    everything it allocates, so a collection here can free nothing, yet
    each full one rescans the whole graph built so far (9 of them on vr
    r3 q1 v1).  There is no ``gc.freeze()`` afterwards: it would move
    every object then alive, the caller's too, out of the collector's
    reach for the rest of the process, so any of them that later became
    cyclic garbage would never be freed.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _explore(model, max_states)
    finally:
        if enabled:
            gc.enable()


def _explore(model: Model, max_states: int) -> ExploreResult:
    invariants = model.invariants()
    init = model.initial_state()
    states: list[ModelState] = [init]
    index_of: dict[ModelState, int] = {init: 1}
    edges: list[Edge] = []
    violations: list[InvariantViolation] = []

    def check(state: ModelState, index: int) -> None:
        for inv in invariants:
            detail = inv.check(state)
            if detail is not None:
                violations.append(InvariantViolation(index, inv.name, detail))

    check(init, 1)
    # One object per distinct action, so each action's key is rendered once
    # when the graph is written.
    shared: dict[Action, Action] = {}
    frontier = [1]
    while frontier and not violations:
        expansions = []
        for src in frontier:
            state = states[src - 1]
            for action in model.enabled_actions(state):
                action = shared.setdefault(action, action)
                expansions.append((src, action, model.apply(state, action)))
        # Dedup new successors; assign this level's indices in key order.
        fresh = {succ for _src, _action, succ in expansions if succ not in index_of}
        level = sorted(fresh, key=ModelState.text)
        for succ in level:
            if len(states) >= max_states:
                raise StateCapExceededError(max_states, len(states), len(edges))
            states.append(succ)
            index = len(states)
            index_of[succ] = index
            check(succ, index)
        for src, action, succ in expansions:
            edges.append(Edge(src, action, index_of[succ]))
        frontier = [index_of[succ] for succ in level]

    return ExploreResult(TransitionGraph(states, edges), violations)


@dataclass
class QuiescenceReport:
    violations: list[InvariantViolation]
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
    return QuiescenceReport(violations, no_sinks=not sinks)
