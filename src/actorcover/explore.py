"""Bounded breadth-first enumeration of a model's transition graph.

States are deduplicated by canonical key and indexed 1-based in discovery
order; index 1 is always the initial state.  Exploration is level
synchronous: each BFS level's new states are sorted by canonical key
(rendered for the sort, not kept on the states) before indexing, which
makes the resulting indices (and therefore every file derived from the
graph) identical across runs and processes.

A graph's edges are three ``array('I')`` columns, ``sources``,
``action_ids`` and ``destinations`` (12 bytes an edge); an edge id is a
position in them, and ``actions`` holds each distinct action once, in
first-use order.  Explore streams each level into the columns: an
edge's source and action id are appended as its action is expanded, a
successor that already has an index is mapped to it at once, and one
object is kept per successor new on this level, so no per-edge object
or expansion list is held.  The level's destinations are filled in once
its new states are sorted and indexed.

Each level's edges are appended in expansion order, so a state's first
incoming edge is the one that discovered it: the first edge id into each
state other than 1 is its BFS tree edge.  The counterexample path and
the diameter are read off that tree, with no parent table or second BFS.

:class:`TransitionGraph` is the pipeline's one graph type: ``explore``
builds it, and ``suitefile.read_graph_file`` reads it back for ``run``,
which replays its edges, and for ``gensuite``, which covers only the
edges' endpoints (:meth:`TransitionGraph.cover_graph`).
"""

from __future__ import annotations

import gc
from array import array
from contextlib import contextmanager
from dataclasses import dataclass

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


@contextmanager
def collector_paused():
    """Pause the cyclic garbage collector; its previous state is restored however the block ends.

    For the two functions that build a graph, ``explore`` and
    ``suitefile.read_graph_file``.  Each keeps everything it allocates, so
    a collection there can free nothing, yet each full one rescans the
    whole graph built so far.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@dataclass
class TransitionGraph:
    """Single-source labeled transition multigraph; immutable once built.

    Edge ``k`` leaves state ``sources[k]`` by the action
    ``actions[action_ids[k]]`` and reaches state ``destinations[k]``.
    """

    states: list[ModelState]
    actions: list[Action]
    sources: array
    action_ids: array
    destinations: array

    @property
    def state_count(self) -> int:
        return len(self.states)

    @property
    def edge_count(self) -> int:
        return len(self.sources)

    def state(self, index: int) -> ModelState:
        """1-based lookup; index 1 is the initial state."""
        return self.states[index - 1]

    def cover_graph(self) -> CoverGraph:
        """The edges' endpoints, for the suite generators in ``tsg``."""
        return CoverGraph(self.state_count, list(zip(self.sources, self.destinations)))

    def sink_indices(self) -> list[int]:
        sources = set(self.sources)
        return [i for i in range(1, self.state_count + 1) if i not in sources]

    def tree_path(self, index: int) -> list[int]:
        """The edge ids of the BFS tree's path from state 1 to state ``index``.

        A state's tree edge is the first edge id into it, as ``explore``
        orders states and edges; a graph file keeps that order.
        """
        first = [-1] * (self.state_count + 1)
        for eid, dst in enumerate(self.destinations):
            if first[dst] < 0:
                first[dst] = eid
        path = []
        while index > 1:
            path.append(first[index])
            index = self.sources[path[-1]]
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

    The cyclic garbage collector is paused while the graph is built
    (``collector_paused``); unpaused, it ran 9 full collections on vr r3
    q1 v1.  There is no ``gc.freeze()`` afterwards: it would move
    every object then alive, the caller's too, out of the collector's
    reach for the rest of the process, so any of them that later became
    cyclic garbage would never be freed.
    """
    with collector_paused():
        return _explore(model, max_states)


def _explore(model: Model, max_states: int) -> ExploreResult:
    invariants = model.invariants()
    init = model.initial_state()
    states: list[ModelState] = [init]
    index_of: dict[ModelState, int] = {init: 1}
    sources, action_ids, destinations = array("I"), array("I"), array("I")
    violations: list[InvariantViolation] = []

    def check(state: ModelState, index: int) -> None:
        for inv in invariants:
            detail = inv.check(state)
            if detail is not None:
                violations.append(InvariantViolation(index, inv.name, detail))

    check(init, 1)
    # Each distinct action's id, keyed by value in first-use order: one object
    # per action, so each action's key is rendered once when the graph is written.
    shared: dict[Action, int] = {}
    frontier = range(1, 2)
    while frontier and not violations:
        # The level's destinations: an index, or a successor new on this level,
        # folded into one object per value by ``fresh``.
        fresh: dict[ModelState, ModelState] = {}
        targets: list[int | ModelState] = []
        for src in frontier:
            state = states[src - 1]
            for action in model.enabled_actions(state):
                sources.append(src)
                action_ids.append(shared.setdefault(action, len(shared)))
                succ = model.apply(state, action)
                targets.append(index_of.get(succ) or fresh.setdefault(succ, succ))
        # This level's indices are assigned in key order.
        first = len(states) + 1
        for succ in sorted(fresh, key=ModelState.text):
            if len(states) >= max_states:
                raise StateCapExceededError(max_states, len(states), len(destinations))
            states.append(succ)
            index = len(states)
            index_of[succ] = index
            check(succ, index)
        destinations.extend([t if type(t) is int else index_of[t] for t in targets])
        frontier = range(first, len(states) + 1)

    graph = TransitionGraph(states, list(shared), sources, action_ids, destinations)
    return ExploreResult(graph, violations)


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
