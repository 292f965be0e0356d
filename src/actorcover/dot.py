"""Graphviz dot export of transition graphs.

Unlike generic state-graph dumps, edge labels here carry the full
canonical action, so a rendered graph shows exactly which operation moved
the system between two states.  The output is for viewing only; the graph
file written by ``explore --out`` is the machine-readable form.
"""

from __future__ import annotations

from .explore import TransitionGraph


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def export_dot(graph: TransitionGraph) -> str:
    """Render the graph as a dot digraph: one node line per state, one edge line per edge."""
    out = ["digraph transitions {"]
    for i in range(1, graph.state_count + 1):
        out.append(f'  {i} [label="{i}"];')
    labels = [_escape(action.key()) for action in graph.actions]
    for src, aid, dst in zip(graph.sources, graph.action_ids, graph.destinations):
        out.append(f'  {src} -> {dst} [label="{labels[aid]}"];')
    out.append("}")
    return "\n".join(out) + "\n"
