"""Integer flow solver used by the suite generators.

``FlowNetwork`` is a residual-edge-pair network over 0-based vertices.
``max_flow`` is Dinic's algorithm: one blocking flow (``_blocking_flow``)
per BFS level graph of the arcs with capacity left.  The level graph
ends at the sink's level, and after each augmenting path the search
resumes at the path's first saturated arc.
``cancel_negative_cycles`` lowers the cost of the network's flow without
changing any vertex's balance: it pushes flow around a negative-cost
residual cycle until none is left (Klein 1967), which is exactly the
condition for a flow to have minimum cost among flows of its value.
One queue-based Bellman-Ford search (``_negative_cycle``) finds those
cycles: first from vertex 0 alone, which certifies a flow that has none
(the reduced-cost optimality condition, Ahuja, Magnanti and Orlin 1993,
ch. 9) in about one pass over the arcs, because in the suite generators'
networks every state is reached from vertex 0; otherwise from every
vertex at once, once per cycle cancelled.

``solve_circulation`` handles per-edge lower bounds through the standard
super-source / super-sink transformation, and for a minimum-cost
circulation cancels the cycles of the feasible flow Dinic found.

All arithmetic is exact; all tie-breaking follows ascending edge insertion
order, so results are deterministic functions of the build sequence.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable


class InfeasibleCirculationError(Exception):
    """No flow satisfies the lower bounds; signals a caller bug here."""


class FlowNetwork:
    """Directed network with integer capacities and optional costs."""

    def __init__(self, n: int):
        self.n = n
        # Parallel arrays: arc i and i^1 are a residual pair.
        self.head: list[int] = []
        self.cap: list[int] = []
        self.cost: list[int] = []
        self.adj: list[list[int]] = [[] for _ in range(n)]

    def add_edge(self, u: int, v: int, cap: int, cost: int = 0) -> int:
        """Add u->v with the given capacity; returns the arc id."""
        if cap < 0:
            raise ValueError("capacity must be non-negative")
        arc = len(self.head)
        self.head.append(v)
        self.cap.append(cap)
        self.cost.append(cost)
        self.adj[u].append(arc)
        self.head.append(u)
        self.cap.append(0)
        self.cost.append(-cost)
        self.adj[v].append(arc + 1)
        return arc

    def flow_of(self, arc: int) -> int:
        """Units pushed through the forward arc (its reverse residual)."""
        return self.cap[arc ^ 1]

    def max_flow(self, s: int, t: int) -> int:
        """Dinic: one blocking flow per BFS level graph of the residual arcs."""
        if s == t:
            raise ValueError("source equals sink")
        total = 0
        while pushed := self._blocking_flow(s, t):
            total += pushed
        return total

    def cancel_negative_cycles(self) -> None:
        """Push flow around negative-cost residual cycles until none is left.

        Each push saturates the cycle's bottleneck arc and leaves every
        vertex's balance as it was.  It lowers the integer cost of the flow
        by at least 1, and that cost is bounded below because capacities
        are finite, so the loop ends, and it ends at a minimum-cost flow of
        the same value: a flow has minimum cost among flows of its value
        exactly when its residual network has no negative cycle.  A search
        from vertex 0 that settles rules out every cycle through a vertex
        it reached, so it certifies the flow unless a residual arc joins two
        unreached vertices; otherwise cycles are found from every vertex.
        """
        n, cap, head, adj = self.n, self.cap, self.head, self.adj
        cycle, dist = self._negative_cycle([0])
        if not cycle and not any(
            cap[arc] > 0 and dist[head[arc]] is None
            for u in range(n) if dist[u] is None for arc in adj[u]
        ):
            return
        while cycle := self._negative_cycle(range(n))[0]:
            bottleneck = min(cap[a] for a in cycle)
            for a in cycle:
                cap[a] -= bottleneck
                cap[a ^ 1] += bottleneck

    def _negative_cycle(self, starts: Iterable[int]) -> tuple[list[int], list[int | None]]:
        """Arcs of one negative-cost residual cycle (or []), and the distances.

        Queue-based Bellman-Ford (SPFA) from every vertex of ``starts`` at
        distance 0, scanning arcs in insertion order; a distance is None
        where no residual path from ``starts`` arrives.  ``hops[v]`` counts
        the arcs of the walk that last lowered ``v``; a walk of n arcs
        repeats a vertex it lowered twice, so the graph has a negative
        cycle, and it is taken from the predecessor chain, where every
        cycle is negative.
        """
        n, cap, cost, head, adj = self.n, self.cap, self.cost, self.head, self.adj
        dist: list[int | None] = [None] * n
        hops = [0] * n
        pred = [-1] * n  # the arc that last lowered each vertex
        queued = [False] * n
        queue = deque(starts)
        for s in queue:
            dist[s], queued[s] = 0, True
        while queue:
            u = queue.popleft()
            queued[u] = False
            du, hu = dist[u], hops[u] + 1
            for arc in adj[u]:
                v = head[arc]
                if cap[arc] > 0 and (dist[v] is None or du + cost[arc] < dist[v]):
                    dist[v], hops[v], pred[v] = du + cost[arc], hu, arc
                    if hu >= n:
                        w = v
                        for _ in range(n):
                            if pred[w] < 0:
                                break  # the chain ends: no cycle on it yet
                            w = head[pred[w] ^ 1]
                        else:  # n steps back along a chain land on its cycle
                            cycle = [pred[w]]
                            while head[cycle[-1] ^ 1] != w:
                                cycle.append(pred[head[cycle[-1] ^ 1]])
                            return cycle, dist
                    if not queued[v]:
                        queued[v] = True
                        queue.append(v)
        return [], dist

    def _blocking_flow(self, s: int, t: int) -> int:
        """One Dinic phase over the arcs with capacity left.

        Builds BFS levels from ``s`` up to the level of ``t``, then pushes
        augmenting paths along arcs that climb one level, visiting each
        vertex's arcs in insertion order, until ``t`` is cut off.  Vertices
        beyond ``t``'s level stay unlabelled: like the others on that level,
        they reach ``t`` by no climbing path.  After each path the walk resumes at the tail of
        its first saturated arc, where a walk from ``s`` would turn away.
        Returns the units pushed.
        """
        cap = self.cap
        head = self.head
        adj = self.adj
        level = [-1] * self.n
        level[s] = 0
        frontier = [s]
        while frontier and level[t] < 0:
            nxt = []
            for u in frontier:
                for arc in adj[u]:
                    v = head[arc]
                    if level[v] < 0 and cap[arc] > 0:
                        level[v] = level[u] + 1
                        nxt.append(v)
            frontier = nxt
        if level[t] < 0:
            return 0
        it = [0] * self.n
        total = 0
        path: list[int] = []
        u = s
        while True:
            if u == t:
                bottleneck = min(cap[a] for a in path)
                for a in path:
                    cap[a] -= bottleneck
                    cap[a ^ 1] += bottleneck
                total += bottleneck
                cut = next(k for k, a in enumerate(path) if not cap[a])
                u = head[path[cut] ^ 1]
                del path[cut:]
                continue
            advanced = False
            while it[u] < len(adj[u]):
                arc = adj[u][it[u]]
                v = head[arc]
                if level[v] == level[u] + 1 and cap[arc] > 0:
                    path.append(arc)
                    u = v
                    advanced = True
                    break
                it[u] += 1
            if not advanced:
                level[u] = -1
                if not path:
                    return total
                arc = path.pop()
                u = head[arc ^ 1]
                it[u] += 1


@dataclass(frozen=True, slots=True)
class BoundedEdge:
    """Circulation input edge with lower bound, capacity and cost."""

    source: int
    destination: int
    lower: int
    cap: int
    cost: int = 0

    def __post_init__(self):
        if not 0 <= self.lower <= self.cap:
            raise ValueError(f"need 0 <= lower <= cap, got {self.lower}..{self.cap}")


def solve_circulation(n: int, edges: list[BoundedEdge], minimize_cost: bool = False) -> list[int]:
    """Flow per edge satisfying lower/capacity bounds and conservation.

    Lower bounds are shifted out in the usual way: edge e carries
    cap(e)-lower(e) in a helper network, vertex demands d(v) = sum of
    incoming lower bounds minus outgoing ones are wired to a super source
    and sink, and the helper max-flow (Dinic) must saturate all demands.
    With ``minimize_cost`` the helper flow's negative residual cycles are
    then cancelled, which minimizes sum(cost(e) * flow(e)) overall since
    the mandatory lower-bound units contribute a constant.  Costs may be
    negative.  The saturated super-source and super-sink arcs lie on no
    residual cycle, so cancelling keeps every lower bound.
    """
    net = FlowNetwork(n + 2)
    super_s, super_t = n, n + 1
    demand = [0] * n
    arcs = []
    for e in edges:
        arcs.append(net.add_edge(e.source, e.destination, e.cap - e.lower, e.cost))
        demand[e.destination] += e.lower
        demand[e.source] -= e.lower
    need = 0
    for v in range(n):
        if demand[v] > 0:
            net.add_edge(super_s, v, demand[v], 0)
            need += demand[v]
        elif demand[v] < 0:
            net.add_edge(v, super_t, -demand[v], 0)
    pushed = net.max_flow(super_s, super_t)
    if pushed != need:
        raise InfeasibleCirculationError(f"lower bounds need {need} units, routed {pushed}")
    if minimize_cost:
        net.cancel_negative_cycles()
    return [e.lower + net.flow_of(a) for e, a in zip(edges, arcs)]
