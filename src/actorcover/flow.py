"""Integer flow solvers used by the suite generators.

``FlowNetwork`` is a residual-edge-pair network over 0-based vertices,
solved either by Dinic's algorithm (``max_flow``) or by successive
shortest augmenting paths with vertex potentials (``min_cost_max_flow``;
costs must be non-negative, which holds for the 0/1 costs used here).
Both push flow through one Dinic blocking-flow routine
(``_blocking_flow``); they differ only in which residual arcs it may use:
any arc with capacity left, or only arcs of zero reduced cost.
``solve_circulation`` handles per-edge lower bounds through the standard
super-source / super-sink transformation.

All arithmetic is exact; all tie-breaking follows ascending edge insertion
order, so results are deterministic functions of the build sequence.
"""

from __future__ import annotations

from dataclasses import dataclass


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
        cap = self.cap
        total = 0
        while True:
            pushed = self._blocking_flow(s, t, lambda u, arc: cap[arc] > 0)
            if pushed == 0:
                return total
            total += pushed

    def min_cost_max_flow(self, s: int, t: int) -> tuple[int, int]:
        """Successive shortest paths with potentials; returns (flow, cost).

        Requires non-negative arc costs, which keeps reduced costs valid.
        Each phase runs one shortest-path pass to update the potentials,
        then saturates every shortest augmenting path at once with a
        blocking flow over the zero-reduced-cost arcs; the phase count is
        bounded by the largest s-t path cost, which for the 0/1 costs used
        by the suite generators is the graph diameter plus two.  The
        returned cost is that of the network's final flow, summed over
        the forward arcs.
        """
        if any(c < 0 for c in self.cost[::2]):
            raise ValueError("negative arc costs are not supported")
        cap = self.cap
        cost = self.cost
        head = self.head
        potential = [0] * self.n

        def admissible(u: int, arc: int) -> bool:
            return cap[arc] > 0 and cost[arc] + potential[u] - potential[head[arc]] == 0

        total_flow = 0
        while True:
            dist = self._reduced_dijkstra(s, potential)
            if dist[t] is None:
                break
            for v in range(self.n):
                if dist[v] is not None:
                    potential[v] += dist[v]
            total_flow += self._blocking_flow(s, t, admissible)
        total_cost = sum(cost[a] * self.flow_of(a) for a in range(0, len(head), 2))
        return total_flow, total_cost

    def _reduced_dijkstra(self, s: int, potential: list[int]) -> list[int | None]:
        """Distances under reduced costs; bucket queue (costs are small ints)."""
        dist: list[int | None] = [None] * self.n
        dist[s] = 0
        buckets: dict[int, list[int]] = {0: [s]}
        pending = 1
        d = 0
        cap = self.cap
        cost = self.cost
        head = self.head
        adj = self.adj
        while pending:
            bucket = buckets.get(d)
            if not bucket:
                buckets.pop(d, None)
                d += 1
                continue
            u = bucket.pop()
            pending -= 1
            if dist[u] != d:
                continue  # stale entry
            pot_u = potential[u]
            for arc in adj[u]:
                if cap[arc] <= 0:
                    continue
                v = head[arc]
                nd = d + cost[arc] + pot_u - potential[v]
                if dist[v] is None or nd < dist[v]:
                    dist[v] = nd
                    buckets.setdefault(nd, []).append(v)
                    pending += 1
        return dist

    def _blocking_flow(self, s: int, t: int, admissible) -> int:
        """One Dinic phase over the arcs that ``admissible(u, arc)`` accepts.

        Builds BFS levels from ``s``, then pushes augmenting paths along
        arcs that climb one level, visiting each vertex's arcs in insertion
        order, until ``t`` is cut off.  Returns the units pushed.
        """
        cap = self.cap
        head = self.head
        adj = self.adj
        level = [-1] * self.n
        level[s] = 0
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for arc in adj[u]:
                    v = head[arc]
                    if level[v] < 0 and admissible(u, arc):
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
                path = []
                u = s
                continue
            advanced = False
            while it[u] < len(adj[u]):
                arc = adj[u][it[u]]
                v = head[arc]
                if level[v] == level[u] + 1 and admissible(u, arc):
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


@dataclass(frozen=True)
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
    and sink, and the helper max-flow must saturate all demands.  With
    ``minimize_cost`` the helper flow is solved min-cost, which minimizes
    sum(cost(e) * flow(e)) overall since the mandatory lower-bound units
    contribute a constant.
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
    if minimize_cost:
        pushed, _cost = net.min_cost_max_flow(super_s, super_t)
    else:
        pushed = net.max_flow(super_s, super_t)
    if pushed != need:
        raise InfeasibleCirculationError(f"lower bounds need {need} units, routed {pushed}")
    return [e.lower + net.flow_of(a) for e, a in zip(edges, arcs)]
