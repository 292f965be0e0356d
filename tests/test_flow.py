import random

import pytest

from actorcover.flow import (
    BoundedEdge,
    FlowNetwork,
    InfeasibleCirculationError,
    solve_circulation,
)
from oracles import feasible_circulation_exists, ford_fulkerson_unit, min_circulation_cost


def test_single_edge():
    net = FlowNetwork(2)
    net.add_edge(0, 1, 5)
    assert net.max_flow(0, 1) == 5


def test_two_disjoint_paths():
    net = FlowNetwork(6)
    net.add_edge(0, 1, 3)
    net.add_edge(1, 2, 7)
    net.add_edge(2, 5, 3)
    net.add_edge(0, 3, 4)
    net.add_edge(3, 4, 4)
    net.add_edge(4, 5, 9)
    assert net.max_flow(0, 5) == 7


def test_bottleneck_in_middle():
    net = FlowNetwork(4)
    net.add_edge(0, 1, 10)
    net.add_edge(1, 2, 1)
    net.add_edge(2, 3, 10)
    assert net.max_flow(0, 3) == 1


def random_network(rng, n_max=8, cap_max=10):
    n = rng.randint(2, n_max)
    m = rng.randint(1, 2 * n)
    edges = []
    for _ in range(m):
        u, v = rng.randint(0, n - 1), rng.randint(0, n - 1)
        if u != v:
            edges.append((u, v, rng.randint(0, cap_max)))
    return n, edges


def test_max_flow_matches_unit_augmentation_oracle():
    rng = random.Random(4242)
    for trial in range(600):
        n, edges = random_network(rng)
        s, t = 0, n - 1
        net = FlowNetwork(n)
        for u, v, c in edges:
            net.add_edge(u, v, c)
        got = net.max_flow(s, t)
        want = ford_fulkerson_unit(n, edges, s, t)
        assert got == want, f"trial {trial}: {edges}"


def test_forced_two_cycle_circulation():
    edges = [BoundedEdge(0, 1, 1, 5), BoundedEdge(1, 0, 1, 5)]
    assert solve_circulation(2, edges) == [1, 1]


def test_self_loop_without_lower_bound_stays_empty():
    edges = [BoundedEdge(0, 0, 0, 3)]
    assert solve_circulation(1, edges) == [0]


def test_infeasible_lower_bounds_detected():
    # One unit must leave vertex 1 but nothing may enter it.
    edges = [BoundedEdge(1, 0, 1, 1), BoundedEdge(0, 1, 0, 0)]
    with pytest.raises(InfeasibleCirculationError):
        solve_circulation(2, edges)


def _check_circulation(n, bounded, flows):
    balance = [0] * n
    for e, f in zip(bounded, flows):
        assert e.lower <= f <= e.cap
        balance[e.source] -= f
        balance[e.destination] += f
    assert all(b == 0 for b in balance)


def test_circulation_against_exhaustive_feasibility_oracle():
    rng = random.Random(7)
    agree = 0
    for _ in range(120):
        n = rng.randint(2, 6)
        m = rng.randint(1, 7)
        raw = []
        for _ in range(m):
            u, v = rng.randint(0, n - 1), rng.randint(0, n - 1)
            lo = rng.randint(0, 2)
            hi = lo + rng.randint(0, 2)
            raw.append((u, v, lo, hi))
        oracle = feasible_circulation_exists(n, raw)
        bounded = [BoundedEdge(u, v, lo, hi) for u, v, lo, hi in raw]
        try:
            flows = solve_circulation(n, bounded)
        except InfeasibleCirculationError:
            assert not oracle
            continue
        assert oracle
        _check_circulation(n, bounded, flows)
        agree += 1
    assert agree > 20  # both feasible and infeasible cases were exercised


def test_min_cost_circulation_is_cheaper_or_equal():
    rng = random.Random(13)
    for _ in range(80):
        n = rng.randint(2, 6)
        m = rng.randint(2, 8)
        bounded = []
        for _ in range(m):
            u, v = rng.randint(0, n - 1), rng.randint(0, n - 1)
            lo = rng.randint(0, 1)
            bounded.append(BoundedEdge(u, v, lo, lo + rng.randint(1, 3), rng.randint(0, 2)))
        try:
            cheap = solve_circulation(n, bounded, minimize_cost=True)
        except InfeasibleCirculationError:
            continue
        plain = solve_circulation(n, bounded, minimize_cost=False)
        _check_circulation(n, bounded, cheap)
        _check_circulation(n, bounded, plain)
        assert _cost(bounded, cheap) <= _cost(bounded, plain)


def _cost(bounded, flows):
    return sum(e.cost * f for e, f in zip(bounded, flows))


def test_min_cost_circulation_matches_exhaustive_oracle():
    rng = random.Random(1967)
    feasible = 0
    for trial in range(300):
        n = rng.randint(1, 5)
        raw = []
        for _ in range(rng.randint(1, 6)):
            lo = rng.randint(0, 1)
            raw.append((rng.randint(0, n - 1), rng.randint(0, n - 1), lo,
                        lo + rng.randint(0, 2), rng.randint(-2, 3)))
        oracle = min_circulation_cost(n, raw)
        bounded = [BoundedEdge(*edge) for edge in raw]
        try:
            flows = solve_circulation(n, bounded, minimize_cost=True)
        except InfeasibleCirculationError:
            assert oracle is None, f"trial {trial}: {raw}"
            continue
        _check_circulation(n, bounded, flows)
        assert _cost(bounded, flows) == oracle, f"trial {trial}: {raw}"
        feasible += 1
    assert feasible >= 100


@pytest.mark.parametrize("bounded, plain_cost, min_cost", [
    # One unit must go 1 -> 0: Dinic takes the first return arc, the dear one.
    ([BoundedEdge(0, 1, 1, 1), BoundedEdge(1, 0, 0, 1, 5), BoundedEdge(1, 0, 0, 1)], 5, 0),
    # No lower bound at all: Dinic routes nothing round the negative triangle.
    ([BoundedEdge(0, 1, 0, 2, -1), BoundedEdge(1, 2, 0, 3, -1), BoundedEdge(2, 0, 0, 2, 1)], 0, -2),
    # A negative cycle that vertex 0 cannot reach: its own search settles at once.
    ([BoundedEdge(1, 2, 0, 2, -1), BoundedEdge(2, 1, 0, 2, -1)], 0, -4),
], ids=["dear-return-arc", "negative-triangle", "cycle-unreached-from-vertex-0"])
def test_cancelling_lowers_the_cost_of_the_dinic_circulation(bounded, plain_cost, min_cost):
    n = 1 + max(max(e.source, e.destination) for e in bounded)
    plain = solve_circulation(n, bounded)
    cheap = solve_circulation(n, bounded, minimize_cost=True)
    _check_circulation(n, bounded, cheap)
    assert _cost(bounded, plain) == plain_cost
    assert _cost(bounded, cheap) == min_cost


def test_the_search_from_vertex_0_never_misses_a_negative_cycle():
    # Arbitrary residual networks: whenever the search from vertex 0 alone
    # certifies that none exists, the search from every vertex finds none,
    # and after cancelling none is left either way.
    rng = random.Random(1993)
    certified = 0
    for trial in range(2000):
        n = rng.randint(1, 6)
        net = FlowNetwork(n)
        for _ in range(rng.randint(0, 10)):
            arc = net.add_edge(rng.randrange(n), rng.randrange(n), rng.randint(0, 2),
                               rng.randint(-2, 3))
            net.cap[arc ^ 1] = rng.randint(0, 1)  # some flow already on the arc
        searches = []
        search = net._negative_cycle
        net._negative_cycle = lambda starts: searches.append(list(starts)) or search(starts)
        net.cancel_negative_cycles()
        assert search(range(n))[0] == [], f"trial {trial}"
        certified += searches == [[0]]
    assert 300 < certified < 1700
