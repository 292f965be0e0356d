import hashlib
import random

import pytest

from actorcover.flow import FlowNetwork
from actorcover.tsg import (
    CoverGraph,
    MalformedPathError,
    TestSuite,
    UnbalancedDegreeError,
    UnreachableVertexError,
    baseline_suite,
    diameter,
    euler_circuit,
    flow_suite,
    min_suite,
    verify_coverage,
)
from conftest import BENCH_MODELS
from oracles import min_total_cover_length, random_cover_graph

CHAIN = CoverGraph(3, [(1, 2), (2, 3)])
STAR5 = CoverGraph(6, [(1, k) for k in range(2, 7)])

# Two parallel start edges, a shared bridge, then a chain and a spur: the
# smallest graph where node coverage alone misses an edge.
FORK = CoverGraph(
    7,
    [
        (1, 2),  # E1
        (1, 2),  # E2 (parallel)
        (2, 3),  # E3 (bridge, needed twice)
        (3, 4),  # E4
        (4, 5),  # E5
        (5, 6),  # E6
        (3, 7),  # E7
    ],
)


def test_diameter_chain():
    assert diameter(CHAIN) == 2


def test_diameter_three_edge_chain():
    assert diameter(CoverGraph(4, [(1, 2), (2, 3), (3, 4)])) == 3


def test_diameter_single_vertex():
    assert diameter(CoverGraph(1, [])) == 0


def test_diameter_star():
    assert diameter(STAR5) == 1


def test_diameter_unreachable_vertex():
    with pytest.raises(UnreachableVertexError):
        diameter(CoverGraph(3, [(1, 2)]))


def test_baseline_chain():
    suite = baseline_suite(CHAIN)
    assert suite.paths == [[0], [0, 1]]
    assert suite.total_length == 3


def test_baseline_star():
    suite = baseline_suite(STAR5)
    assert suite.path_count == 5
    assert all(len(p) == 1 for p in suite.paths)


def test_baseline_one_path_per_edge_and_bound():
    rng = random.Random(5)
    for _ in range(50):
        graph = random_cover_graph(rng, 12, 30)
        suite = baseline_suite(graph)
        assert suite.path_count == len(graph.edges)
        report = verify_coverage(graph, suite)
        assert report.ok
        assert report.total_length <= report.length_bound


def test_baseline_fork_has_seven_paths():
    assert baseline_suite(FORK).path_count == 7


def test_euler_triangle():
    circuit = euler_circuit(3, [(1, 2), (2, 3), (3, 1)], [1, 1, 1], 1)
    assert circuit == [0, 1, 2]


def test_euler_two_loops_sharing_source():
    edges = [(1, 2), (2, 1), (1, 3), (3, 1)]
    circuit = euler_circuit(4, edges, [1, 1, 1, 1], 1)
    assert sorted(circuit) == [0, 1, 2, 3]
    assert len(circuit) == 4


def test_euler_unbalanced_rejected():
    with pytest.raises(UnbalancedDegreeError):
        euler_circuit(2, [(1, 2)], [1], 1)


def test_euler_uses_the_copies_of_an_edge_one_after_another():
    assert euler_circuit(2, [(1, 1), (1, 2), (2, 1)], [3, 1, 1], 1) == [0, 0, 0, 1, 2]
    # Back at vertex 1, edge 0's second copy comes before edge 2.
    edges = [(1, 2), (2, 1), (2, 3), (3, 1), (1, 3)]
    assert euler_circuit(3, edges, [2, 1, 1, 1, 0], 1) == [0, 1, 0, 2, 3]


def test_euler_ignores_an_unreachable_edge_of_count_0():
    assert euler_circuit(4, [(3, 4), (1, 2), (2, 1)], [0, 1, 1], 1) == [1, 2]


def test_euler_rejects_counts_that_unbalance_a_vertex():
    with pytest.raises(UnbalancedDegreeError):
        euler_circuit(3, [(1, 2), (2, 3), (3, 1)], [2, 1, 1], 1)


def test_euler_rejects_a_used_edge_out_of_reach():
    with pytest.raises(UnreachableVertexError):
        euler_circuit(3, [(1, 2), (2, 1), (3, 3)], [1, 1, 2], 1)


def test_flow_suite_chain_single_path():
    suite = flow_suite(CHAIN)
    assert suite.paths == [[0, 1]]
    assert suite.total_length == 2


def test_min_suite_chain():
    suite = min_suite(CHAIN)
    assert suite.path_count == 1
    assert suite.total_length == 2


def test_star_suites_meet_lower_bound():
    for generator in (flow_suite, min_suite):
        suite = generator(STAR5)
        assert suite.path_count == 5
        assert suite.total_length == 5


def test_fork_minimum_is_eight():
    # All seven edges, with the bridge traversed once per start edge.
    suite = min_suite(FORK)
    report = verify_coverage(FORK, suite)
    assert report.ok
    assert suite.total_length == 8
    covered = {frozenset(p) for p in suite.paths}
    assert covered == {frozenset({0, 2, 3, 4, 5}), frozenset({1, 2, 6})}


def test_flow_suite_fork_covers_everything():
    report = verify_coverage(FORK, flow_suite(FORK))
    assert report.ok


def test_verify_coverage_reports_missing_edge():
    suite = TestSuite([[0]])
    report = verify_coverage(CHAIN, suite)
    assert report.uncovered == [1]
    assert not report.ok


def test_verify_coverage_rejects_broken_chain():
    with pytest.raises(MalformedPathError):
        verify_coverage(CHAIN, TestSuite([[1]]))  # does not start at source


def test_min_suite_total_length_at_least_edge_count():
    rng = random.Random(11)
    for _ in range(60):
        graph = random_cover_graph(rng, 10, 25)
        suite = min_suite(graph)
        assert suite.total_length >= len(graph.edges)
        assert verify_coverage(graph, suite).ok


def test_suite_ordering_min_flow_baseline():
    rng = random.Random(23)
    for _ in range(120):
        graph = random_cover_graph(rng, 15, 40)
        lengths = [
            min_suite(graph).total_length,
            flow_suite(graph).total_length,
            baseline_suite(graph).total_length,
        ]
        assert lengths[0] <= lengths[1] <= lengths[2]


def test_min_suite_matches_exhaustive_search():
    rng = random.Random(301)
    checked = 0
    while checked < 80:
        graph = random_cover_graph(rng, 5, 7)
        if len(graph.edges) > 7:
            continue
        expected = min_total_cover_length(graph.n, graph.edges, 1)
        suite = min_suite(graph)
        assert verify_coverage(graph, suite).ok
        assert suite.total_length == expected, f"edges={graph.edges}"
        checked += 1


def test_generators_are_deterministic():
    rng = random.Random(77)
    graph = random_cover_graph(rng, 12, 30)
    for generator in (baseline_suite, flow_suite, min_suite):
        assert generator(graph).paths == generator(graph).paths


def test_self_loops_and_edges_into_source_are_covered():
    graph = CoverGraph(3, [(1, 1), (1, 2), (2, 1), (2, 3), (3, 3), (3, 1)])
    for generator in (baseline_suite, flow_suite, min_suite):
        assert verify_coverage(graph, generator(graph)).ok


# sha256 of each generator's edge-id paths, one "id id ...\n" line per path,
# as produced before the two Dinic blocking-flow copies in ``flow`` were
# merged.  The vr graph is the conftest one (310 states); the random graphs
# are where the flow suite and the min suite differ (66 of 200 here).  The
# random min digest was re-taken when min suites became the Dinic flow with
# its negative cycles cancelled: on 16 of the 200 graphs that flow differs
# from the one successive shortest paths gave, at the same total length
# (RANDOM_MIN_LENGTHS_DIGEST below).
SUITE_DIGESTS = {
    ("vr", "baseline"): "d736b30fdd61bb400957661b77689c648e820e59ac91e50c1fcb539409307222",
    ("vr", "flow"): "1ec09d789fdee90cc102c2d0d7077604d3f54c1f5b9fd686333e354e78f28bc0",
    ("vr", "min"): "1ec09d789fdee90cc102c2d0d7077604d3f54c1f5b9fd686333e354e78f28bc0",
    ("kv", "baseline"): "8138747b7559de2506f53d7bcb721feb6b1b0cd12b59401416650835785d755a",
    ("kv", "flow"): "1237d6a747595a0a7bbb2e6e1d6bc7a444dea50bd381116a2757c232ac19304a",
    ("kv", "min"): "1237d6a747595a0a7bbb2e6e1d6bc7a444dea50bd381116a2757c232ac19304a",
    ("random", "baseline"): "23372cc5e9da02cdd6e732876e5d10eabcdf982cebd0dbd5aaa0979af30b267a",
    ("random", "flow"): "9b117d463c969f8e08ab96634bd1283993de41444f337e3e8953f659ebd31881",
    ("random", "min"): "549bedb5a3bacbd31aef5af10990c8128d0839a58ea249a986ba0a4a8415f8c5",
}
GENERATORS = {"baseline": baseline_suite, "flow": flow_suite, "min": min_suite}


def _cover(explored):
    _model, graph = explored
    return graph.cover_graph()


def _update(digest, suite: TestSuite) -> None:
    for path in suite.paths:
        digest.update((" ".join(map(str, path)) + "\n").encode("ascii"))


@pytest.mark.parametrize("graph_name", ["vr", "kv", "random"])
@pytest.mark.parametrize("algorithm", sorted(GENERATORS))
def test_suites_are_pinned_path_for_path(request, graph_name, algorithm):
    generate = GENERATORS[algorithm]
    digest = hashlib.sha256()
    if graph_name == "random":
        rng = random.Random(2512)
        for _ in range(200):
            _update(digest, generate(random_cover_graph(rng, 12, 30)))
            digest.update(b"\n")
    else:
        _update(digest, generate(_cover(request.getfixturevalue(f"{graph_name}_graph"))))
    assert digest.hexdigest() == SUITE_DIGESTS[graph_name, algorithm]


@pytest.mark.parametrize("name", ["vr", "kv"])
def test_explored_min_suites_are_certified_by_one_search_from_the_initial_state(
        request, monkeypatch, name):
    # Every state is reached from state 1, so no search from every vertex is needed.
    search = FlowNetwork._negative_cycle

    def search_from_vertex_0(self, starts):
        assert starts == [0], "the search from vertex 0 did not settle"
        return search(self, starts)

    monkeypatch.setattr(FlowNetwork, "_negative_cycle", search_from_vertex_0)
    cover = _cover(request.getfixturevalue(f"{name}_graph"))
    assert min_suite(cover).total_length == flow_suite(cover).total_length


# sha256 of the 200 random min suites' total lengths, one decimal per line,
# taken with the successive-shortest-path solver: no min suite may get longer.
RANDOM_MIN_LENGTHS_DIGEST = "0b7f00963af5b9e7bff438f8e4e91b70abd11003a0dcbd335eb2e4a369e3b4e2"


def test_random_min_suite_lengths_are_pinned():
    rng = random.Random(2512)
    lengths = "".join(
        f"{min_suite(random_cover_graph(rng, 12, 30)).total_length}\n" for _ in range(200))
    assert hashlib.sha256(lengths.encode("ascii")).hexdigest() == RANDOM_MIN_LENGTHS_DIGEST


# sha256 of the min suites' paths for the benchmark's explored bounds, in the
# format of SUITE_DIGESTS, taken with the successive-shortest-path solver.
BENCH_MIN_DIGESTS = {
    "vr-r2-q2-v1": "ed9ba59f4b61457ca66968eeabe423add6205bb790107e11e094fbc2cfd5fb80",
    "kv-a3-s2-crash-drop": "f51604c0f59e275edf8998ec0e2bae927d98ab5c5cc0fac470038cc2cbe3f4cf",
}


@pytest.mark.parametrize("name", sorted(BENCH_MODELS))
def test_bench_min_suites_are_pinned_and_equal_their_flow_suites(bench_graph, name):
    cover = bench_graph(name)[1].cover_graph()
    suite = min_suite(cover)
    assert suite.paths == flow_suite(cover).paths
    digest = hashlib.sha256()
    _update(digest, suite)
    assert digest.hexdigest() == BENCH_MIN_DIGESTS[name]
