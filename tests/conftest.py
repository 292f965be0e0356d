import gc

import pytest

from actorcover.explore import explore
from actorcover.suitefile import read_header, read_suite_file, write_graph_file, write_suite_file
from actorcover.systems.kv import KvBounds, KvModel, make_emulator as kv_emulator
from actorcover.systems.vr import VrBounds, VrModel, make_emulator as vr_emulator
from actorcover.tsg import min_suite

VR_BOUNDS = VrBounds(replicas=2, max_queries=1, max_views=1)
KV_BOUNDS = KvBounds(actors=3, max_sets=1)

# The benchmark's two explored bounds (vr-deep and kv-wide).
BENCH_MODELS = {
    "vr-r2-q2-v1": lambda: VrModel(VrBounds(replicas=2, max_queries=2, max_views=1)),
    "kv-a3-s2-crash-drop": lambda: KvModel(
        KvBounds(actors=3, max_sets=2, allow_crash=True, allow_drop=True)),
}


def _suite_file(tmp_path, model, graph, suite):
    graph_path = tmp_path / f"{model.name}.graph"
    write_graph_file(graph_path, model.name, model.bounds_value(), graph)
    out = tmp_path / f"{model.name}.suite"
    write_suite_file(out, graph_path, read_header(graph_path), suite)
    return read_suite_file(out)


@pytest.fixture
def collector_enabled():
    """The collector on at the start of a test, and as it was after it."""
    was = gc.isenabled()
    gc.enable()
    yield
    (gc.enable if was else gc.disable)()


@pytest.fixture(scope="session")
def vr_graph():
    model = VrModel(VR_BOUNDS)
    result = explore(model)
    assert not result.violations
    return model, result.graph


@pytest.fixture(scope="session")
def vr_min_suite(vr_graph, tmp_path_factory):
    model, graph = vr_graph
    suite = min_suite(graph.cover_graph())
    return _suite_file(tmp_path_factory.mktemp("vr"), model, graph, suite)


@pytest.fixture(scope="session")
def vr_factory():
    return lambda: vr_emulator(VR_BOUNDS)


@pytest.fixture(scope="session")
def kv_graph():
    model = KvModel(KV_BOUNDS)
    result = explore(model)
    assert not result.violations
    return model, result.graph


@pytest.fixture(scope="session")
def kv_min_suite(kv_graph, tmp_path_factory):
    model, graph = kv_graph
    suite = min_suite(graph.cover_graph())
    return _suite_file(tmp_path_factory.mktemp("kv"), model, graph, suite)


@pytest.fixture(scope="session")
def kv_factory():
    return lambda: kv_emulator(KV_BOUNDS)


@pytest.fixture(scope="session")
def bench_graph():
    """Explore a benchmark bound once per session: name -> (model, graph)."""
    explored = {}

    def get(name):
        if name not in explored:
            model = BENCH_MODELS[name]()
            explored[name] = model, explore(model).graph
        return explored[name]

    return get
