"""Spans around the calls into each actorcover layer, for the traced run.

The traced run drives the same CLI stages as the untraced one; ``install``
replaces the module attributes those stages call with wrappers that record
a span (name, start, end, parent span) per call.  The model handed to
``explore`` and the emulators returned by ``run_suite``'s and ``replay``'s
factories are wrapped in proxies, so model stepping and emulator steps get
spans too.  Spans are kept in flat arrays and written out when the run ends.

A span's self time is its duration minus the durations of its child spans
(calls are sequential, so children never overlap).  ``install`` is meant for
a process that exits after the run; it does not restore the originals.
"""

from __future__ import annotations

import gzip
import time
from array import array
from collections import defaultdict
from functools import partial
from pathlib import Path

# Every per-layer metric the traced run reports, with its unit.
LAYER_METRICS = {
    "explore.explore_s": "s",
    "explore.self_s": "s",
    "explore.quiescence_s": "s",
    "explore.states": "count",
    "explore.edges": "count",
    "explore.new_state_ratio": "ratio",
    "systems.enabled_actions_s": "s",
    "systems.apply_s": "s",
    "systems.apply_calls": "count",
    "systems.invariants_s": "s",
    "canon.loads_s": "s",
    "canon.dumps_s": "s",
    "canon.state_bytes": "bytes",
    "suitefile.write_graph_s": "s",
    "suitefile.read_graph_s": "s",
    "suitefile.write_suite_s": "s",
    "suitefile.read_suite_s": "s",
    "suitefile.graph_bytes": "bytes",
    "suitefile.suite_bytes": "bytes",
    "tsg.min_suite_s": "s",
    "tsg.self_s": "s",
    "tsg.verify_coverage_s": "s",
    "tsg.paths": "count",
    "tsg.steps": "count",
    "tsg.edges_per_step": "ratio",
    "flow.solve_circulation_s": "s",
    "flow.arcs": "count",
    "conformance.run_suite_s": "s",
    "conformance.self_s": "s",
    "conformance.prefix_share": "ratio",
    "conformance.failed_paths": "count",
    "conformance.replay_log_bytes": "bytes",
    "conformance.replay_s": "s",
    "actors.step_s": "s",
    "actors.steps": "count",
    # Untraced stage times and bytes written, from the run's untraced iterations.
    "cli.explore_s": "s",
    "cli.gensuite_s": "s",
    "cli.run_s": "s",
    "cli.disk_bytes": "bytes",
    # Traced time of the stage commands outside every layer call.
    "cli.self_s": "s",
    "trace.pipeline_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.seen: dict[str, list] = defaultdict(list)  # per-call observations for counts

    def call(self, name: str, fn, *args, **kwargs):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(index)
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            ended = time.perf_counter()
            self._stack.pop()
            self.start[index] = started
            self.end[index] = ended

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, summed duration and summed self time."""
        duration = [e - s for s, e in zip(self.start, self.end)]
        covered = [0.0] * len(duration)
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                covered[parent] += duration[index]
        out = {name: {"calls": 0, "total": 0.0, "self": 0.0} for name in self.names}
        for index, nid in enumerate(self.name_id):
            row = out[self.names[nid]]
            row["calls"] += 1
            row["total"] += duration[index]
            row["self"] += duration[index] - covered[index]
        return out

    def write(self, path: Path) -> None:
        """One line per span: index, name, parent index, start, end (seconds)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("index\tname\tparent\tstart\tend\n")
            for index, nid in enumerate(self.name_id):
                out.write(f"{index}\t{self.names[nid]}\t{self.parent[index]}\t"
                          f"{self.start[index]:.9f}\t{self.end[index]:.9f}\n")


class TracedModel:
    """Model proxy: spans around enabled_actions, apply and invariant checks."""

    def __init__(self, model, tracer: Tracer, invariant_type) -> None:
        self._model = model
        self._tracer = tracer
        self._invariant_type = invariant_type

    def __getattr__(self, name):
        return getattr(self._model, name)

    def enabled_actions(self, state):
        return self._tracer.call("systems.enabled_actions", self._model.enabled_actions, state)

    def apply(self, state, action):
        return self._tracer.call("systems.apply", self._model.apply, state, action)

    def invariants(self):
        return [
            self._invariant_type(inv.name, partial(self._tracer.call, "systems.invariants", inv.check))
            for inv in self._model.invariants()
        ]


class TracedEmulator:
    """Emulator proxy: a span around every step."""

    def __init__(self, emulator, tracer: Tracer) -> None:
        self._emulator = emulator
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._emulator, name)

    def step(self, action):
        return self._tracer.call("actors.step", self._emulator.step, action)


def _traced(tracer: Tracer, name: str, fn, wrap_args=None, observe=None):
    """Wrap ``fn`` in a span; ``observe`` keeps what the counts need, not the call's data."""

    def wrapper(*args, **kwargs):
        if wrap_args is not None:
            args = wrap_args(args)
        result = tracer.call(name, fn, *args, **kwargs)
        if observe is not None:
            tracer.seen[name].append(observe(args, kwargs, result))
        return result

    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap the layer functions the CLI stages and log replays call."""
    from actorcover import cli, conformance, suitefile, tsg
    from actorcover.model import Invariant

    def model_arg(args):
        return (TracedModel(args[0], tracer, Invariant), *args[1:])

    def factory_arg(position):
        def wrap(args):
            factory = args[position]
            return (*args[:position], lambda: TracedEmulator(factory(), tracer), *args[position + 1:])
        return wrap

    def explored(_args, _kwargs, result):
        graph = result.graph
        return graph.state_count, graph.edge_count, [state.key() for state in graph.states]

    def file_arg(args, _kwargs, _result):
        return str(args[0])

    def suite_sizes(args, _kwargs, suite):
        return len(args[0].edges), suite.path_count, suite.total_length

    def ran(args, kwargs, report):
        paths = None if tracer.seen.get("conformance.run_suite") else args[1].paths  # first run only
        return paths, sum(not v.passed for v in report.verdicts), kwargs.get("replay_dir")

    # `cli` imported these names directly, so its own bindings are replaced.
    cli.explore = _traced(tracer, "explore.explore", cli.explore, model_arg, explored)
    cli.check_quiescent_progress = _traced(
        tracer, "explore.quiescence", cli.check_quiescent_progress)
    cli.run_suite = _traced(tracer, "conformance.run_suite", cli.run_suite, factory_arg(0), ran)
    cli.ALGORITHMS["min"] = _traced(
        tracer, "tsg.min_suite", cli.ALGORITHMS["min"], observe=suite_sizes)
    conformance.replay = _traced(tracer, "conformance.replay", conformance.replay, factory_arg(1))
    # These are looked up through their module at call time.
    for attr, name in (
        ("write_graph_file", "suitefile.write_graph"),
        ("read_graph_file", "suitefile.read_graph"),
        ("write_suite_file", "suitefile.write_suite"),
        ("read_suite_file", "suitefile.read_suite"),
    ):
        setattr(suitefile, attr, _traced(tracer, name, getattr(suitefile, attr), observe=file_arg))
    tsg.verify_coverage = _traced(tracer, "tsg.verify_coverage", tsg.verify_coverage)
    tsg.solve_circulation = _traced(
        tracer, "flow.solve_circulation", tsg.solve_circulation,
        observe=lambda args, _kwargs, _result: len(args[1]))


def canon_probe(texts: list[str], chunk: int = 4096) -> dict[str, float]:
    """Time canon.loads over state texts, then canon.dumps over the values.

    Works in chunks so the parsed values of a large graph are never all alive.
    """
    from actorcover import canon

    loads_s = dumps_s = 0.0
    for lo in range(0, len(texts), chunk):
        started = time.perf_counter()
        values = [canon.loads(text) for text in texts[lo:lo + chunk]]
        loaded = time.perf_counter()
        for value in values:
            canon.dumps(value)
        dumps_s += time.perf_counter() - loaded
        loads_s += loaded - started
    return {
        "canon.loads_s": loads_s,
        "canon.dumps_s": dumps_s,
        "canon.state_bytes": sum(len(text.encode("utf-8")) for text in texts),
    }


def state_texts(tracer: Tracer, graph_file: str | None) -> list[str]:
    """State texts of the explored graph, else the S-line texts of its graph file.

    Both are the same strings: a graph file's S lines hold ``state.key()``.
    """
    explored = tracer.seen.get("explore.explore")
    if explored:
        return explored[-1][2]
    if graph_file is None:
        return []
    with open(graph_file, encoding="utf-8") as handle:
        return [line.rstrip("\n").split("\t", 2)[2] for line in handle if line.startswith("S\t")]


def _prefix_share(paths) -> float:
    """Distinct path prefixes divided by steps, over (action, dest) step lists."""
    trie: dict[tuple, int] = {}
    steps = 0
    for path in paths:
        node = 0
        for step in path:
            key = (node, step)
            child = trie.get(key)
            if child is None:
                child = trie[key] = len(trie) + 1
            node = child
        steps += len(path)
    return len(trie) / steps if steps else 0.0


def _file_bytes(path) -> int:
    path = Path(path)
    if path.is_dir():
        return sum(f.stat().st_size for f in path.iterdir())
    return path.stat().st_size if path.exists() else 0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of the traced pass (everything but cli.* stage times)."""
    totals = tracer.totals()
    seen = tracer.seen

    def span(name: str, field: str = "total") -> float:
        return totals.get(name, {}).get(field, 0)

    out = {
        "explore.explore_s": span("explore.explore"),
        "explore.self_s": span("explore.explore", "self"),
        "explore.quiescence_s": span("explore.quiescence"),
        "systems.enabled_actions_s": span("systems.enabled_actions"),
        "systems.apply_s": span("systems.apply"),
        "systems.apply_calls": span("systems.apply", "calls"),
        "systems.invariants_s": span("systems.invariants"),
        "suitefile.write_graph_s": span("suitefile.write_graph"),
        "suitefile.read_graph_s": span("suitefile.read_graph"),
        "suitefile.write_suite_s": span("suitefile.write_suite"),
        "suitefile.read_suite_s": span("suitefile.read_suite"),
        "tsg.min_suite_s": span("tsg.min_suite"),
        "tsg.self_s": span("tsg.min_suite", "self"),
        "tsg.verify_coverage_s": span("tsg.verify_coverage"),
        "flow.solve_circulation_s": span("flow.solve_circulation"),
        "conformance.run_suite_s": span("conformance.run_suite"),
        "conformance.self_s": span("conformance.run_suite", "self"),
        "conformance.replay_s": span("conformance.replay"),
        "actors.step_s": span("actors.step"),
        "actors.steps": span("actors.step", "calls"),
        "cli.self_s": sum(row["self"] for name, row in totals.items() if name.startswith("cli.")),
    }

    explored = seen.get("explore.explore", [])
    out["explore.states"] = sum(states for states, _edges, _keys in explored)
    out["explore.edges"] = sum(edges for _states, edges, _keys in explored)
    apply_calls = out["systems.apply_calls"]
    out["explore.new_state_ratio"] = out["explore.states"] / apply_calls if apply_calls else 0.0

    for kind in ("graph", "suite"):
        files = set(seen.get(f"suitefile.write_{kind}", []) + seen.get(f"suitefile.read_{kind}", []))
        out[f"suitefile.{kind}_bytes"] = sum(_file_bytes(f) for f in files)

    suites = seen.get("tsg.min_suite", [])
    out["tsg.paths"] = sum(paths for _edges, paths, _steps in suites)
    out["tsg.steps"] = sum(steps for _edges, _paths, steps in suites)
    edges = sum(edges for edges, _paths, _steps in suites)
    out["tsg.edges_per_step"] = edges / out["tsg.steps"] if out["tsg.steps"] else 0.0

    out["flow.arcs"] = sum(seen.get("flow.solve_circulation", []))

    runs = seen.get("conformance.run_suite", [])
    out["conformance.prefix_share"] = _prefix_share(runs[0][0]) if runs else 0.0
    out["conformance.failed_paths"] = sum(failed for _paths, failed, _dir in runs)
    out["conformance.replay_log_bytes"] = sum(_file_bytes(d) for _paths, _failed, d in runs if d)
    return out
