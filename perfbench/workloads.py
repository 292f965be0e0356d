"""The benchmark's workloads: model bounds and the CLI stages each one runs.

Every stage is single-threaded (``explore --workers 1``, ``run --jobs 1``).
Stage files are named relative to the iteration's working directory, so a
run report, which lists its replay-log paths, is byte-identical across
iterations and runs.  Why each workload was chosen is in README.md.
"""

from __future__ import annotations

from dataclasses import dataclass

MUTANTS = ("skip-commit", "no-commit-broadcast", "prepend-entry", "stale-prepare", "keep-phase2")

GRAPH = "graph.ac1"
SUITE = "suite.ac1"
PREPARED = "../prep"  # an iteration's path to the run's prepared graph and suite

VR_DEEP = ("--replicas", "2", "--max-queries", "2", "--max-views", "1")


@dataclass(frozen=True)
class Workload:
    """Stage kinds: ``explore`` (writes the graph), ``check`` (explore, no
    file), ``gensuite`` (min suite), ``run`` (correct implementation) and
    ``mutants`` (every seeded mutant, then one replayed log per kill)."""

    name: str
    model: str
    bounds: tuple[str, ...]
    prepare: tuple[str, ...]  # run once per benchmark run, before timing
    timed: tuple[str, ...]  # run and timed in every iteration

    @property
    def graph_file(self) -> str | None:
        """The graph file an iteration can read, if the workload writes one."""
        if "explore" in self.timed:
            return GRAPH
        if "explore" in self.prepare:
            return f"{PREPARED}/{GRAPH}"
        return None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("vr-deep", "vr", VR_DEEP, (), ("explore", "gensuite", "run")),
        Workload(
            "kv-wide",
            "kv",
            ("--replicas", "3", "--max-queries", "2", "--faults", "crash,drop"),
            (),
            ("explore", "gensuite", "run"),
        ),
        Workload("vr-mutants", "vr", VR_DEEP, ("explore", "gensuite"), ("mutants",)),
        Workload(
            "vr-check", "vr", ("--replicas", "3", "--max-queries", "1", "--max-views", "1"),
            (), ("check",),
        ),
        # The benchmark's own quick case: 310 states, every stage kind.
        Workload(
            "smoke", "vr", ("--replicas", "2", "--max-queries", "1", "--max-views", "1"),
            (), ("explore", "gensuite", "run", "mutants"),
        ),
    )
}

BENCHMARKED = ("vr-deep", "kv-wide", "vr-mutants", "vr-check")


def stages(workload: Workload, kinds: tuple[str, ...]) -> list[dict]:
    """Expand stage kinds into stage records for the iteration process.

    ``metric`` names the stage time each record adds to: ``explore_s``,
    ``gensuite_s`` or ``run_s`` (mutant runs and log replays included).
    """
    suite = SUITE if "gensuite" in kinds else f"{PREPARED}/{SUITE}"
    out: list[dict] = []
    for kind in kinds:
        if kind in ("explore", "check"):
            argv = ["explore", "--model", workload.model, *workload.bounds, "--workers", "1"]
            if kind == "explore":
                argv += ["--out", GRAPH]
            out.append({"label": "explore", "metric": "explore_s", "argv": argv})
        elif kind == "gensuite":
            argv = ["gensuite", "--graph", GRAPH, "--algorithm", "min", "--out", SUITE]
            out.append({"label": "gensuite", "metric": "gensuite_s", "argv": argv})
        elif kind == "run":
            argv = ["run", "--model", workload.model, "--suite", suite, "--jobs", "1",
                    "--out", "report.json"]
            out.append({"label": "run", "metric": "run_s", "argv": argv, "report": "report.json"})
        elif kind == "mutants":
            for mutant in MUTANTS:
                argv = ["run", "--model", workload.model, "--suite", suite, "--jobs", "1",
                        "--mutant", mutant, "--replay-log", f"logs-{mutant}",
                        "--out", f"report-{mutant}.json"]
                out.append({"label": f"run:{mutant}", "metric": "run_s", "argv": argv,
                            "report": f"report-{mutant}.json", "logs": f"logs-{mutant}"})
            # `actorcover replay` has no --mutant option, so a log is replayed
            # through conformance.replay with the mutant's emulator factory.
            for mutant in MUTANTS:
                out.append({"label": f"replay:{mutant}", "metric": "run_s", "model": workload.model,
                            "mutant": mutant, "logs": f"logs-{mutant}",
                            "report": f"report-{mutant}.json"})
        else:
            raise ValueError(f"unknown stage kind {kind!r}")
    return out
