"""Command-line pipeline: explore, gensuite, run, replay, stats.

Exit codes: 0 success, 1 verification failure (invariant violations or
non-passing paths), 2 usage or input-format errors.  All file outputs are
byte-deterministic for identical inputs and flags; wall-clock figures are
printed to the console only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

from . import canon, dot, suitefile, tsg
from .conformance import (
    LogVersionMismatchError,
    read_replay_log,
    replay,
    run_suite,
)
from .explore import StateCapExceededError, check_quiescent_progress, explore
from .suitefile import MalformedInputError
from .systems import REGISTRY, get_system

USAGE_ERROR = 2
VERIFY_ERROR = 1

ALGORITHMS = {
    "baseline": tsg.baseline_suite,
    "flow": tsg.flow_suite,
    "min": tsg.min_suite,
}


SINGLE_THREADED = ("only 1 is accepted: parallel runs were removed because "
                   "they were slower than one worker")


def _bounds_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--replicas", type=int, default=3, help="actor/replica count")
    parser.add_argument("--max-queries", type=int, default=1,
                        help="client request bound (kv: number of SETs)")
    parser.add_argument("--max-views", type=int, default=1,
                        help="view change bound (vr only)")
    parser.add_argument("--max-gets", type=int, default=0, help="GET bound (kv only)")
    parser.add_argument("--faults", default="",
                        help="comma list of kv fault actions: crash,drop,corrupt")


def _make_bounds(spec, args):
    faults = tuple(f for f in args.faults.split(",") if f)
    return spec.make_bounds(
        replicas=args.replicas,
        max_queries=args.max_queries,
        max_views=args.max_views,
        max_gets=args.max_gets,
        faults=faults,
    )


def cmd_explore(args) -> int:
    try:
        spec = get_system(args.model)
        bounds = _make_bounds(spec, args)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    model = spec.make_model(bounds)
    started = time.perf_counter()
    try:
        result = explore(model, max_states=args.max_states)
    except StateCapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(canon.dumps({"states": exc.states, "edges": exc.edges, "cap": exc.cap}))
        return USAGE_ERROR
    elapsed = time.perf_counter() - started
    graph = result.graph

    if result.violations:
        first = result.violations[0]
        print(f"invariant {first.name} violated at state {first.state_index}: {first.detail}")
        print("shortest counterexample path from state 1:")
        for action, dest in result.counterexample:
            print(f"  {action.key()} -> state {dest}")
        return VERIFY_ERROR

    quiescence = check_quiescent_progress(graph, model)
    if quiescence.violations:
        first = quiescence.violations[0]
        print(f"quiescent sink {first.state_index} violates progress: {first.detail}")
        return VERIFY_ERROR
    if quiescence.no_sinks:
        print("warning: graph has no sinks; quiescence holds vacuously", file=sys.stderr)

    if args.out:
        suitefile.write_graph_file(args.out, spec.name, model.bounds_value(), graph)
    if args.dot:
        Path(args.dot).write_text(dot.export_dot(graph), encoding="utf-8", newline="\n")
    stats = dict(graph.stats_value())
    stats["explore_seconds"] = round(elapsed, 3)
    print(json.dumps(stats, sort_keys=True))
    return 0


def cmd_gensuite(args) -> int:
    algorithm = ALGORITHMS[args.algorithm]
    path = Path(args.graph)
    try:
        with open(path, "rb") as handle:
            first = handle.readline()
        if first.lstrip().startswith(suitefile.FORMAT_VERSION.encode("ascii")):
            graph_file = suitefile.read_graph_file(path)
            graph, cover = graph_file.header, graph_file.cover_graph()
        else:
            data = path.read_bytes()
            cover = suitefile.parse_edge_list(data.decode("utf-8"))
            digest = hashlib.sha256(data).hexdigest()
            graph = suitefile.Header("edges", "none", canon.Record(), canon.Record(), digest)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except MalformedInputError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return USAGE_ERROR
    started = time.perf_counter()
    suite = algorithm(cover)
    elapsed = time.perf_counter() - started
    report = tsg.verify_coverage(cover, suite)
    if not report.ok:
        print(f"error: {len(report.uncovered)} edges uncovered: {report.uncovered[:10]}",
              file=sys.stderr)
        return VERIFY_ERROR
    if args.out:
        suitefile.write_suite_file(args.out, path, graph, suite)
    rate = suite.path_count / elapsed if elapsed > 0 else float("inf")
    print(
        json.dumps(
            {
                "algorithm": args.algorithm,
                "paths": suite.path_count,
                "total_length": suite.total_length,
                "length_bound": report.length_bound,
                "gen_seconds": round(elapsed, 4),
                "paths_per_second": round(rate, 1),
            },
            sort_keys=True,
        )
    )
    return 0


def cmd_run(args) -> int:
    try:
        spec = get_system(args.model)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        suite = suitefile.read_suite_file(args.suite)
    except MalformedInputError as exc:
        print(f"error: {args.suite}: {exc}", file=sys.stderr)
        return USAGE_ERROR
    if suite.header.model != spec.name:
        print(
            f"error: suite was generated for model {suite.header.model!r}, not {spec.name!r}",
            file=sys.stderr,
        )
        return USAGE_ERROR
    bounds = spec.bounds_from_value(suite.header.bounds)
    if args.mutant:
        try:
            factory = lambda: spec.mutants[args.mutant](bounds)  # noqa: E731
        except KeyError:
            print(f"error: unknown mutant {args.mutant!r}", file=sys.stderr)
            return USAGE_ERROR
    else:
        factory = lambda: spec.make_emulator(bounds)  # noqa: E731
    report = run_suite(factory, suite, fail_fast=args.fail_fast, replay_dir=args.replay_log)
    if args.out:
        Path(args.out).write_text(report.to_json() + "\n", encoding="utf-8", newline="\n")
    print(json.dumps(report.totals, sort_keys=True))
    print(
        f"{len(report.verdicts)} paths in {report.wall_time:.3f}s "
        f"({report.replays_per_second:.0f} paths/s)"
    )
    for verdict in report.verdicts:
        if not verdict.passed:
            print(f"  path {verdict.path_id}: {verdict.status} at step "
                  f"{verdict.failing_step}: {verdict.detail[:200]}")
    return 0 if report.all_passed else VERIFY_ERROR


def cmd_replay(args) -> int:
    try:
        spec = get_system(args.model)
        log = read_replay_log(args.log)
    except (KeyError, OSError, LogVersionMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    expected_hash = None
    if args.suite:
        try:
            expected_hash = suitefile.read_header(args.suite, ("suite",)).content_hash
        except MalformedInputError as exc:
            print(f"error: {args.suite}: {exc}", file=sys.stderr)
            return USAGE_ERROR
    bounds = spec.bounds_from_value(log.bounds)
    try:
        verdict = replay(args.log, lambda: spec.make_emulator(bounds), expected_hash)
    except LogVersionMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    print(verdict.to_json())
    return 0 if verdict.passed else VERIFY_ERROR


def cmd_stats(args) -> int:
    try:
        header = suitefile.read_header(args.file)
    except MalformedInputError as exc:
        print(f"error: {args.file}: {exc}", file=sys.stderr)
        return USAGE_ERROR
    stats = header.stats
    row = {
        "kind": header.kind,
        "diameter": stats.get("diameter"),
        "states": stats.get("states"),
        "edges": stats.get("edges"),
    }
    headline = f"D={row['diameter']} |V|={row['states']} |E|={row['edges']}"
    if header.kind == "suite":
        row["paths"] = stats.get("paths")
        row["total_length"] = stats.get("total_length")
        headline += f" |P|={row['paths']} total={row['total_length']}"
    print(json.dumps(row, sort_keys=True))
    print(headline)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="actorcover",
        description="Explore an executable model, generate an edge-covering "
        "suite, and replay it against the implementation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("explore", help="enumerate the bounded transition graph")
    p.add_argument("--model", required=True, choices=sorted(REGISTRY))
    _bounds_args(p)
    p.add_argument("--out", help="graph file to write")
    p.add_argument("--dot", help="also export the graph in dot format")
    p.add_argument("--max-states", type=int, default=10_000_000)
    p.add_argument("--workers", type=int, default=1, choices=[1], help=SINGLE_THREADED)
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser("gensuite", help="generate an edge-covering test suite")
    p.add_argument("--graph", required=True, help="graph file or plain edge list")
    p.add_argument("--algorithm", default="min", choices=sorted(ALGORITHMS))
    p.add_argument("--out", help="suite file to write")
    p.set_defaults(func=cmd_gensuite)

    p = sub.add_parser("run", help="replay a suite against the implementation")
    p.add_argument("--model", required=True, choices=sorted(REGISTRY))
    p.add_argument("--suite", required=True)
    p.add_argument("--jobs", type=int, default=1, choices=[1], help=SINGLE_THREADED)
    p.add_argument("--fail-fast", action="store_true")
    p.add_argument("--replay-log", help="directory for failure replay logs")
    p.add_argument("--out", help="report file to write")
    p.add_argument("--mutant", help="run a seeded-bug implementation variant")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("replay", help="re-execute a failure replay log")
    p.add_argument("--model", required=True, choices=sorted(REGISTRY))
    p.add_argument("--log", required=True)
    p.add_argument("--suite", help="cross-check the log against this suite's hash")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("stats", help="print summary statistics of a graph or suite file")
    p.add_argument("file")
    p.set_defaults(func=cmd_stats)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
