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
from .conformance import LogVersionMismatchError, replay, run_suite
from .explore import DEFAULT_STATE_CAP, StateCapExceededError, check_quiescent_progress, explore
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


def _file_error(path, exc: Exception) -> int:
    """Print ``error: <path>: <why>`` for a bad input or unwritable output; exit code 2."""
    why = (exc.strerror or str(exc)) if isinstance(exc, OSError) else str(exc)
    print(f"error: {path}: {why}", file=sys.stderr)
    return USAGE_ERROR


def cmd_explore(args) -> int:
    if args.max_states < 1:
        print("error: --max-states must be >= 1", file=sys.stderr)
        return USAGE_ERROR
    try:
        spec = get_system(args.model)
        bounds = spec.make_bounds(args)
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
        try:
            suitefile.write_graph_file(args.out, spec.name, model.bounds_value(), graph)
        except OSError as exc:
            return _file_error(args.out, exc)
    if args.dot:
        try:
            Path(args.dot).write_text(dot.export_dot(graph), encoding="utf-8", newline="\n")
        except OSError as exc:
            return _file_error(args.dot, exc)
    stats = dict(graph.stats_value())
    stats["explore_seconds"] = round(elapsed, 3)
    print(json.dumps(stats, sort_keys=True))
    return 0


def cmd_gensuite(args) -> int:
    """Cover every edge of a graph file or plain edge list with paths from vertex 1.

    A graph file is read by ``suitefile.read_graph_file``, which checks
    every line as ``run`` does; only the edges' endpoints are kept for the
    solve.
    """
    algorithm = ALGORITHMS[args.algorithm]
    path = Path(args.graph)
    try:
        with open(path, "rb") as handle:
            first = handle.readline()
        if first.lstrip().startswith(suitefile.FORMAT_VERSION.encode("ascii")):
            header, graph = suitefile.read_graph_file(path)
            cover = graph.cover_graph()
            del graph
        else:
            data = path.read_bytes()
            cover = suitefile.parse_edge_list(suitefile.decode_utf8(data))
            digest = hashlib.sha256(data).hexdigest()
            header = suitefile.Header("edges", "none", canon.Record(), canon.Record(), digest)
    except (OSError, MalformedInputError) as exc:
        return _file_error(path, exc)
    started = time.perf_counter()
    try:
        suite = algorithm(cover)
    except tsg.UnreachableVertexError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return USAGE_ERROR
    elapsed = time.perf_counter() - started
    report = tsg.verify_coverage(cover, suite)
    if not report.ok:
        print(f"error: {len(report.uncovered)} edges uncovered: {report.uncovered[:10]}",
              file=sys.stderr)
        return VERIFY_ERROR
    if args.out:
        try:
            suitefile.write_suite_file(args.out, path, header, suite)
        except OSError as exc:
            return _file_error(args.out, exc)
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


def _bounds(spec, value):
    """The system's bounds of a header's ``value``; MalformedInputError for a bad one."""
    try:
        return spec.bounds_from_value(value)
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInputError(1, f"bad bounds: {exc}") from exc


def _emulator_maker(spec, mutant: str | None):
    """The emulator factory of the named mutant, or of the correct implementation.

    None for an unknown mutant, after printing the error.
    """
    if mutant is None:
        return spec.make_emulator
    if mutant not in spec.mutants:
        known = ", ".join(sorted(spec.mutants)) or "none"
        print(f"error: unknown mutant {mutant!r} (known: {known})", file=sys.stderr)
        return None
    return spec.mutants[mutant]


def cmd_run(args) -> int:
    try:
        spec = get_system(args.model)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    make = _emulator_maker(spec, args.mutant)
    if make is None:
        return USAGE_ERROR
    try:
        suite = suitefile.read_suite_file(args.suite)
    except MalformedInputError as exc:
        return _file_error(args.suite, exc)
    if suite.header.model != spec.name:
        print(
            f"error: suite was generated for model {suite.header.model!r}, not {spec.name!r}",
            file=sys.stderr,
        )
        return USAGE_ERROR
    try:
        bounds = _bounds(spec, suite.header.bounds)
    except MalformedInputError as exc:
        return _file_error(args.suite, exc)
    try:
        report = run_suite(
            lambda: make(bounds), suite, fail_fast=args.fail_fast, replay_dir=args.replay_log
        )
    except OSError as exc:  # the emulators do no I/O: a replay log could not be written
        return _file_error(args.replay_log, exc)
    if args.out:
        try:
            Path(args.out).write_text(report.to_json() + "\n", encoding="utf-8", newline="\n")
        except OSError as exc:
            return _file_error(args.out, exc)
    print(json.dumps(report.totals, sort_keys=True))
    rate = len(report.verdicts) / report.wall_time if report.wall_time > 0 else 0.0
    print(
        f"{len(report.verdicts)} paths in {report.wall_time:.3f}s "
        f"({rate:.0f} paths/s); "
        f"{report.steps_executed} of {sum(map(len, suite.paths))} steps executed"
        + (f"; {len(report.replay_logs)} replay logs in {report.replay_files} files"
           if args.replay_log is not None else "")
    )
    for verdict in report.verdicts:
        if not verdict.passed:
            print(f"  path {verdict.path_id}: {verdict.status} at step "
                  f"{verdict.failing_step}: {verdict.detail[:200]}")
    return 0 if report.all_passed else VERIFY_ERROR


def cmd_replay(args) -> int:
    try:
        spec = get_system(args.model)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    make = _emulator_maker(spec, args.mutant)
    if make is None:
        return USAGE_ERROR
    try:  # the log is read, hashed and parsed here, once
        log = suitefile.read_replay_log(args.log)
    except MalformedInputError as exc:
        return _file_error(args.log, exc)
    if log.model != spec.name:
        print(f"error: log was written for model {log.model!r}, not {spec.name!r}",
              file=sys.stderr)
        return USAGE_ERROR
    expected_hash = None
    if args.suite:
        try:
            expected_hash = suitefile.read_header(args.suite, ("suite",)).content_hash
        except MalformedInputError as exc:
            return _file_error(args.suite, exc)
    try:
        bounds = _bounds(spec, log.bounds)
    except MalformedInputError as exc:
        return _file_error(args.log, exc)
    try:
        verdict = replay(log, lambda: make(bounds), expected_hash)
    except LogVersionMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    print(verdict.to_json())
    return 0 if verdict.passed else VERIFY_ERROR


def cmd_stats(args) -> int:
    try:
        header = suitefile.read_header(args.file)
    except MalformedInputError as exc:
        return _file_error(args.file, exc)
    stats = header.stats
    row = {
        "kind": header.kind,
        "diameter": stats.get("diameter"),
        "states": stats.get("states"),
        "edges": stats.get("edges"),
    }
    headline = f"D={row['diameter']} |V|={row['states']} |E|={row['edges']}"
    if header.kind in ("suite", "replay"):
        row["paths"] = stats.get("paths")
        row["total_length"] = stats.get("total_length")
        headline += f" |P|={row['paths']} total={row['total_length']}"
    if header.kind == "replay":
        row["path"] = stats.get("path")
        row["steps"] = stats.get("steps")
        row["suite"] = stats.get("suite")
        headline += f" path={row['path']} steps={row['steps']} suite={row['suite']}"
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
    p.add_argument("--max-states", type=int, default=DEFAULT_STATE_CAP)
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
    p.add_argument("--replay-log", metavar="DIR",
                   help="directory for failure replay logs, one path_<id>.replay per "
                   "failing path, each ending at the failing step; paths that fail on "
                   "the same prefix share one file through hard links, so editing a "
                   "log in place edits it for all of them")
    p.add_argument("--out", help="report file to write")
    p.add_argument("--mutant", help="run a seeded-bug implementation variant")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("replay", help="re-execute a failure replay log")
    p.add_argument("--model", required=True, choices=sorted(REGISTRY))
    p.add_argument("--log", required=True)
    p.add_argument("--suite", help="cross-check the log against this suite's hash")
    p.add_argument("--mutant", help="replay against a seeded-bug implementation variant")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("stats",
                       help="print summary statistics of a graph, suite or replay-log file")
    p.add_argument("file")
    p.set_defaults(func=cmd_stats)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
