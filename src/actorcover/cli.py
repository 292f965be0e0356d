"""Command-line pipeline: explore, gensuite, run, replay, stats.

Exit codes: 0 success, 1 verification failure (invariant violations or
non-passing paths), 2 usage or input-format errors.  A usage or input
error is one ``error: <why>`` line on stderr, ``<why>`` starting with the
file's path when a file is at fault; commands raise it as ``UsageError``,
and only ``main`` prints it and returns 2.  An output that cannot be
written is such an error, stdout too: a pipe whose reader has gone gives
``error: stdout: Broken pipe``.  All file outputs are byte-deterministic
for identical inputs and flags; wall-clock figures are printed to the
console only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

from . import canon, dot, suitefile, tsg
from .conformance import replay, run_suite
from .explore import DEFAULT_STATE_CAP, StateCapExceededError, check_quiescent_progress, explore
from .suitefile import MalformedInputError
from .systems import BOUND_FLAGS, REGISTRY, get_system

USAGE_ERROR = 2
VERIFY_ERROR = 1

ALGORITHMS = {
    "baseline": tsg.baseline_suite,
    "flow": tsg.flow_suite,
    "min": tsg.min_suite,
}


SINGLE_THREADED = ("only 1 is accepted: parallel runs were removed because "
                   "they were slower than one worker")


class UsageError(Exception):
    """A usage or input error: ``main`` prints ``error: <message>`` and exits 2."""


def _bounds_args(parser: argparse.ArgumentParser) -> None:
    # Each flag's help names the bounds field it sets in each model that has it.
    for flag in BOUND_FLAGS:
        sets = [f"{spec.name}: {spec.flags[flag]}, default {getattr(spec.bounds, spec.flags[flag])}"
                for spec in REGISTRY.values() if flag in spec.flags]
        parser.add_argument("--" + flag.replace("_", "-"), type=int, help="; ".join(sets))
    faults = "; ".join(f"{spec.name}: {', '.join(spec.faults)}"
                       for spec in REGISTRY.values() if spec.faults)
    parser.add_argument("--faults", default="", help=f"comma list of fault actions ({faults})")


def _file_error(path, exc: Exception) -> UsageError:
    """``<path>: <why>`` for a bad input or an unwritable output."""
    why = (exc.strerror or str(exc)) if isinstance(exc, OSError) else str(exc)
    return UsageError(f"{path}: {why}")


def _read(path, reader, *args):
    """``reader(path, *args)``; an unreadable or malformed file raises UsageError."""
    try:
        return reader(path, *args)
    except (OSError, MalformedInputError) as exc:
        raise _file_error(path, exc) from exc


def _write(path, writer, *args) -> None:
    """``writer(path, *args)``; an unwritable file raises UsageError."""
    try:
        writer(path, *args)
    except OSError as exc:
        raise _file_error(path, exc) from exc


def _write_text(path, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def _counterexample(graph, index: int) -> int:
    """Print the BFS tree path from state 1 to state ``index``; returns VERIFY_ERROR."""
    print("shortest counterexample path from state 1:")
    for eid in graph.tree_path(index):
        action = graph.actions[graph.action_ids[eid]]
        print(f"  {action.key()} -> state {graph.destinations[eid]}")
    return VERIFY_ERROR


def cmd_explore(args) -> int:
    if args.max_states < 1:
        raise UsageError("--max-states must be >= 1")
    spec = get_system(args.model)
    try:
        bounds = spec.make_bounds(args)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    model = spec.make_model(bounds)
    started = time.perf_counter()
    try:
        result = explore(model, max_states=args.max_states)
    except StateCapExceededError as exc:
        print(canon.dumps({"states": exc.states, "edges": exc.edges, "cap": exc.cap}))
        raise UsageError(str(exc)) from exc
    elapsed = time.perf_counter() - started
    graph = result.graph

    if result.violations:
        first = result.violations[0]
        print(f"invariant {first.name} violated at state {first.state_index}: {first.detail}")
        return _counterexample(graph, first.state_index)

    quiescence = check_quiescent_progress(graph, model)
    if quiescence.violations:
        first = quiescence.violations[0]
        print(f"quiescent sink {first.state_index} violates progress: {first.detail}")
        return _counterexample(graph, first.state_index)
    if quiescence.no_sinks:
        print("warning: graph has no sinks; quiescence holds vacuously", file=sys.stderr)

    if args.out:
        _write(args.out, suitefile.write_graph_file, spec.name, model.bounds_value(), graph)
    if args.dot:
        _write(args.dot, _write_text, dot.export_dot(graph))
    stats = dict(graph.stats_value())
    stats["explore_seconds"] = round(elapsed, 3)
    print(json.dumps(stats, sort_keys=True))
    return 0


def _cover_graph(path) -> tuple[suitefile.Header, tsg.CoverGraph]:
    """The header and cover graph of a graph file or of a plain edge list.

    A graph file is read by ``suitefile.read_graph_file``, which checks
    every line as ``run`` does; only the edges' endpoints are kept.
    """
    with open(path, "rb") as handle:
        first = handle.readline()
    if first.lstrip().startswith(suitefile.FORMAT_VERSION.encode("ascii")):
        header, graph = suitefile.read_graph_file(path)
        return header, graph.cover_graph()
    data = Path(path).read_bytes()
    cover = suitefile.parse_edge_list(suitefile.decode_utf8(data))
    digest = hashlib.sha256(data).hexdigest()
    return suitefile.Header("edges", "none", canon.Record(), canon.Record(), digest), cover


def cmd_gensuite(args) -> int:
    """Cover every edge of a graph file or plain edge list with paths from vertex 1."""
    algorithm = ALGORITHMS[args.algorithm]
    path = Path(args.graph)
    header, cover = _read(path, _cover_graph)
    started = time.perf_counter()
    try:
        suite = algorithm(cover)
    except tsg.UnreachableVertexError as exc:
        raise _file_error(path, exc) from exc
    elapsed = time.perf_counter() - started
    report = tsg.verify_coverage(cover, suite)
    if not report.ok:
        print(f"error: {len(report.uncovered)} edges uncovered: {report.uncovered[:10]}",
              file=sys.stderr)
        return VERIFY_ERROR
    if args.out:
        _write(args.out, suitefile.write_suite_file, path, header, suite)
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


def _setup(args, path, reader, header_of, written: str):
    """Read ``path`` for the system and implementation ``args`` name.

    The system and ``--mutant`` are looked up before the file is read.
    Returns what ``reader`` read and a factory of emulators for the
    bounds of its header (``header_of`` of it), which must name the
    system's model.
    """
    spec = get_system(args.model)
    make = spec.make_emulator
    if args.mutant is not None:
        if args.mutant not in spec.mutants:
            known = ", ".join(sorted(spec.mutants)) or "none"
            raise UsageError(f"unknown mutant {args.mutant!r} (known: {known})")
        make = spec.mutants[args.mutant]
    read = _read(path, reader)
    header = header_of(read)
    if header.model != spec.name:
        raise UsageError(f"{written} for model {header.model!r}, not {spec.name!r}")
    try:
        bounds = spec.bounds_from_value(header.bounds)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"{path}: line 1: bad bounds: {exc}") from exc
    return read, lambda: make(bounds)


def cmd_run(args) -> int:
    suite, emulator = _setup(args, args.suite, suitefile.read_suite_file,
                             lambda suite: suite.header, "suite was generated")
    try:
        report = run_suite(emulator, suite, fail_fast=args.fail_fast, replay_dir=args.replay_log)
    except OSError as exc:  # the emulators do no I/O: a replay log could not be written
        raise _file_error(args.replay_log, exc) from exc
    if args.out:
        _write(args.out, _write_text, report.to_json() + "\n")
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
    # The log is read, hashed and parsed here, once.
    log, emulator = _setup(args, args.log, suitefile.read_replay_log, lambda log: log,
                           "log was written")
    if args.suite:
        expected = _read(args.suite, suitefile.read_header, ("suite",)).content_hash
        if log.suite_hash != expected:
            raise UsageError(f"log pinned to suite {log.suite_hash[:12]}, "
                             f"current is {expected[:12]}")
    verdict = replay(log, emulator)
    print(verdict.to_json())
    return 0 if verdict.passed else VERIFY_ERROR


# The header stats each file kind shows, as (label, key): each kind adds to the one before.
_GRAPH_STATS = (("D", "diameter"), ("|V|", "states"), ("|E|", "edges"))
_SUITE_STATS = _GRAPH_STATS + (("|P|", "paths"), ("total", "total_length"))
_SHOWN_STATS = {
    "graph": _GRAPH_STATS,
    "suite": _SUITE_STATS,
    "replay": _SUITE_STATS + (("path", "path"), ("steps", "steps"), ("suite", "suite")),
}


def cmd_stats(args) -> int:
    header = _read(args.file, suitefile.read_header)
    shown = _SHOWN_STATS[header.kind]
    row = {"kind": header.kind, **{key: header.stats.get(key) for _label, key in shown}}
    print(json.dumps(row, sort_keys=True))
    print(" ".join(f"{label}={row[key]}" for label, key in shown))
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
    try:
        code = args.func(args)
        # Flush here, so that a closed reader shows here and not in the
        # interpreter's exit flush; print does nothing when stdout is None.
        print(end="", flush=True)
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
    except BrokenPipeError as exc:
        # Nothing more reaches the reader; what stdout still buffers goes nowhere.
        sys.stdout = open(os.devnull, "w")
        print(f"error: {_file_error('stdout', exc)}", file=sys.stderr)
    return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
