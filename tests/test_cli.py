"""End-to-end CLI runs on vr with 2 replicas, 1 query and 1 view (310 states).

The dot export and the single-worker flags are checked on a tiny kv graph.
"""

import errno
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from array import array
from dataclasses import replace
from pathlib import Path

import pytest

from actorcover import canon, dot, suitefile, systems
from actorcover import cli as cli_module
from actorcover.actors import EXTERNAL, Action, Event
from actorcover.cli import build_parser, main
from actorcover.explore import TransitionGraph
from actorcover.model import ModelState
from actorcover.suitefile import read_header
from actorcover.systems import get_system
from actorcover.systems.kv import KvBounds
from actorcover.systems.vr import VrBounds, VrModel
from actorcover.tsg import TestSuite

BOUNDS = ("--replicas", "2", "--max-queries", "1", "--max-views", "1")
KV_TINY = ("--model", "kv", "--replicas", "2", "--max-queries", "1", "--max-gets", "1")


def cli(capsys, *argv):
    rc = main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return rc, out, err


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    assert main(["explore", "--model", "vr", *BOUNDS, "--out", str(root / "graph.ac1")]) == 0
    assert main(["gensuite", "--graph", str(root / "graph.ac1"),
                 "--out", str(root / "suite.ac1")]) == 0
    return root


@pytest.fixture
def work(built, tmp_path):
    for name in ("graph.ac1", "suite.ac1"):
        shutil.copy(built / name, tmp_path / name)
    return tmp_path


def test_run_exit_codes(work, capsys):
    suite = work / "suite.ac1"
    rc, out, _err = cli(capsys, "run", "--model", "vr", "--suite", suite)
    assert rc == 0
    # Shared prefixes run once: 501 distinct prefixes in the 1,056 steps.
    assert re.search(r"^108 paths in \S+s \(\d+ paths/s\); 501 of 1056 steps executed$", out,
                     re.MULTILINE)
    assert cli(capsys, "run", "--model", "vr", "--suite", suite, "--mutant", "skip-commit")[0] == 1


def test_run_rejects_an_unknown_mutant(work, tmp_path, capsys):
    rc, _out, err = cli(capsys, "run", "--model", "vr", "--suite", work / "suite.ac1",
                        "--mutant", "bogus")
    assert rc == 2
    assert err == ("error: unknown mutant 'bogus' (known: keep-phase2, no-commit-broadcast, "
                   "prepend-entry, skip-commit, stale-prepare)\n")
    kv_graph, kv_suite = tmp_path / "kv.graph", tmp_path / "kv.suite"
    assert cli(capsys, "explore", *KV_TINY, "--out", kv_graph)[0] == 0
    assert cli(capsys, "gensuite", "--graph", kv_graph, "--out", kv_suite)[0] == 0
    assert cli(capsys, "run", "--model", "kv", "--suite", kv_suite)[0] == 0
    rc, _out, err = cli(capsys, "run", "--model", "kv", "--suite", kv_suite, "--mutant", "bogus")
    assert rc == 2
    assert err == "error: unknown mutant 'bogus' (known: none)\n"


def test_run_rejects_a_suite_of_another_model(work, capsys):
    rc, out, err = cli(capsys, "run", "--model", "kv", "--suite", work / "suite.ac1")
    assert (rc, out) == (2, "")
    assert err == "error: suite was generated for model 'vr', not 'kv'\n"


def test_run_fail_fast_stops_after_the_first_failing_path(work, capsys):
    # The min suite's path 0 already fails; baseline paths follow edge ids,
    # so several pass before skip-commit's first kill.
    suite = work / "baseline.ac1"
    assert cli(capsys, "gensuite", "--graph", work / "graph.ac1", "--algorithm", "baseline",
               "--out", suite)[0] == 0
    full, fast = work / "full.json", work / "fast.json"
    assert cli(capsys, "run", "--model", "vr", "--suite", suite, "--mutant", "skip-commit",
               "--replay-log", work / "full-logs", "--out", full)[0] == 1
    rc, out, _err = cli(capsys, "run", "--model", "vr", "--suite", suite, "--mutant",
                        "skip-commit", "--fail-fast", "--replay-log", work / "fast-logs",
                        "--out", fast)
    assert rc == 1
    full_verdicts = json.loads(full.read_text(encoding="utf-8"))["verdicts"]
    first_failure = next(v["path"] for v in full_verdicts if v["status"] != "PASS")
    assert first_failure == 52
    report = json.loads(fast.read_text(encoding="utf-8"))
    assert [v["path"] for v in report["verdicts"]] == list(range(first_failure + 1))
    assert report["verdicts"] == full_verdicts[: first_failure + 1]
    assert report["totals"]["PASS"] == first_failure
    assert sum(report["totals"].values()) == first_failure + 1
    assert f"{first_failure + 1} paths in " in out
    # Every verdict is known before the report is cut: only the reported failure has a log.
    log_name = f"path_{first_failure}.replay"
    assert report["replay_logs"] == [str(work / "fast-logs" / log_name)]
    assert [p.name for p in (work / "fast-logs").iterdir()] == [log_name]
    assert (work / "fast-logs" / log_name).read_bytes() == (
        work / "full-logs" / log_name).read_bytes()


def test_parallel_flags_accept_only_one(work, capsys):
    assert cli(capsys, "explore", *KV_TINY, "--workers", "1")[0] == 0
    assert cli(capsys, "run", "--model", "vr", "--suite", work / "suite.ac1", "--jobs", "1")[0] == 0
    for argv in (["explore", *KV_TINY, "--workers", "2"],
                 ["run", "--model", "vr", "--suite", work / "suite.ac1", "--jobs", "2"]):
        with pytest.raises(SystemExit) as info:
            cli(capsys, *argv)
        assert info.value.code == 2
        assert "invalid choice: 2" in capsys.readouterr().err


def test_explore_over_its_state_cap_prints_the_partial_counts(tmp_path, capsys):
    rc, out, err = cli(capsys, "explore", "--model", "vr", *BOUNDS, "--max-states", "50",
                       "--out", tmp_path / "graph.ac1")
    assert rc == 2
    assert out == '{"cap":50,"edges":71,"states":50}\n'
    assert err == "error: state cap 50 exceeded (50 states, 71 edges so far)\n"
    assert not (tmp_path / "graph.ac1").exists()


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_explore_rejects_a_state_cap_below_one(tmp_path, capsys, cap):
    rc, out, err = cli(capsys, "explore", "--model", "vr", *BOUNDS, "--max-states", cap,
                       "--out", tmp_path / "graph.ac1")
    assert (rc, out) == (2, "")
    assert err == "error: --max-states must be >= 1\n"
    assert not (tmp_path / "graph.ac1").exists()


def test_explore_warns_of_a_graph_without_sinks(capsys):
    rc, out, err = cli(capsys, "explore", "--model", "kv", "--replicas", "2", "--max-queries", "1",
                       "--faults", "crash,drop")
    assert rc == 0
    assert err == "warning: graph has no sinks; quiescence holds vacuously\n"
    stats = json.loads(out)
    assert (stats["states"], stats["edges"], stats["sinks"]) == (48, 148, 0)


def test_explore_corrupts_each_kv_request_once(capsys):
    rc, out, err = cli(capsys, "explore", "--model", "kv", "--replicas", "1", "--max-queries", "1",
                       "--faults", "corrupt")
    assert (rc, err) == (0, "")
    stats = json.loads(out)
    assert (stats["states"], stats["edges"]) == (5, 4)


DOT_LABEL = re.compile(r'^  (\d+) -> (\d+) \[label="((?:[^"\\]|\\.)*)"\];$')


def _unescape(label):
    return re.sub(r"\\(.)", r"\1", label)


def test_explore_dot_has_a_line_per_state_and_edge(tmp_path, capsys):
    outputs = []
    for name in ("a.dot", "b.dot"):
        rc, out, _err = cli(capsys, "explore", *KV_TINY, "--out", tmp_path / "g.ac1",
                            "--dot", tmp_path / name)
        assert rc == 0
        outputs.append((tmp_path / name).read_bytes())
    assert outputs[0] == outputs[1]
    stats = json.loads(out)
    lines = outputs[0].decode("utf-8").splitlines()
    assert lines[0] == "digraph transitions {" and lines[-1] == "}"
    nodes = [line for line in lines if re.fullmatch(r'  \d+ \[label="\d+"\];', line)]
    assert nodes == [f'  {i} [label="{i}"];' for i in range(1, stats["states"] + 1)]
    edges = [DOT_LABEL.match(line) for line in lines if " -> " in line]
    assert len(edges) == stats["edges"] == len(lines) - 2 - len(nodes)
    graph_edges = [line.split("\t") for line in
                   (tmp_path / "g.ac1").read_text(encoding="utf-8").splitlines()
                   if line.startswith("E\t")]
    assert len(graph_edges) == len(edges)
    for match, (_e, src, dst, action) in zip(edges, graph_edges):
        assert match is not None
        assert (match.group(1), match.group(2)) == (src, dst)
        assert _unescape(match.group(3)) == action


def test_dot_escapes_quotes_and_backslashes():
    event = Event("Note", {"text": 'say "hi" \\ bye'}, EXTERNAL, 0)
    state = ModelState(actors=(None,), alive=(True,), globals_=canon.Record(), events=frozenset())
    action = Action.inject(event)
    assert r'"say \"hi\" \\ bye"' in action.key()
    graph = TransitionGraph([state, state], [action], array("I", [1]), array("I", [0]),
                            array("I", [2]))
    text = dot.export_dot(graph)
    edge_line = text.splitlines()[3]
    assert r'\"say \\\"hi\\\" \\\\ bye\"' in edge_line
    assert _unescape(DOT_LABEL.match(edge_line).group(3)) == action.key()


def edit_body(work):
    suite = work / "suite.ac1"
    lines = suite.read_text(encoding="utf-8").splitlines(keepends=True)
    fields = lines[2].rstrip("\n").split("\t")
    fields[-1] = str(int(fields[-1]) + 1)
    lines[2] = "\t".join(fields) + "\n"
    suite.write_text("".join(lines), encoding="utf-8")
    return suite


def truncate(work):
    suite = work / "suite.ac1"
    data = suite.read_bytes()
    suite.write_bytes(data[: len(data) // 2])
    return suite


def rewrite(suite, header, body):
    """Write a suite file with ``body`` lines under a header whose hash matches them."""
    return rewrite_bytes(suite, header.encode("utf-8"), [line.encode("utf-8") for line in body])


def rewrite_bytes(path, header, body):
    """Write ``body`` byte lines under ``header`` with its hash recomputed over them."""
    data = b"".join(line + b"\n" for line in body)
    fields = header.split(b"\t")
    fields[-1] = b"hash=" + hashlib.sha256(data).hexdigest().encode("ascii")
    path.write_bytes(b"\t".join(fields) + b"\n" + data)
    return path


def old_format(work):
    """A suite as written before edge-id paths: S lines, then actions in P lines."""
    graph = (work / "graph.ac1").read_text(encoding="utf-8").splitlines()
    states = [line for line in graph if line.startswith("S\t")]
    _e, _src, dst, action = next(line for line in graph if line.startswith("E\t1\t")).split("\t")
    header = graph[0].replace("\tgraph\t", "\tsuite\t", 1)
    return rewrite(work / "suite.ac1", header, states + [f"P\t1\t{action}\t{dst}"])


def replace_first_path(work, path_line):
    """Replace the first P line, under a valid hash."""
    suite = work / "suite.ac1"
    header, *body = suite.read_text(encoding="utf-8").splitlines()
    body[1] = path_line
    return rewrite(suite, header, body)


def unknown_edge(work):
    return replace_first_path(work, "P\t1\t449")


def broken_chain(work):
    return replace_first_path(work, "P\t2\t0\t0")  # edge 0 leaves state 1 for another state


def regenerate_graph(work):
    assert main(["explore", "--model", "vr", "--replicas", "2", "--max-queries", "1",
                 "--max-views", "0", "--out", str(work / "graph.ac1")]) == 0
    return work / "suite.ac1"


def edit_graph(work):
    graph = work / "graph.ac1"
    graph.write_text(graph.read_text(encoding="utf-8").replace("E\t1\t", "E\t2\t", 1),
                     encoding="utf-8")
    return work / "suite.ac1"


def delete_graph(work):
    (work / "graph.ac1").unlink()
    return work / "suite.ac1"


def graph_bounds_damaged(work):
    """A suite of a graph whose header has no bounds; the hash does not cover the header."""
    graph = work / "graph.ac1"
    header, body = graph.read_bytes().split(b"\n", 1)
    graph.write_bytes(re.sub(rb"\tbounds=[^\t]*", b"\tbounds={}", header) + b"\n" + body)
    assert main(["gensuite", "--graph", str(graph), "--out", str(work / "suite.ac1")]) == 0
    return work / "suite.ac1"


def edit_suite_header(work, old, new):
    """A suite whose header names another model or bounds than its graph's."""
    suite = work / "suite.ac1"
    header, body = suite.read_bytes().split(b"\n", 1)
    assert old in header  # the hash does not cover the header
    suite.write_bytes(header.replace(old, new) + b"\n" + body)
    return suite


def suite_bounds_edited(work):
    return edit_suite_header(work, b'"replicas":2', b'"replicas":3')


def suite_model_edited(work):
    return edit_suite_header(work, b"model=vr", b"model=kv")


def edge_list_suite(work):
    (work / "edges.txt").write_text("1 2\n2 1\n2 3\n", encoding="utf-8")
    suite = work / "edges.ac1"
    assert main(["gensuite", "--graph", str(work / "edges.txt"), "--out", str(suite)]) == 0
    return suite


@pytest.mark.parametrize(
    "damage, line, says",
    [
        (edit_body, 1, "content hash mismatch"),
        (truncate, 1, "content hash mismatch"),
        (old_format, 2, "regenerate it with `actorcover gensuite`"),
        (regenerate_graph, 2, "the suite pins"),
        (edit_graph, 2, "content hash mismatch"),
        (delete_graph, 2, "graph.ac1"),
        (edge_list_suite, 1, "model=none"),
        (unknown_edge, 3, "edge 449 does not leave state 1"),
        (broken_chain, 3, "edge 0 does not leave state "),
        (graph_bounds_damaged, 1, "bad bounds: 'replicas'"),
        (suite_bounds_edited, 2, '"replicas":2}, the suite header says model=vr '
                                 'bounds={"max_queries":1,"max_views":1,"replicas":3}'),
        (suite_model_edited, 2, "the suite header says model=kv bounds="),
    ],
)
def test_run_rejects_bad_suites_with_a_line_number(work, capsys, damage, line, says):
    suite = damage(work)
    capsys.readouterr()
    rc, _out, err = cli(capsys, "run", "--model", "vr", "--suite", suite)
    assert rc == 2
    assert re.search(rf"{re.escape(str(suite))}: line {line}: ", err), err
    assert says in err


def unchanged(work):
    return work / "suite.ac1"


@pytest.mark.parametrize("damage, rc", [(unchanged, 0), (suite_bounds_edited, 2),
                                        (regenerate_graph, 2)])
def test_run_checks_the_pin_and_bounds_before_parsing_the_graph(work, capsys, monkeypatch,
                                                                 damage, rc):
    suite = damage(work)
    parsed, state = [], suitefile.StateParser.state
    monkeypatch.setattr(suitefile.StateParser, "state",
                        lambda parser, text: parsed.append(text) or state(parser, text))
    got, _out, err = cli(capsys, "run", "--model", "vr", "--suite", suite)
    assert got == rc
    if rc:
        assert f"{suite}: line 2: graph file graph.ac1 has " in err
    assert bool(parsed) == (rc == 0)


@pytest.mark.parametrize(
    "bad, says",
    [
        ("1.5", "bad state: model values may not contain floats"),
        ('{"$set":[1],"x":1}', "bad state: record key '$set' is reserved"),
    ],
)
def test_gensuite_rejects_a_bad_state_value_with_its_line(work, capsys, bad, says):
    graph = work / "graph.ac1"
    header, *body = graph.read_text(encoding="utf-8").splitlines()
    assert body[4].startswith("S\t5\t") and '"queriesCount":' in body[4]
    body[4] = re.sub(r'"queriesCount":\d+', lambda _m: f'"queriesCount":{bad}', body[4])
    rewrite(graph, header, body)
    assert_both_reject(work, capsys, graph, 6, says)


def repin_suite(work):
    """Point the suite's G line at the graph file's current hash, so ``run`` reads its body."""
    suite = work / "suite.ac1"
    graph_hash = read_header(work / "graph.ac1").content_hash
    header, g_line, *paths = suite.read_text(encoding="utf-8").splitlines()
    g_line = g_line.rsplit("\t", 1)[0] + "\t" + graph_hash
    return rewrite(suite, header, [g_line, *paths])


def assert_both_reject(work, capsys, graph, line, says):
    """gensuite, and run through a suite pinned to the damaged graph, reject it at ``line``."""
    rc, _out, err = cli(capsys, "gensuite", "--graph", graph)
    assert (rc, err.count("\n")) == (2, 1)
    assert err.startswith(f"error: {graph}: line {line}: {says}"), err
    suite = repin_suite(work)
    rc, _out, err = cli(capsys, "run", "--model", "vr", "--suite", suite)
    assert (rc, err.count("\n")) == (2, 1)
    assert err.startswith(f"error: {suite}: line 2: graph file graph.ac1: line {line}: {says}"), err


def test_gensuite_rejects_an_edge_list_with_unreachable_vertices(tmp_path, capsys):
    edges = tmp_path / "edges.txt"
    edges.write_text("1 2\n3 4\n", encoding="utf-8")
    rc, _out, err = cli(capsys, "gensuite", "--graph", edges)
    assert rc == 2
    assert err == f"error: {edges}: vertices unreachable from source: [3, 4]\n"


@pytest.fixture(scope="module")
def vr_log(built, tmp_path_factory):
    """A replay log of the keep-phase2 mutant on the vr min suite."""
    logs = tmp_path_factory.mktemp("logs")
    assert main(["run", "--model", "vr", "--suite", str(built / "suite.ac1"),
                 "--mutant", "keep-phase2", "--replay-log", str(logs)]) == 1
    return sorted(logs.glob("*.replay"))[0]


def test_replay_parses_its_log_once(vr_log, monkeypatch, capsys):
    parsed, hashed = [], []
    body_lines, read_header = suitefile._body_lines, suitefile.read_header
    monkeypatch.setattr(suitefile, "_body_lines",
                        lambda path: parsed.append(path) or body_lines(path))
    monkeypatch.setattr(suitefile, "read_header",
                        lambda path, *kinds: hashed.append(path) or read_header(path, *kinds))
    rc = cli(capsys, "replay", "--model", "vr", "--mutant", "keep-phase2", "--log", vr_log)[0]
    assert rc == 1
    assert parsed == [str(vr_log)]
    assert hashed == [str(vr_log)]


def test_replay_rejects_a_log_of_another_model(vr_log, capsys):
    rc, _out, err = cli(capsys, "replay", "--model", "kv", "--log", vr_log)
    assert rc == 2
    assert err == "error: log was written for model 'vr', not 'kv'\n"


def with_field(header: bytes, name: bytes, value: bytes) -> bytes:
    """An AC1 header line with its ``name=`` field set to ``value``."""
    fields = [name + b"=" + value if f.startswith(name + b"=") else f
              for f in header.split(b"\t")]
    return b"\t".join(fields)


@pytest.mark.parametrize(
    "damage, line, says",
    [
        (lambda log, header, body: log.write_bytes(b""), 1, "empty file"),
        (lambda log, header, body: rewrite_bytes(log, with_field(header, b"stats", b"{"), body),
         1, "bad header"),
        (lambda log, header, body: rewrite_bytes(
            log, with_field(header, b"stats", b'{"path":0}'), body), 1,
         "bad header: no 'suite' in stats"),
        (lambda log, header, body: rewrite_bytes(
            log, header, [b"\t".join(body[0].split(b"\t")[:3])] + body[1:]), 2,
         "R line needs action, destination and state"),
        (lambda log, header, body: rewrite_bytes(
            log, with_field(header, b"bounds", b'{"max_queries":2}'), body), 1,
         "bad bounds: 'replicas'"),
        (lambda log, header, body: rewrite_bytes(
            log, with_field(header, b"bounds", b'{"max_queries":1,"max_views":1,"replicas":0}'),
            body), 1, "bad bounds: replicas must be 1..3"),
        (lambda log, header, body: rewrite_bytes(
            log, header, [b"\t".join([b"R", b'{"kind":"deliver"}', *body[0].split(b"\t")[2:]])]
            + body[1:]), 2, "bad replay step: deliver requires an event"),
        (lambda log, header, body: rewrite_bytes(
            log, header, [b"\t".join([b"R", b'{"kind":"crash","target":true}',
                                      *body[0].split(b"\t")[2:]])] + body[1:]), 2,
         "bad replay step: crash target True is not an actor id"),
    ],
    ids=["empty", "header-not-json", "stats-without-suite", "step-with-3-fields",
         "bounds-missing-a-field", "bounds-without-replicas", "step-without-an-event",
         "crash-of-true"],
)
def test_replay_rejects_a_malformed_log_with_its_line(vr_log, tmp_path, capsys, damage, line,
                                                      says):
    log = tmp_path / "bad.replay"
    header, *body = vr_log.read_bytes().splitlines()
    damage(log, header, body)
    rc, _out, err = cli(capsys, "replay", "--model", "vr", "--log", log)
    assert (rc, err.count("\n")) == (2, 1)
    assert err.startswith(f"error: {log}: line {line}: {says}"), err


def test_replay_rejects_a_log_edited_under_its_header(vr_log, tmp_path, capsys):
    # The edit makes the mutant's last state the expected one: unchecked, the log would pass.
    log = tmp_path / "edited.replay"
    lines = vr_log.read_bytes().splitlines(keepends=True)
    assert b'"phase2":false' in lines[-1]
    lines[-1] = lines[-1].replace(b'"phase2":false', b'"phase2":true', 1)
    log.write_bytes(b"".join(lines))
    rc, _out, err = cli(capsys, "replay", "--model", "vr", "--mutant", "keep-phase2", "--log", log)
    assert rc == 2
    assert err.startswith(f"error: {log}: line 1: content hash mismatch"), err


def test_replay_rejects_a_log_with_a_json_header(built, vr_log, tmp_path, capsys):
    """A log as written before replay logs were AC1 files: a JSON header line."""
    log = tmp_path / "old.replay"
    header = {
        "bounds": '{"max_queries":1,"max_views":1,"replicas":2}',
        "model": "vr",
        "path": 0,
        "suite_hash": read_header(built / "suite.ac1").content_hash,
        "version": 1,
    }
    body = vr_log.read_bytes().split(b"\n", 1)[1]
    log.write_bytes(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + body)
    rc, _out, err = cli(capsys, "replay", "--model", "vr", "--log", log)
    assert rc == 2
    assert err == f"error: {log}: line 1: not a AC1 file header\n"


def test_stats_answers_for_a_replay_log_from_its_header(built, vr_log, capsys):
    rc, out, _err = cli(capsys, "stats", vr_log)
    assert rc == 0
    row, headline = out.splitlines()
    suite_hash = read_header(built / "suite.ac1").content_hash
    path = int(vr_log.stem.removeprefix("path_"))
    steps = len(vr_log.read_bytes().splitlines()) - 1
    assert json.loads(row) == {
        "kind": "replay", "diameter": 15, "states": 310, "edges": 449, "paths": 108,
        "total_length": 1056, "path": path, "steps": steps, "suite": suite_hash,
    }
    assert headline == (f"D=15 |V|=310 |E|=449 |P|=108 total=1056 path={path} steps={steps} "
                        f"suite={suite_hash}")


def test_run_counts_its_logs_and_replays_a_shared_one(work, capsys):
    suite, logs = work / "suite.ac1", work / "logs"
    rc, out, _err = cli(capsys, "run", "--model", "vr", "--suite", suite,
                        "--mutant", "keep-phase2", "--replay-log", logs)
    assert rc == 1
    totals, summary = out.splitlines()[:2]
    assert json.loads(totals)["STATE_MISMATCH"] == 75
    assert re.fullmatch(r"108 paths in \S+s \(\d+ paths/s\); 378 of 1056 steps executed; "
                        r"75 replay logs in 55 files", summary)
    # A name linked to another path's log replays as that path, to the same failure.
    link = next(p for p in sorted(logs.iterdir()) if p.stat().st_nlink > 1
                and read_header(p).stats["path"] != int(p.stem.removeprefix("path_")))
    lead = logs / f"path_{read_header(link).stats['path']}.replay"
    assert link.stat().st_ino == lead.stat().st_ino
    rc, out, _err = cli(capsys, "replay", "--model", "vr", "--mutant", "keep-phase2",
                        "--suite", suite, "--log", link)
    assert rc == 1
    replayed = json.loads(out)
    assert replayed["path"] == int(lead.stem.removeprefix("path_"))
    assert cli(capsys, "replay", "--model", "vr", "--mutant", "keep-phase2",
               "--suite", suite, "--log", lead)[1] == out


def test_replay_checks_the_suite_hash(work, capsys):
    suite = work / "suite.ac1"
    logs = work / "logs"
    rc, _out, _err = cli(capsys, "run", "--model", "vr", "--suite", suite,
                         "--mutant", "keep-phase2", "--replay-log", logs)
    assert rc == 1
    log = sorted(logs.glob("*.replay"))[0]
    # The log replays on the correct implementation, which passes it.
    assert cli(capsys, "replay", "--model", "vr", "--log", log, "--suite", suite)[0] == 0
    other = work / "baseline.ac1"
    assert cli(capsys, "gensuite", "--graph", work / "graph.ac1", "--algorithm", "baseline",
               "--out", other)[0] == 0
    rc, _out, err = cli(capsys, "replay", "--model", "vr", "--log", log, "--suite", other)
    assert rc == 2
    assert "log pinned to suite" in err
    truncate(work)
    rc, _out, err = cli(capsys, "replay", "--model", "vr", "--log", log, "--suite", suite)
    assert rc == 2
    assert "line 1: content hash mismatch" in err


def test_two_runs_write_identical_files(tmp_path, monkeypatch, capsys):
    outputs = []
    for name in ("a", "b"):
        directory = tmp_path / name
        directory.mkdir()
        monkeypatch.chdir(directory)
        for argv in (
            ["explore", "--model", "vr", *BOUNDS, "--out", "graph.ac1"],
            ["gensuite", "--graph", "graph.ac1", "--out", "suite.ac1"],
            ["run", "--model", "vr", "--suite", "suite.ac1", "--out", "report.json"],
            ["run", "--model", "vr", "--suite", "suite.ac1", "--mutant", "keep-phase2",
             "--replay-log", "logs", "--out", "mutant.json"],
        ):
            assert cli(capsys, *argv)[0] in (0, 1)
        outputs.append({str(p.relative_to(directory)): p.read_bytes()
                        for p in directory.rglob("*") if p.is_file()})
    assert {"graph.ac1", "suite.ac1", "report.json", "mutant.json"} < set(outputs[0])
    assert outputs[0] == outputs[1]


def test_stats_answers_from_the_header(built, capsys):
    rc, out, _err = cli(capsys, "stats", built / "suite.ac1")
    assert rc == 0
    assert out.splitlines() == [
        '{"diameter": 15, "edges": 449, "kind": "suite", "paths": 108, "states": 310, '
        '"total_length": 1056}',
        "D=15 |V|=310 |E|=449 |P|=108 total=1056",
    ]
    rc, out, _err = cli(capsys, "stats", built / "graph.ac1")
    assert rc == 0
    assert out.splitlines() == [
        '{"diameter": 15, "edges": 449, "kind": "graph", "states": 310}',
        "D=15 |V|=310 |E|=449",
    ]


def test_stats_rejects_a_tampered_file(work, capsys):
    rc, _out, err = cli(capsys, "stats", edit_body(work))
    assert rc == 2
    assert "line 1: content hash mismatch" in err


# sha256 of `run --out report.json --replay-log logs` on the min suite of the
# conftest vr bounds: the report, then each replay log's name and bytes.
# Taken before graph files were read into a TransitionGraph; the three that
# write logs were taken again when replay logs got the AC1 header, after
# checking that every report and every log's R lines stayed byte-identical,
# and again when logs came to end at the failing step and be shared by the
# paths failing on one prefix, after checking that every report and every
# log name stayed byte-identical and that each log's R lines are the first
# ``steps`` R lines of the previous full-path log of the path its header names.
RUN_DIGESTS = {
    "correct": "ba9318268953a67e659ae8e2ef49c1d22ddcb752fdcc2daa1ea7bb44c035f198",
    "keep-phase2": "3e09bc173744b98016d7e56c01c464b28864560f7812dd0091abd94b8e49e82c",
    "no-commit-broadcast": "0bb83d5d964184dc2dd9025bd58928ab2beeedf40f0720c3d68314f03bc15106",
    "prepend-entry": "ba9318268953a67e659ae8e2ef49c1d22ddcb752fdcc2daa1ea7bb44c035f198",
    "skip-commit": "110bbf9a7bec94ad058f313599c9f035a492fedd2d4cc8e627b3bb10b37785f8",
    "stale-prepare": "ba9318268953a67e659ae8e2ef49c1d22ddcb752fdcc2daa1ea7bb44c035f198",
}


@pytest.mark.parametrize("mutant", sorted(RUN_DIGESTS))
def test_run_outputs_are_pinned_byte_for_byte(work, monkeypatch, capsys, mutant):
    monkeypatch.chdir(work)
    argv = ["run", "--model", "vr", "--suite", "suite.ac1", "--out", "report.json",
            "--replay-log", "logs"]
    if mutant != "correct":
        argv += ["--mutant", mutant]
    assert cli(capsys, *argv)[0] in (0, 1)
    digest = hashlib.sha256((work / "report.json").read_bytes())
    for log in sorted((work / "logs").glob("*.replay")):
        digest.update(log.name.encode("utf-8") + b"\0" + log.read_bytes())
    assert digest.hexdigest() == RUN_DIGESTS[mutant]


def damage_graph(work, edit):
    """Apply ``edit`` to the graph file's body lines, under a matching hash."""
    graph = work / "graph.ac1"
    header, *body = graph.read_bytes().splitlines()
    return rewrite_bytes(graph, header, edit(body))


def first_edge(body, replace):
    at = next(i for i, line in enumerate(body) if line.startswith(b"E\t"))
    return body[:at] + [replace(body[at])] + body[at + 1:]


def first_action(action):
    """A graph whose first E line carries ``action``, under a matching hash."""
    return lambda body: first_edge(body, lambda e: b"\t".join(e.split(b"\t")[:3] + [action]))


def state_5(body, replace):
    """Edit the S line of state 5 (line 6), which holds one StartViewChange event."""
    assert body[4].startswith(b"S\t5\t") and body[4].count(b'"kind":') == 1
    return body[:4] + [replace(body[4])] + body[5:]


EVENTS_SET = re.compile(rb'"events":\{"\$set":(\[.*?\])\}')


def same_bad_action(body):
    """Lines 313 and 320 (E lines 2 and 9) carry one action text that does not parse."""
    for at in (311, 318):
        src, dst = body[at].split(b"\t")[1:3]
        body[at] = b"\t".join([b"E", src, dst, b'{"kind":"explode"}'])
    return body


@pytest.mark.parametrize(
    "edit, line, says",
    [
        # 310 S lines (lines 2-311), then E lines; the first is line 312.
        (lambda body: first_edge(body, lambda e: b"E\t1\t999\t" + e.split(b"\t")[3]), 312,
         "edge endpoint out of range: 1->999"),
        (lambda body: body[:5] + [b"X\t1"] + body[5:], 7, "unknown record 'X'"),
        (lambda body: body[:3] + [body[3].replace(b'"queriesCount"', b'"queries\xffCount"')]
         + body[4:], 5, "not UTF-8"),
        (lambda body: first_edge(body, lambda e: e + b"\xe2\x82"), 312, "not UTF-8"),
        # Shapes that parse as JSON but not as a ModelState.
        (lambda body: state_5(body, lambda s: EVENTS_SET.sub(b"", s).replace(b",,", b",")), 6,
         "bad state: 'events'"),
        (lambda body: state_5(body, lambda s: s.replace(b'"kind":"StartViewChange",', b"")), 6,
         "bad state: 'kind'"),
        (lambda body: state_5(body, lambda s: b"S\t5\t7"), 6, "bad state: "),
        (lambda body: state_5(body, lambda s: s.replace(b'"events":{"$set":[{', b'"events":[{{')),
         6, "bad state: "),
        (lambda body: state_5(body, lambda s: s.replace(b'"queriesCount":0',
                                                        b'"queriesCount":{"$set":7}')), 6,
         "bad state: 'int' object is not iterable"),
        (same_bad_action, 313, "bad edge: unknown action kind 'explode'"),
        # Actions that name the wrong fields for their kind: no emulator can take them.
        (first_action(b'{"kind":"deliver"}'), 312, "bad edge: deliver requires an event"),
        (lambda body: first_edge(body, lambda e: e.replace(b'"kind":"inject"',
                                                           b'"kind":"inject","target":0')),
         312, "bad edge: inject takes no target"),
        (first_action(b'{"drops":[],"kind":"crash","target":0}'), 312,
         "bad edge: crash takes no drops"),
        # A kind that is none takes no fields at all; the kind is named, not a key.
        (first_action(b'{"kind":"explode","x":1}'), 312, "bad edge: unknown action kind 'explode'"),
        # An actor id is a non-negative int, and true is not one, although True == 1.
        (first_action(b'{"kind":"crash","target":true}'), 312,
         "bad edge: crash target True is not an actor id"),
        (first_action(b'{"kind":"restart","target":-1}'), 312,
         "bad edge: restart target -1 is not an actor id"),
    ],
    ids=["endpoint-out-of-range", "unknown-record", "state-not-utf8", "edge-not-utf8",
         "state-without-events", "event-without-kind", "state-is-an-int", "events-not-json",
         "set-of-an-int", "same-bad-action-twice", "deliver-without-event",
         "inject-with-a-target", "crash-with-drops", "unknown-kind-with-a-stray-key",
         "crash-of-true", "restart-of-minus-one"],
)
def test_gensuite_rejects_a_bad_graph_line_with_its_line(work, capsys, edit, line, says):
    # run reads the same graph through its suite and rejects it at the same line.
    graph = damage_graph(work, edit)
    assert_both_reject(work, capsys, graph, line, says)


@pytest.mark.parametrize(
    "events",
    [rb'"events":\1', b'"events":{}', b'"events":""'],
    ids=["plain-array", "empty-record", "empty-string"],
)
def test_gensuite_and_run_accept_the_same_events_values(work, capsys, events):
    # The state parser iterates `events` as canon's value of it iterates: an
    # array of events, or an empty record or string, gives a state as surely
    # as a set does.
    graph = damage_graph(work, lambda body: state_5(body, lambda s: EVENTS_SET.sub(events, s)))
    assert cli(capsys, "gensuite", "--graph", graph)[0] == 0
    suite = repin_suite(work)
    assert cli(capsys, "run", "--model", "vr", "--suite", suite)[0] in (0, 1)


def reversed_keys(value):
    """A decoded JSON ``value`` with every object's keys in reverse order."""
    if isinstance(value, dict):
        return {key: reversed_keys(value[key]) for key in reversed(value)}
    if isinstance(value, list):
        return [reversed_keys(v) for v in value]
    return value


def test_gensuite_and_run_accept_a_state_that_is_not_canonical_text(work, capsys):
    # Spaces and unsorted keys: the same state value, in other text.
    def respell(line):
        state = json.loads(line.split(b"\t", 2)[2])
        return b"S\t5\t" + json.dumps(reversed_keys(state)).encode("ascii")

    graph = damage_graph(work, lambda body: state_5(body, respell))
    assert b'{"globals": ' in graph.read_bytes().splitlines()[5]
    assert cli(capsys, "gensuite", "--graph", graph)[0] == 0
    suite = repin_suite(work)
    assert cli(capsys, "run", "--model", "vr", "--suite", suite)[0] == 0


def last_state_moved_to_the_end(body):
    assert body[309].startswith(b"S\t310\t") and body[310].startswith(b"E\t")
    return body[:309] + body[310:] + body[309:310]


def test_an_edge_may_name_a_state_listed_after_it(work, capsys):
    # Endpoints are checked once every S line is read.
    graph = damage_graph(work, last_state_moved_to_the_end)
    assert cli(capsys, "gensuite", "--graph", graph)[0] == 0


def test_run_rejects_a_suite_line_that_is_not_utf8(work, capsys):
    suite = work / "suite.ac1"
    header, *body = suite.read_bytes().splitlines()
    rewrite_bytes(suite, header, body[:2] + [body[2] + b"\x80"] + body[3:])
    rc, _out, err = cli(capsys, "run", "--model", "vr", "--suite", suite)
    assert rc == 2
    assert err.startswith(f"error: {suite}: line 4: not UTF-8"), err


def test_gensuite_rejects_an_edge_list_that_is_not_utf8(tmp_path, capsys):
    edges = tmp_path / "edges.txt"
    edges.write_bytes(b"1 2\n2 \xff3\n")
    rc, _out, err = cli(capsys, "gensuite", "--graph", edges)
    assert rc == 2
    assert err.startswith(f"error: {edges}: line 2: not UTF-8"), err


def test_replay_rejects_a_log_that_is_not_utf8(vr_log, tmp_path, capsys):
    log = tmp_path / "bad.replay"
    header, *body = vr_log.read_bytes().splitlines()
    rewrite_bytes(log, header, body[:1] + [b"\xfe" + body[1]] + body[2:])
    rc, _out, err = cli(capsys, "replay", "--model", "vr", "--log", log)
    assert rc == 2
    assert err.startswith(f"error: {log}: line 3: not UTF-8"), err


def test_replay_mutant_reproduces_the_logged_failure(work, capsys):
    suite, logs, report = work / "suite.ac1", work / "logs", work / "report.json"
    assert cli(capsys, "run", "--model", "vr", "--suite", suite, "--mutant", "skip-commit",
               "--replay-log", logs, "--out", report)[0] == 1
    verdicts = json.loads(report.read_text(encoding="utf-8"))["verdicts"]
    failed = next(v for v in verdicts if v["status"] != "PASS")
    log = logs / f"path_{failed['path']}.replay"
    rc, out, _err = cli(capsys, "replay", "--model", "vr", "--log", log,
                        "--mutant", "skip-commit", "--suite", suite)
    assert rc == 1
    assert json.loads(out) == failed
    # The correct implementation passes the same log.
    rc, out, _err = cli(capsys, "replay", "--model", "vr", "--log", log)
    assert rc == 0
    assert json.loads(out)["status"] == "PASS"


def test_replay_rejects_an_unknown_mutant_before_reading_the_log(tmp_path, capsys):
    rc, _out, err = cli(capsys, "replay", "--model", "vr", "--log", tmp_path / "missing.replay",
                        "--mutant", "bogus")
    assert rc == 2
    assert err == ("error: unknown mutant 'bogus' (known: keep-phase2, no-commit-broadcast, "
                   "prepend-entry, skip-commit, stale-prepare)\n")


@pytest.mark.parametrize(
    "argv, output",
    [
        (["explore", *KV_TINY, "--out", "{missing}/graph.ac1"], "{missing}/graph.ac1"),
        (["explore", *KV_TINY, "--dot", "{missing}/graph.dot"], "{missing}/graph.dot"),
        (["gensuite", "--graph", "{work}/graph.ac1", "--out", "{missing}/suite.ac1"],
         "{missing}/suite.ac1"),
        (["run", "--model", "vr", "--suite", "{work}/suite.ac1", "--out", "{missing}/r.json"],
         "{missing}/r.json"),
        # A directory cannot be made under a regular file.
        (["run", "--model", "vr", "--suite", "{work}/suite.ac1", "--mutant", "keep-phase2",
          "--replay-log", "{work}/suite.ac1/logs"], "{work}/suite.ac1/logs"),
    ],
    ids=["explore-out", "explore-dot", "gensuite-out", "run-out", "run-replay-log"],
)
def test_an_unwritable_output_exits_2_naming_it(work, capsys, argv, output):
    names = {"work": work, "missing": work / "missing"}
    rc, _out, err = cli(capsys, *[a.format(**names) for a in argv])
    assert rc == 2
    assert err.startswith(f"error: {output.format(**names)}: "), err
    assert "Traceback" not in err and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["gensuite", "--graph", "{missing}"],
        ["run", "--model", "vr", "--suite", "{missing}"],
        ["stats", "{missing}"],
        ["replay", "--model", "vr", "--log", "{missing}"],
    ],
    ids=["gensuite", "run", "stats", "replay"],
)
def test_a_missing_input_is_named_without_a_line(tmp_path, capsys, argv):
    missing = tmp_path / "missing.ac1"
    rc, _out, err = cli(capsys, *[a.format(missing=missing) for a in argv])
    assert rc == 2
    assert err == f"error: {missing}: No such file or directory\n"


@pytest.mark.parametrize("value", ["5", "null", '"x"', "[1]", "true"])
@pytest.mark.parametrize("field", ["bounds", "stats"])
@pytest.mark.parametrize(
    "source, argv",
    [
        ("graph", ["gensuite", "--graph", "{file}"]),
        ("graph", ["stats", "{file}"]),
        ("suite", ["run", "--model", "vr", "--suite", "{file}", "--mutant", "keep-phase2",
                   "--replay-log", "{dir}/logs"]),
        ("suite", ["stats", "{file}"]),
        ("log", ["replay", "--model", "vr", "--log", "{file}"]),
        ("log", ["stats", "{file}"]),
    ],
    ids=["gensuite", "stats-graph", "run", "stats-suite", "replay", "stats-log"],
)
def test_a_header_field_that_is_not_a_record_exits_2(built, vr_log, tmp_path, capsys, source,
                                                      argv, field, value):
    original = {"graph": built / "graph.ac1", "suite": built / "suite.ac1", "log": vr_log}[source]
    damaged = tmp_path / original.name
    header, body = original.read_bytes().split(b"\n", 1)
    # The content hash leaves the header out, so the file needs no new hash.
    damaged.write_bytes(with_field(header, field.encode(), value.encode()) + b"\n" + body)
    rc, out, err = cli(capsys, *[a.format(file=damaged, dir=tmp_path) for a in argv])
    assert (rc, out) == (2, "")
    assert err == f"error: {damaged}: line 1: bad header: {field}={value} is not a record\n"
    assert not (tmp_path / "logs").exists()


@pytest.mark.parametrize(
    "argv, says",
    [
        (["--model", "kv", "--faults", "crash,dorp"],
         "unknown fault 'dorp' (known: corrupt, crash, drop)"),
        (["--model", "kv", "--faults", "drop,x,,crash,y"],
         "unknown fault 'x', 'y' (known: corrupt, crash, drop)"),
        (["--model", "vr", "--faults", "crash"],
         "vr has no fault actions: --faults crash is for kv only"),
    ],
    ids=["kv-typo", "kv-two-unknown", "vr"],
)
def test_explore_rejects_bad_faults(tmp_path, capsys, argv, says):
    rc, out, err = cli(capsys, "explore", *argv, "--replicas", "2", "--max-queries", "1",
                       "--out", tmp_path / "graph.ac1")
    assert (rc, out) == (2, "")
    assert err == f"error: {says}\n"
    assert not (tmp_path / "graph.ac1").exists()


def explored(capsys, *argv):
    """explore's stats line without its wall time, and its stderr."""
    rc, out, err = cli(capsys, "explore", *argv, "--replicas", "2", "--max-queries", "1")
    assert rc == 0
    stats = json.loads(out)
    del stats["explore_seconds"]
    return stats, err


@pytest.mark.parametrize(
    "model, faults, same_as",
    [("kv", "crash,", "crash"), ("kv", ",crash,,", "crash"), ("kv", ",", ""), ("vr", ",", "")],
)
def test_explore_ignores_empty_fault_items(capsys, model, faults, same_as):
    got = explored(capsys, "--model", model, "--faults", faults)
    assert got == explored(capsys, "--model", model, "--faults", same_as)
    if same_as == "crash":
        assert (got[0]["states"], got[0]["edges"]) == (20, 52)


@pytest.mark.parametrize(
    "action, detail",
    [(b'{"kind":"restart","target":0}', "actor 0 is not crashed")],
    ids=["restart-of-a-live-actor"],
)
def test_run_reports_an_illegal_action_and_replays_it(work, capsys, action, detail):
    # The first edge leaves state 1; 52 of the 108 paths take it and fail there, together.
    damage_graph(work, first_action(action))
    suite, logs = repin_suite(work), work / "logs"
    rc, out, _err = cli(capsys, "run", "--model", "vr", "--suite", suite, "--replay-log", logs)
    assert rc == 1
    totals, summary, *failures = out.splitlines()
    assert json.loads(totals) == {"ACTOR_FAILURE": 0, "EVENTS_MISMATCH": 0, "ILLEGAL_ACTION": 52,
                                  "PASS": 56, "STATE_MISMATCH": 0}
    assert summary.endswith("; 52 replay logs in 1 files")
    assert len(failures) == 52
    assert all(re.fullmatch(rf"  path \d+: ILLEGAL_ACTION at step 1: {re.escape(detail)}", f)
               for f in failures)
    assert len({p.stat().st_ino for p in logs.iterdir()}) == 1
    rc, out, _err = cli(capsys, "replay", "--model", "vr", "--suite", suite,
                        "--log", sorted(logs.iterdir())[-1])
    assert rc == 1
    verdict = json.loads(out)
    assert (verdict["status"], verdict["failing_step"], verdict["detail"]) == (
        "ILLEGAL_ACTION", 1, detail)


def one_more(match):
    return b'"steps":%d' % (int(match.group(1)) + 1)


@pytest.mark.parametrize(
    "pattern, value, says",
    [
        (rb'"suite":"[0-9a-f]+"', b'"suite":5', "suite=5 is not a sha256 hex digest"),
        (rb'"suite":"[0-9a-f]+"', b'"suite":"x"', 'suite="x" is not a sha256 hex digest'),
        (rb'"suite":"[0-9a-f]+"', b'"suite":null', "suite=null is not a sha256 hex digest"),
        (rb'"path":\d+', b'"path":[1]', "path=[1] is not a non-negative int"),
        (rb'"path":\d+', b'"path":-1', "path=-1 is not a non-negative int"),
        (rb'"path":\d+', b'"path":true', "path=true is not a non-negative int"),
        (rb'"steps":\d+', b'"steps":"x"', 'steps="x" is not a non-negative int'),
        (rb'"steps":(\d+)', one_more, "steps={steps}, but the log has {lines} R lines"),
    ],
    ids=["suite-5", "suite-x", "suite-null", "path-list", "path-negative", "path-true",
         "steps-x", "steps-one-too-many"],
)
def test_replay_rejects_a_bad_log_header_stat_at_line_1(built, vr_log, tmp_path, capsys,
                                                         pattern, value, says):
    log = tmp_path / "bad.replay"
    header, body = vr_log.read_bytes().split(b"\n", 1)
    damaged, count = re.subn(pattern, value, header)
    assert count == 1
    # The content hash leaves the header out, so the file needs no new hash.
    log.write_bytes(damaged + b"\n" + body)
    lines = body.count(b"\n")
    says = says.format(steps=lines + 1, lines=lines)
    rc, out, err = cli(capsys, "replay", "--model", "vr", "--log", log,
                       "--suite", built / "suite.ac1")
    assert (rc, out) == (2, "")
    assert err == f"error: {log}: line 1: bad header: {says}\n"


@pytest.mark.parametrize(
    "argv, says",
    [
        (["--model", "kv", "--max-views", "5"], "kv has no --max-views bound"),
        (["--model", "kv", "--max-views", "1"], "kv has no --max-views bound"),
        (["--model", "vr", "--max-gets", "3"], "vr has no --max-gets bound"),
        (["--model", "vr", "--max-gets", "0"], "vr has no --max-gets bound"),
    ],
    ids=["kv-max-views", "kv-max-views-at-vr-default", "vr-max-gets", "vr-max-gets-at-kv-default"],
)
def test_explore_rejects_a_bound_flag_its_model_has_not(tmp_path, capsys, argv, says):
    rc, out, err = cli(capsys, "explore", *argv, "--replicas", "2", "--max-queries", "1",
                       "--out", tmp_path / "graph.ac1")
    assert (rc, out) == (2, "")
    assert err == f"error: {says}\n"
    assert not (tmp_path / "graph.ac1").exists()


@pytest.mark.parametrize("model, bounds", [("kv", KvBounds()), ("vr", VrBounds())])
def test_bound_flags_left_out_take_the_bounds_defaults(model, bounds):
    args = build_parser().parse_args(["explore", "--model", model])
    assert get_system(model).make_bounds(args) == bounds


def test_explore_exits_1_with_an_invariant_violation_and_its_counterexample(monkeypatch,
                                                                            capsys):
    # A model that commits without a quorum breaks prefix consistency after a view change.
    buggy = replace(systems.REGISTRY["vr"],
                    make_model=lambda bounds: VrModel(bounds, commit_without_quorum=True))
    monkeypatch.setitem(systems.REGISTRY, "vr", buggy)
    rc, out, _err = cli(capsys, "explore", "--model", "vr", "--replicas", "3",
                        "--max-queries", "2", "--max-views", "1")
    assert rc == 1
    lines = out.splitlines()
    assert lines[:2] == [
        'invariant PrefixLogConsistency violated at state 6959: replica 0 committed '
        '[{"op":1,"view":0}] but replica 1 committed [{"op":2,"view":1}]',
        "shortest counterexample path from state 1:",
    ]
    assert len(lines) == 10
    assert lines[2].endswith("-> state 5") and lines[-1].endswith("-> state 6959")
    assert all(re.fullmatch(r"  \{.*\} -> state \d+", line) for line in lines[2:])


def test_explore_exits_1_with_a_quiescence_violation(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(VrModel, "quiescence_violation", lambda self, state: "stuck")
    rc, out, _err = cli(capsys, "explore", "--model", "vr", *BOUNDS,
                        "--out", tmp_path / "graph.ac1")
    assert rc == 1
    # The sink's BFS tree path is printed as an invariant's counterexample is.
    lines = out.splitlines()
    assert lines[:2] == ["quiescent sink 114 violates progress: stuck",
                         "shortest counterexample path from state 1:"]
    # Seven steps: a view change to view 1, then the one request, injected and delivered.
    assert len(lines) == 2 + 7
    assert lines[2].endswith("-> state 5") and lines[-1].endswith("-> state 114")
    assert all(re.fullmatch(r"  \{.*\} -> state \d+", line) for line in lines[2:])
    assert not (tmp_path / "graph.ac1").exists()


def _request(op):
    return "Request", -1, 0, {"op": op}


def _prepare(to, op, pos):
    return "Prepare", 0, to, {"commit": 0, "entry": {"op": op, "view": 0}, "pos": pos, "view": 0}


def _commit(to):
    return "Commit", 0, to, {"commit": 2, "view": 0}


# The tree path to the first sink that vr r3 q2 v0 finds stuck: (action
# kind, event kind, source, destination, payload, state reached).  Replica
# 1 takes Commit(2) with one entry in its log, and no later message
# carries commit 2.
PATH_TO_SINK_548 = [
    ("inject", *_request(1), 2),
    ("inject", *_request(2), 6),
    ("deliver", *_request(1), 22),
    ("deliver", *_request(2), 31),
    ("deliver", *_prepare(2, 1, 1), 50),
    ("deliver", *_prepare(2, 2, 2), 80),
    ("deliver", *_prepare(1, 1, 1), 129),
    ("deliver", "PrepareOk", 2, 0, {"pos": 2, "view": 0}, 261),
    ("deliver", *_commit(1), 342),
    ("deliver", *_prepare(1, 2, 2), 421),
    ("deliver", *_commit(2), 548),
]


def test_explore_prints_the_path_to_a_sink_that_violates_progress(capsys):
    rc, out, err = cli(capsys, "explore", "--model", "vr", "--replicas", "3",
                       "--max-queries", "2", "--max-views", "0")
    assert (rc, err) == (1, "")
    first, header, *steps = out.splitlines()
    assert first == "quiescent sink 548 violates progress: replica 1 committed 1 of 2 log entries"
    assert header == "shortest counterexample path from state 1:"
    got = []
    for line in steps:
        action, state = re.fullmatch(r"  (\{.*\}) -> state (\d+)", line).groups()
        action = json.loads(action)
        event = action.pop("event")
        assert list(action) == ["kind"]
        got.append((action["kind"], event["kind"], event["source"], event["destination"],
                    event["payload"], int(state)))
    assert got == PATH_TO_SINK_548


class _ClosedPipe:
    """A stdout whose reader has gone: every write raises EPIPE."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    def flush(self):
        pass


def test_a_closed_stdout_exits_2_with_one_error_line(work, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    rc = main(["run", "--model", "vr", "--suite", str(work / "suite.ac1")])
    devnull, sys.stdout = sys.stdout, sys.__stdout__
    devnull.close()
    assert devnull.name == os.devnull
    assert (rc, capsys.readouterr().err) == (2, "error: stdout: Broken pipe\n")


@pytest.mark.parametrize("argv", [["run", "--model", "vr", "--mutant", "keep-phase2", "--suite"],
                                  ["stats"]], ids=["while-running", "at-the-exit-flush"])
def test_a_pipe_whose_reader_has_gone_exits_2_without_a_traceback(work, argv):
    # run fails 75 paths and prints a line for each, past stdout's buffer;
    # stats prints two lines, which reach the pipe only when main flushes.
    read, write = os.pipe()
    os.close(read)
    src = Path(cli_module.__file__).parents[1]
    with open(write, "wb") as stdout:
        done = subprocess.run([sys.executable, "-m", "actorcover.cli", *argv, work / "suite.ac1"],
                              stdout=stdout, stderr=subprocess.PIPE, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)})
    assert (done.returncode, done.stderr) == (2, "error: stdout: Broken pipe\n")


def test_gensuite_exits_1_when_the_suite_leaves_an_edge_uncovered(tmp_path, monkeypatch,
                                                                   capsys):
    min_suite = cli_module.ALGORITHMS["min"]
    monkeypatch.setitem(cli_module.ALGORITHMS, "min",
                        lambda graph: TestSuite(min_suite(graph).paths[:-1]))
    edges = tmp_path / "edges.txt"
    edges.write_text("1 2\n1 3\n", encoding="utf-8")
    rc, out, err = cli(capsys, "gensuite", "--graph", edges, "--out", tmp_path / "suite.ac1")
    assert (rc, out) == (1, "")
    assert err == "error: 1 edges uncovered: [1]\n"
    assert not (tmp_path / "suite.ac1").exists()


# Graph size and min suite of vr with one replica, which commits at append.
ONE_REPLICA = {
    ("1", "1"): (10, 12, 4, 14),
    ("2", "1"): (31, 43, 11, 60),
    ("1", "2"): (19, 24, 6, 31),
}


@pytest.mark.parametrize("queries, views", sorted(ONE_REPLICA))
def test_one_replica_vr_passes_its_min_suite(tmp_path, capsys, queries, views):
    graph, suite = tmp_path / "graph.ac1", tmp_path / "suite.ac1"
    rc, out, _err = cli(capsys, "explore", "--model", "vr", "--replicas", "1",
                        "--max-queries", queries, "--max-views", views, "--out", graph)
    assert rc == 0
    stats = json.loads(out)
    rc, out, _err = cli(capsys, "gensuite", "--graph", graph, "--out", suite)
    assert rc == 0
    gen = json.loads(out)
    assert (stats["states"], stats["edges"], gen["paths"], gen["total_length"]) == \
        ONE_REPLICA[queries, views]
    rc, out, _err = cli(capsys, "run", "--model", "vr", "--suite", suite)
    assert rc == 0
    assert json.loads(out.splitlines()[0])["PASS"] == gen["paths"]


# Mutant -> failing paths of the 11 by status, at 1 replica, 2 queries and 1 view.
ONE_REPLICA_KILLS = {
    "keep-phase2": {},
    "no-commit-broadcast": {},
    "prepend-entry": {"STATE_MISMATCH": 8},
    "skip-commit": {},
    "stale-prepare": {},
}


def test_one_replica_kill_matrix(tmp_path, capsys):
    assert set(ONE_REPLICA_KILLS) == set(get_system("vr").mutants)
    graph, suite = tmp_path / "graph.ac1", tmp_path / "suite.ac1"
    assert main(["explore", "--model", "vr", "--replicas", "1", "--max-queries", "2",
                 "--max-views", "1", "--out", str(graph)]) == 0
    assert main(["gensuite", "--graph", str(graph), "--out", str(suite)]) == 0
    capsys.readouterr()
    for mutant, kills in sorted(ONE_REPLICA_KILLS.items()):
        rc, out, _err = cli(capsys, "run", "--model", "vr", "--suite", suite, "--mutant", mutant)
        totals = json.loads(out.splitlines()[0])
        assert {status: n for status, n in totals.items() if n and status != "PASS"} == kills
        assert (rc, totals["PASS"]) == (1 if kills else 0, 11 - sum(kills.values()))
