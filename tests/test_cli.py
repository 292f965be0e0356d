"""End-to-end CLI runs on vr with 2 replicas, 1 query and 1 view (310 states).

The dot export and the single-worker flags are checked on a tiny kv graph.
"""

import hashlib
import json
import re
import shutil

import pytest

from actorcover import canon, dot
from actorcover.actors import EXTERNAL, Action, Event
from actorcover.cli import main
from actorcover.explore import Edge, TransitionGraph
from actorcover.model import ModelState

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
    assert cli(capsys, "run", "--model", "vr", "--suite", suite)[0] == 0
    assert cli(capsys, "run", "--model", "vr", "--suite", suite, "--mutant", "skip-commit")[0] == 1


def test_run_fail_fast_stops_after_the_first_failing_path(work, capsys):
    # The min suite's path 0 already fails; baseline paths follow edge ids,
    # so several pass before skip-commit's first kill.
    suite = work / "baseline.ac1"
    assert cli(capsys, "gensuite", "--graph", work / "graph.ac1", "--algorithm", "baseline",
               "--out", suite)[0] == 0
    full, fast = work / "full.json", work / "fast.json"
    assert cli(capsys, "run", "--model", "vr", "--suite", suite, "--mutant", "skip-commit",
               "--out", full)[0] == 1
    rc, out, _err = cli(capsys, "run", "--model", "vr", "--suite", suite, "--mutant",
                        "skip-commit", "--fail-fast", "--out", fast)
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


def test_parallel_flags_accept_only_one(work, capsys):
    assert cli(capsys, "explore", *KV_TINY, "--workers", "1")[0] == 0
    assert cli(capsys, "run", "--model", "vr", "--suite", work / "suite.ac1", "--jobs", "1")[0] == 0
    for argv in (["explore", *KV_TINY, "--workers", "2"],
                 ["run", "--model", "vr", "--suite", work / "suite.ac1", "--jobs", "2"]):
        with pytest.raises(SystemExit) as info:
            cli(capsys, *argv)
        assert info.value.code == 2
        assert "invalid choice: 2" in capsys.readouterr().err


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
    text = dot.export_dot(TransitionGraph([state, state], [Edge(1, action, 2)]))
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
    text = "".join(line + "\n" for line in body)
    header = header.split("\t")
    header[-1] = "hash=" + hashlib.sha256(text.encode("utf-8")).hexdigest()
    suite.write_text("\t".join(header) + "\n" + text, encoding="utf-8")
    return suite


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
    ],
)
def test_run_rejects_bad_suites_with_a_line_number(work, capsys, damage, line, says):
    suite = damage(work)
    capsys.readouterr()
    rc, _out, err = cli(capsys, "run", "--model", "vr", "--suite", suite)
    assert rc == 2
    assert re.search(rf"{re.escape(str(suite))}: line {line}: ", err), err
    assert says in err


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
