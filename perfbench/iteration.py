"""One benchmark iteration, in a fresh process.

    python3 iteration.py SPEC_JSON

Run with the iteration's directory as the working directory.  Imports
actorcover from the checkout's ``src``, runs the spec's stages back to back
(CLI stages through ``actorcover.cli.main``, log replays through
``actorcover.conformance.replay``), then writes ``result.json``: stage
times and exit codes, the outputs the gate checks, the digests the
determinism check compares, the bytes written, and with ``trace`` set the
per-layer metrics.  The parent process gates the result.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import time
import traceback
from pathlib import Path

from gate import PASS_DIGEST, verdict_digest
from workloads import GRAPH, SUITE


def run_cli(cli, stage: dict, tracer) -> dict:
    argv = stage["argv"]
    call = cli.main if tracer is None else (lambda a: tracer.call(f"cli.{argv[0]}", cli.main, a))
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = call(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crashing stage is a failed operation, not a harness error
            traceback.print_exc()
            rc = -1
    seconds = time.perf_counter() - started
    sys.stderr.write(err.getvalue())
    stats = next((json.loads(line) for line in out.getvalue().splitlines() if line.startswith("{")), None)
    return {"label": stage["label"], "metric": stage["metric"], "seconds": seconds, "rc": rc,
            "stats": stats}


def run_replay(stage: dict, rng: random.Random, tracer) -> dict:
    """Replay one log, chosen by the seed, through the mutant's emulator factory."""
    from actorcover import conformance
    from actorcover.systems import get_system

    record = {"label": stage["label"], "metric": stage["metric"], "seconds": 0.0, "path": None}
    logs = sorted(Path(stage["logs"]).glob("*.replay"))
    if not logs:  # the mutant survived: there is nothing to replay
        return record
    log = rng.choice(logs)

    def replay():
        spec = get_system(stage["model"])
        bounds = spec.bounds_from_value(conformance.read_replay_log(log).bounds)
        return conformance.replay(str(log), lambda: spec.mutants[stage["mutant"]](bounds))

    started = time.perf_counter()
    try:
        verdict = replay() if tracer is None else tracer.call("cli.replay", replay)
        record["path"] = verdict.path_id
        record["digest"] = verdict_digest(verdict.status, verdict.failing_step, verdict.detail)
    except Exception:
        traceback.print_exc()
        record["path"] = int(log.stem.split("_")[-1])
        record["digest"] = "replay raised"
    record["seconds"] = time.perf_counter() - started
    return record


def observe_report(record: dict, path: Path) -> None:
    """Report digest, kill-matrix totals and every non-PASS verdict's digest."""
    if not path.exists():
        return
    data = path.read_bytes()
    record["report_sha256"] = hashlib.sha256(data).hexdigest()
    report = json.loads(data)
    record["totals"] = report["totals"]
    record["paths"] = len(report["verdicts"])
    failing = {}
    for v in report["verdicts"]:
        digest = verdict_digest(v["status"], v["failing_step"], v["detail"])
        if digest != PASS_DIGEST:
            failing[str(v["path"])] = digest
    record["failing"] = failing


def logs_digest(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.glob("*")):
        digest.update(path.name.encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    src = Path(spec["root"], "src").resolve()
    sys.path.insert(0, str(src))
    from actorcover import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"error: actorcover was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    rng = random.Random(spec["seed"])

    records = []
    first_call = time.perf_counter()
    for stage in spec["stages"]:
        if "argv" in stage:
            records.append(run_cli(cli, stage, tracer))
        else:
            records.append(run_replay(stage, rng, tracer))

    # Everything below is outside the timed stages.
    digests = {}
    disk_bytes = 0
    for name in (GRAPH, SUITE):
        if Path(name).exists():
            disk_bytes += Path(name).stat().st_size
    if Path(GRAPH).exists():
        digests["graph"] = hashlib.sha256(Path(GRAPH).read_bytes()).hexdigest()
    for record, stage in zip(records, spec["stages"]):
        if "argv" not in stage:
            continue
        if "report" in stage:
            observe_report(record, Path(stage["report"]))
            digests[f"report {stage['label']}"] = record.get("report_sha256")
        logs = Path(stage.get("logs", ""))
        if "logs" in stage and logs.is_dir():
            digests[f"logs {stage['label']}"] = logs_digest(logs)
            disk_bytes += sum(p.stat().st_size for p in logs.iterdir())
    result = {"first_call": first_call, "stages": records, "digests": digests,
              "disk_bytes": disk_bytes}
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
        result["layers"].update(tracing.canon_probe(tracing.state_texts(tracer, spec["graph_file"])))
        tracer.write(Path(spec["spans_out"]))
    Path("result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
