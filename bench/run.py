"""envlines benchmark: run one workload for a fixed time, check every output.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each round of the workload runs in a fresh
worker process (``worker.py``), one operation at a time through
``envlines.cli.main``; this process checks every output against closed
forms (``checks.py``) outside the timed region.  Rounds repeat until the
next one would overrun ``--seconds``; every run attempts whole rounds.

--trace 0 reports the end-to-end metrics, as medians over the run:
  wall_s       wall time of one round's operations
  peak_rss_mb  peak resident set of the process that ran the round
  setup_s      time from spawning a process until envlines.cli is imported
--trace 1 alternates untraced and traced rounds and reports the per-layer
metrics of the traced rounds (``tracer.py``), with the tracing overhead.

The workloads are fixed families with no random input, so ``--seed`` does
not change them; it is accepted and recorded.  The last line of standard
output is the result object; results and span traces also go to
``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SCHEMA = ROOT / "src" / "envlines" / "analysis_document.schema.json"
SETUP_SPAWNS = 5        # import-only processes per run, besides one per round
WORKER_TIMEOUT_S = 120  # one round; the slowest takes about 15 s traced

sys.path.insert(0, str(BENCH))
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class WorkerError(RuntimeError):
    pass


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    paths = [str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env.pop("ENVELOPE_GRID_N", None)  # the workloads rely on the default grid
    return env


def spawn(mode: str, workload: str) -> tuple[dict, float]:
    """Run one worker; returns its report and its set-up time in seconds."""
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), mode, workload],
            cwd=ROOT, env=_worker_env(), capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as err:
        raise WorkerError(f"{mode} worker exceeded {WORKER_TIMEOUT_S} s") from err
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()}")
    report = json.loads(lines[-1])
    return report, report["ready"] - start


def check_round(workload: str, report: dict, validator) -> list[str]:
    """One problem line per failed operation of the round."""
    failures = []
    for op, result in zip(WORKLOADS[workload], report["ops"]):
        if result["error"] is not None:
            problems = [result["error"].strip().splitlines()[-1]]
        elif result["code"] != op.exit_code:
            problems = [f"exit code {result['code']}, expected {op.exit_code}: "
                        f"{result['stderr'].strip()}"]
        else:
            problems = op.check(result["stdout"], validator)
        if problems:
            failures.append(f"envlines {' '.join(op.argv)}: {'; '.join(problems)}")
    return failures


def _load_validator():
    import jsonschema

    schema = json.loads(SCHEMA.read_text())
    return jsonschema.validators.validator_for(schema)(schema)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ops = WORKLOADS[args.workload]
    try:
        validator = _load_validator()
        spawn("setup", args.workload)  # warm-up: byte-compiles the sources
    except (OSError, WorkerError) as err:
        print(f"error: cannot start envlines from {ROOT / 'src'}: {err}", file=sys.stderr)
        return 1

    start = time.monotonic()
    setups: list[float] = []
    if not args.trace:
        setups = [spawn("setup", args.workload)[1] for _ in range(SETUP_SPAWNS)]
    kinds = ("plain", "traced") if args.trace else ("plain",)
    walls: dict[str, list[float]] = {kind: [] for kind in kinds}
    peaks: list[float] = []
    layers: list[dict[str, float]] = []
    spans: list[dict] = []
    attempted = failed = 0
    iterations = 0
    while True:
        for kind in kinds:
            attempted += len(ops)
            try:
                report, setup = spawn(kind, args.workload)
            except WorkerError as err:
                failed += len(ops)
                print(f"round failed: {err}", file=sys.stderr)
                continue
            failures = check_round(args.workload, report, validator)
            failed += len(failures)
            for line in failures:
                print(f"FAILED {line}", file=sys.stderr)
            walls[kind].append(sum(op["seconds"] for op in report["ops"]))
            if kind == "plain":
                setups.append(setup)
                peaks.append(report["peak_rss_kb"] / 1024.0)
            else:
                layers.append(tracer.layer_metrics(report["spans"], len(ops)))
                spans += [{"round": iterations, **record} for record in report["spans"]]
        iterations += 1
        elapsed = time.monotonic() - start
        if elapsed * (iterations + 1) / iterations > args.seconds:
            break

    if args.trace:
        metrics = {name: _metric(statistics.median(m[name] for m in layers), tracer.UNITS[name])
                   for name in layers[0]} if layers else {}
        if walls["plain"] and walls["traced"]:
            overhead = statistics.median(walls["traced"]) - statistics.median(walls["plain"])
            metrics[tracer.OVERHEAD] = _metric(overhead, "s")
    else:
        metrics = {}
        if walls["plain"]:
            metrics["wall_s"] = _metric(statistics.median(walls["plain"]), "s")
            metrics["peak_rss_mb"] = _metric(statistics.median(peaks), "MB")
        metrics["setup_s"] = _metric(statistics.median(setups), "s")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "rounds": {kind: len(w) for kind, w in walls.items()}, "walls": walls,
         **result}, indent=2) + "\n")
    if args.trace:
        with open(OUT / f"trace-{args.workload}.jsonl", "w") as handle:
            for record in spans:
                handle.write(json.dumps(record) + "\n")
    for name, metric in metrics.items():
        print(f"{args.workload:>18}  {name:<30} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
