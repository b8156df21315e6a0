"""One measured process: import envlines, run one round of a workload's
operations through ``envlines.cli.main``, report on standard output.

    python3 bench/worker.py setup WORKLOAD   # import only, for setup_s
    python3 bench/worker.py plain WORKLOAD   # one round, no tracing
    python3 bench/worker.py traced WORKLOAD  # one round with layer spans

The last line of standard output is one JSON object: the monotonic time at
which ``envlines.cli`` was ready, and for a round the exit code, output and
wall time of each operation, the peak resident set and, when traced, the
span records.  ``run.py`` starts this script with ``src`` on PYTHONPATH.
"""

import sys
import time

import envlines.cli

READY = time.monotonic()

import contextlib  # noqa: E402  (imports after the ready stamp are not set-up)
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def run_round(workload: str, traced: bool) -> dict:
    from workloads import WORKLOADS

    tracer = None
    main = envlines.cli.main
    if traced:
        from tracer import Tracer
        tracer = Tracer()
        main = tracer.install()
    ops = []
    for index, op in enumerate(WORKLOADS[workload]):
        out, err = io.StringIO(), io.StringIO()
        code, error = None, None
        if tracer is not None:
            tracer.begin_operation(index, op.grid_n)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(list(op.argv))
        except Exception:  # a crash fails this operation; the round goes on
            error = traceback.format_exc()
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.end_operation()
        ops.append({"code": code, "seconds": seconds, "stdout": out.getvalue(),
                    "stderr": err.getvalue(), "error": error})
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"ops": ops, "peak_rss_kb": peak_kb,
            "spans": tracer.records if tracer is not None else None}


def main() -> None:
    mode, workload = sys.argv[1], sys.argv[2]
    report = {"ready": READY}
    if mode != "setup":
        report.update(run_round(workload, traced=mode == "traced"))
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
