"""The benchmark's traced run wraps envlines functions by name: every name it
wraps must exist, or a refactor silently zeroes a traced layer."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    tracer = _tracer()
    wrapped = [*tracer.SPANS, ("envelope", "sample_envelope"), ("envelope", "envelope_point"),
               ("family", "evaluate_jet")]
    for module, attr in wrapped:
        assert callable(getattr(importlib.import_module(f"envlines.{module}"), attr, None)), \
            f"bench/tracer.py wraps envlines.{module}.{attr}, which does not exist"
    family = importlib.import_module("envlines.family")
    assert callable(family.LineFamily.coeff_jets)


def test_every_traced_span_records_calls():
    # a name that exists but is called through a binding the tracer cannot
    # rebind (a dict of functions, say) records no span and reads zero
    env = {key: value for key, value in os.environ.items() if key != "ENVELOPE_GRID_N"}
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "worker.py"), "traced",
                           "worked-examples"], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert all(op["error"] is None for op in report["ops"])
    calls = Counter(record["name"] for record in report["spans"] if "calls" not in record)
    expected = {*_tracer().SPANS.values(), "envelope.sample_envelope",
                "envelope.sample_envelope.fine"}
    assert {name for name in expected if calls[name] == 0} == set()
