"""The benchmark's traced run wraps envlines functions by name: every name it
wraps must exist, or a refactor silently zeroes a traced layer."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


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
