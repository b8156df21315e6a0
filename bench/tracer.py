"""Layer spans recorded from outside the program.

``Tracer.install`` wraps the public functions of each envlines module in
place (every module attribute bound to the function is replaced, so
``from .x import f`` bindings are wrapped too) and changes no file.  Each
wrapped call becomes a span with its start, end, parent span and self time
(duration minus the time covered by its child spans).  The two
high-frequency calls are aggregated per operation instead: the time and
number of ``evaluate_jet`` calls made by the family recipes, and the
number of ``LineFamily.coeff_jets`` requests and envelope points built.

``layer_metrics`` turns the span records of one round into the per-layer
metrics.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from typing import Callable

# public function -> span name
SPANS = {
    ("expr", "parse_expression"): "expr.parse_expression",
    ("family", "build_family_normalized"): "family.build",
    ("family", "build_family_general"): "family.build",
    ("family", "build_family_clairaut"): "family.build",
    ("family", "build_family_hedgehog"): "family.build",
    ("analysis", "assess_creativity"): "analysis.assess_creativity",
    ("analysis", "assess_uniqueness"): "analysis.assess_uniqueness",
    ("analysis", "find_gauss_singular_points"): "analysis.find_gauss_singular_points",
    ("analysis", "grid_profile"): "analysis.grid_profile",
    ("envelope", "verify_envelope"): "envelope.verify_envelope",
    ("discriminant", "sample_discriminant"): "discriminant.sample_discriminant",
    ("discriminant", "compare_methods"): "discriminant.compare_methods",
    ("svgplot", "render_scene"): "svgplot.render_scene",
    ("cli", "build_document"): "cli.build_document",
}
ROOT_SPAN = "cli.main"
JET_SPAN = "jets.evaluate_jet"

# per-layer metric -> the span whose self time it sums
SELF_TIME_METRICS = {
    "expr.parse_s": "expr.parse_expression",
    "family.build_s": "family.build",
    "jets.eval_s": JET_SPAN,
    "analysis.creativity_s": "analysis.assess_creativity",
    "analysis.singular_s": "analysis.find_gauss_singular_points",
    "analysis.uniqueness_s": "analysis.assess_uniqueness",
    "analysis.profile_s": "analysis.grid_profile",
    "envelope.sample_s": "envelope.sample_envelope",
    "envelope.sample_fine_s": "envelope.sample_envelope.fine",
    "envelope.verify_s": "envelope.verify_envelope",
    "discriminant.sample_s": "discriminant.sample_discriminant",
    "discriminant.compare_s": "discriminant.compare_methods",
    "cli.document_s": "cli.build_document",
    "cli.self_s": ROOT_SPAN,
    "svgplot.render_s": "svgplot.render_scene",
}
# per-layer metric -> the aggregated call count it sums
COUNT_METRICS = {
    "expr.evaluate_jet.calls": JET_SPAN,
    "family.coeff_jets.calls": "family.coeff_jets",
    "envelope.points": "envelope.envelope_point",
}
FIND_SINGULAR_CALLS = "analysis.find_singular.calls"
OVERHEAD = "trace.overhead_s"

UNITS = {**{name: "s" for name in SELF_TIME_METRICS},
         **{name: "count" for name in COUNT_METRICS},
         FIND_SINGULAR_CALLS: "count", OVERHEAD: "s"}


def _rebind(original: Callable, wrapper: Callable) -> None:
    """Point every envlines module attribute bound to ``original`` at ``wrapper``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "envlines" or name.startswith("envlines.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


class Tracer:
    """Spans of one process, kept in memory until the round ends."""

    def __init__(self) -> None:
        self.records: list[dict] = []
        self._stack: list[list] = []  # open spans: [span id, seconds covered by children]
        self._next_id = 0
        self._operation = 0
        self._grid_n = 0
        self._jet_seconds = 0.0
        self._counts: Counter = Counter()

    # -- wrappers -----------------------------------------------------------------

    def _span(self, name: str | Callable[..., str], fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += end - start
                self.records.append({
                    "operation": self._operation, "id": span_id, "parent": parent,
                    "name": name if isinstance(name, str) else name(*args, **kwargs),
                    "start": start, "end": end, "self": end - start - frame[1]})
        wrapper.__wrapped__ = fn
        return wrapper

    def _timed_calls(self, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._jet_seconds += elapsed
                self._counts[JET_SPAN] += 1
                if self._stack:
                    self._stack[-1][1] += elapsed
        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, key: str, fn: Callable) -> Callable:
        counts = self._counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _sample_name(self, family, creator, n, *rest) -> str:
        return "envelope.sample_envelope.fine" if n > self._grid_n else "envelope.sample_envelope"

    def install(self) -> Callable[[list[str]], int]:
        """Wrap the layers in place; returns the traced ``cli.main``."""
        import envlines.cli
        from envlines import envelope, family

        modules = {name.split(".")[-1]: module for name, module in sys.modules.items()
                   if name.startswith("envlines.")}
        for (module, attr), name in SPANS.items():
            original = getattr(modules[module], attr)
            _rebind(original, self._span(name, original))
        _rebind(envelope.sample_envelope, self._span(self._sample_name, envelope.sample_envelope))
        _rebind(envelope.envelope_point,
                self._counted("envelope.envelope_point", envelope.envelope_point))
        # only the recipes' calls: every jet a family computes goes through them
        family.evaluate_jet = self._timed_calls(family.evaluate_jet)
        family.LineFamily.coeff_jets = self._counted("family.coeff_jets",
                                                     family.LineFamily.coeff_jets)
        return self._span(ROOT_SPAN, envlines.cli.main)

    # -- operations ---------------------------------------------------------------

    def begin_operation(self, index: int, grid_n: int) -> None:
        self._operation, self._grid_n = index, grid_n
        self._jet_seconds = 0.0
        self._counts.clear()

    def end_operation(self) -> None:
        """Close the operation with its aggregated records, parented on its root span."""
        root = next((r["id"] for r in reversed(self.records)
                     if r["operation"] == self._operation and r["parent"] is None), None)
        self.records.append({"operation": self._operation, "parent": root, "name": JET_SPAN,
                             "calls": self._counts[JET_SPAN], "self": self._jet_seconds})
        for key in ("family.coeff_jets", "envelope.envelope_point"):
            self.records.append({"operation": self._operation, "parent": root, "name": key,
                                 "calls": self._counts[key]})


def layer_metrics(records: list[dict], operations: int) -> dict[str, float]:
    """Per-layer metrics of one traced round: self times in s and call counts."""
    self_time: Counter = Counter()
    calls: Counter = Counter()
    for record in records:
        self_time[record["name"]] += record.get("self", 0.0)
        calls[record["name"]] += record.get("calls", 1)
    metrics = {metric: self_time[span] for metric, span in SELF_TIME_METRICS.items()}
    metrics.update({metric: calls[span] for metric, span in COUNT_METRICS.items()})
    metrics[FIND_SINGULAR_CALLS] = calls["analysis.find_gauss_singular_points"] / operations
    return metrics
