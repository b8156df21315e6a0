"""Self-tests of the benchmark's output checks.

Each check must accept the program's real output and reject a perturbed
copy of it.  Run from the repository root:

    python3 -m pytest -q bench/test_checks.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import run  # noqa: E402
from workloads import DEFAULT_DOMAIN, DEFAULT_GRID_N, SINE_TANGENT  # noqa: E402

from envlines.cli import main  # noqa: E402


def _run(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        main(list(argv))
    return out.getvalue()


@pytest.fixture(scope="module")
def validator():
    return run._load_validator()


@pytest.fixture(scope="module")
def outputs() -> dict[str, str]:
    return {
        "example1": _run("analyze", "--example", "1"),
        "example2": _run("analyze", "--example", "2"),
        "example5": _run("analyze", "--example", "5"),
        "example6": _run("analyze", "--example", "6"),
        "envelope": _run("envelope", *SINE_TANGENT, "--format", "csv"),
        "discriminant": _run("discriminant", *SINE_TANGENT, "--format", "csv"),
        "compare": _run("compare", *SINE_TANGENT),
        "plot": _run("plot", *SINE_TANGENT),
    }


def _analyze(text: str, example: int, validator) -> list[str]:
    return checks.check_analyze(text, checks.EXAMPLES[example], validator)


def _edit_json(text: str, edit) -> str:
    doc = json.loads(text)
    edit(doc)
    return json.dumps(doc)


def test_real_outputs_pass(outputs, validator):
    for example in (1, 2, 5, 6):
        assert _analyze(outputs[f"example{example}"], example, validator) == []
    assert checks.check_envelope_csv(outputs["envelope"], DEFAULT_DOMAIN, DEFAULT_GRID_N) == []
    assert checks.check_discriminant_csv(outputs["discriminant"], DEFAULT_DOMAIN) == []
    assert checks.check_compare(outputs["compare"], DEFAULT_DOMAIN) == []
    assert checks.check_svg(outputs["plot"]) == []


def _move_sample(doc):
    doc["envelope"]["samples"][400][2] += 1e-6


def _flip_verdict(doc):
    doc["creativity"]["verdict"] = "not_creative"


def _flip_uniqueness(doc):
    doc["uniqueness"]["verdict"] = "non_unique"


def _drop_singular(doc):
    del doc["gauss_singular_points"][3]


def _move_singular(doc):
    doc["gauss_singular_points"][2]["t"] += 1e-6


def _move_polluted_line(doc):
    doc["discriminant"]["polluted_lines"][0]["offset"] += 1e-6


def _drop_comparison_failure(doc):
    doc["comparison"]["failure_ts"].pop()


def _fail_verification(doc):
    doc["envelope"]["verification"]["pass"] = False


def _break_schema(doc):
    del doc["tolerances"]


@pytest.mark.parametrize("edit", [
    _move_sample, _flip_verdict, _flip_uniqueness, _drop_singular, _move_singular,
    _move_polluted_line, _drop_comparison_failure, _fail_verification, _break_schema,
])
def test_sine_tangent_document_perturbed(outputs, validator, edit):
    assert _analyze(_edit_json(outputs["example1"], edit), 1, validator)


def test_other_documents_perturbed(outputs, validator):
    def drop_point(doc):
        doc["gauss_singular_points"].clear()

    def nonzero_fill(doc):
        doc["creator"]["flat_intervals"][0]["fill"] = 1e-6

    def resolvable(doc):
        doc["gauss_singular_points"][0]["resolvable"] = True

    def whole_line(doc):
        doc["discriminant"]["whole_line_count"] = 1

    assert _analyze(_edit_json(outputs["example5"], drop_point), 5, validator)
    assert _analyze(_edit_json(outputs["example2"], nonzero_fill), 2, validator)
    assert _analyze(_edit_json(outputs["example6"], resolvable), 6, validator)
    assert _analyze(_edit_json(outputs["example6"], whole_line), 6, validator)
    assert _analyze(_edit_json(outputs["example6"], _drop_singular), 6, validator)
    assert _analyze(outputs["example1"][:-100], 1, validator)


def _move_csv_value(text: str, row: int, column: int, delta: float) -> str:
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[column] = repr(float(cells[column]) + delta)
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_envelope_csv_perturbed(outputs):
    moved = _move_csv_value(outputs["envelope"], 300, 2, 1e-6)
    assert checks.check_envelope_csv(moved, DEFAULT_DOMAIN, DEFAULT_GRID_N)
    short = "\n".join(outputs["envelope"].splitlines()[:-1]) + "\n"
    assert checks.check_envelope_csv(short, DEFAULT_DOMAIN, DEFAULT_GRID_N)


def test_discriminant_csv_perturbed(outputs):
    text = outputs["discriminant"]
    assert checks.check_discriminant_csv(_move_csv_value(text, 10, 3, 1e-6), DEFAULT_DOMAIN)
    lines = text.splitlines()
    whole = [i for i, line in enumerate(lines) if ",whole_line," in line]
    dropped = "\n".join(line for i, line in enumerate(lines) if i != whole[0]) + "\n"
    assert checks.check_discriminant_csv(dropped, DEFAULT_DOMAIN)
    empty = text.replace(",whole_line,", ",empty,", 1)
    assert checks.check_discriminant_csv(empty, DEFAULT_DOMAIN)


def test_compare_perturbed(outputs):
    ok = _edit_json(outputs["compare"], lambda doc: doc.update(widespread_ok=True))
    assert checks.check_compare(ok, DEFAULT_DOMAIN)
    dropped = _edit_json(outputs["compare"], lambda doc: doc["failure_ts"].pop(0))
    assert checks.check_compare(dropped, DEFAULT_DOMAIN)


def test_svg_perturbed(outputs):
    svg = outputs["plot"]
    assert checks.check_svg(svg[: len(svg) // 2])
    assert checks.check_svg(svg.replace('width="800"', 'width="640"', 1))
    assert checks.check_svg(svg.replace("<polyline", "<path", 1))


def test_round_rejects_wrong_exit_code_and_crash(outputs, validator):
    good = {"code": 0, "seconds": 1.0, "stdout": outputs["example1"], "stderr": "",
            "error": None}
    assert run.check_round("worked-examples", {"ops": [good]}, validator) == []
    wrong_code = {**good, "code": 3}
    crashed = {**good, "code": None, "error": "Traceback ...\nRuntimeError: boom\n"}
    for result in (wrong_code, crashed):
        assert len(run.check_round("worked-examples", {"ops": [result]}, validator)) == 1
