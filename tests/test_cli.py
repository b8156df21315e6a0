import json
import math
import sys
from pathlib import Path

import jsonschema
import pytest

from envlines.cli import (
    EXIT_EXPR_ERROR,
    EXIT_INCONCLUSIVE,
    EXIT_NOT_CREATIVE,
    EXIT_OK,
    EXIT_USAGE,
    MAX_GRID_N,
    WORKED_EXAMPLES,
    UsageError,
    main,
    parse_cli,
    run_analyze,
    to_json,
)

SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "src" / "envlines"
     / "analysis_document.schema.json").read_text()
)

EXAMPLE1 = ["--A", "-cos t", "--B", "1", "--C", "t*cos t - sin t", "--domain", "-10:10"]
EVOLUTE = ["--A", "1", "--B", "cos t", "--C", "-t - cos t*sin t", "--domain", "-10:10"]


class TestParseCli:
    def test_analyze_normalized(self):
        config = parse_cli(["analyze", "--theta", "t", "--a", "0", "--domain", "-1:1"])
        assert config.command == "analyze"
        assert config.mode == "normalized"
        assert config.expressions == {"theta": "t", "a": "0"}
        assert config.domain == (-1.0, 1.0)
        assert config.grid_n == 1001

    def test_envelope_general_csv(self):
        config = parse_cli(["envelope", *EXAMPLE1, "--format", "csv"])
        assert config.mode == "general"
        assert config.expressions["A"] == "-cos t"
        assert config.format == "csv"

    def test_conflicting_modes(self):
        with pytest.raises(UsageError):
            parse_cli(["analyze", "--theta", "t", "--g", "t^2"])

    def test_missing_mode_flag(self):
        with pytest.raises(UsageError):
            parse_cli(["analyze", "--theta", "t"])

    def test_malformed_interval(self):
        with pytest.raises(UsageError):
            parse_cli(["analyze", "--theta", "t", "--a", "0", "--domain", "3"])
        with pytest.raises(UsageError):
            parse_cli(["analyze", "--theta", "t", "--a", "0", "--domain", "2:1"])

    def test_grid_n_minimum(self):
        with pytest.raises(UsageError):
            parse_cli(["analyze", "--theta", "t", "--a", "0", "--grid-n", "8"])

    def test_grid_n_ceiling(self, monkeypatch):
        base = ["analyze", "--theta", "t", "--a", "0"]
        assert parse_cli([*base, "--grid-n", str(MAX_GRID_N)]).grid_n == MAX_GRID_N
        with pytest.raises(UsageError):
            parse_cli([*base, "--grid-n", str(MAX_GRID_N + 1)])
        monkeypatch.setenv("ENVELOPE_GRID_N", str(MAX_GRID_N + 1))
        with pytest.raises(UsageError):
            parse_cli(base)

    def test_unknown_command_and_flag(self):
        with pytest.raises(UsageError):
            parse_cli(["frobnicate"])
        with pytest.raises(UsageError):
            parse_cli(["analyze", "--bogus", "1"])

    def test_clairaut_and_hedgehog_shortcuts(self):
        assert parse_cli(["analyze", "--g", "t^2"]).mode == "clairaut"
        assert parse_cli(["analyze", "--hedgehog", "1"]).mode == "hedgehog"

    def test_example_lookup(self):
        config = parse_cli(["analyze", "--example", "7"])
        assert config.mode == "clairaut"
        assert config.domain == (-2.0, 2.0)
        with pytest.raises(UsageError):
            parse_cli(["analyze", "--example", "99"])
        with pytest.raises(UsageError):
            parse_cli(["plot", "--example", "1"])

    def test_format_restrictions(self):
        with pytest.raises(UsageError):
            parse_cli(["analyze", "--theta", "t", "--a", "0", "--format", "svg"])

    def test_env_var_grid_default(self, monkeypatch):
        monkeypatch.setenv("ENVELOPE_GRID_N", "301")
        assert parse_cli(["analyze", "--theta", "t", "--a", "0"]).grid_n == 301
        # an explicit flag beats the environment
        assert parse_cli(["analyze", "--theta", "t", "--a", "0", "--grid-n", "41"]).grid_n == 41
        monkeypatch.setenv("ENVELOPE_GRID_N", "botched")
        with pytest.raises(UsageError):
            parse_cli(["analyze", "--theta", "t", "--a", "0"])


class TestAnalyzeDocument:
    def test_sine_tangent_document(self):
        config = parse_cli(["analyze", *EXAMPLE1])
        doc = run_analyze(config)
        assert doc["creativity"]["verdict"] == "creative"
        assert doc["uniqueness"]["verdict"] == "unique"
        assert doc["envelope"]["verification"]["pass"] is True
        assert doc["comparison"]["widespread_ok"] is False
        assert len(doc["gauss_singular_points"]) == 7
        jsonschema.validate(doc, SCHEMA)

    def test_evolute_document(self):
        config = parse_cli(["analyze", *EVOLUTE])
        doc = run_analyze(config)
        assert doc["creativity"]["verdict"] == "not_creative"
        assert "no envelope exists" in doc["creativity"]["notes"]
        assert doc["creator"] is None and doc["envelope"] is None
        jsonschema.validate(doc, SCHEMA)

    def test_still_family_document(self):
        config = parse_cli(["analyze", "--theta", "0", "--a", "0", "--domain", "-1:1"])
        doc = run_analyze(config)
        assert doc["creativity"]["verdict"] == "creative"
        assert doc["uniqueness"]["verdict"] == "non_unique"
        assert "under-determined" in doc["creativity"]["notes"]
        jsonschema.validate(doc, SCHEMA)

    def test_user_creator_recorded(self):
        config = parse_cli(["analyze", "--theta", "0", "--a", "0", "--domain", "-1:1",
                            "--user-b", "sin(t)"])
        doc = run_analyze(config)
        assert doc["creator"]["kind"] == "user"
        samples = doc["envelope"]["samples"]
        for t, x, y in samples:
            assert x == 0.0 and y == math.sin(t)

    def test_example_metadata_embedded(self):
        doc = run_analyze(parse_cli(["analyze", "--example", "1"]))
        assert doc["example"]["name"] == "sine-tangent"
        assert doc["creativity"]["verdict"] == doc["example"]["expected_verdict"]
        jsonschema.validate(doc, SCHEMA)

    def test_all_examples_match_expectations(self):
        for n, entry in WORKED_EXAMPLES.items():
            doc = run_analyze(parse_cli(["analyze", "--example", str(n)]))
            assert doc["creativity"]["verdict"] == entry["expected_verdict"], entry["name"]
            assert doc["uniqueness"]["verdict"] == entry["expected_uniqueness"], entry["name"]

    @pytest.mark.parametrize("grid_n", [101, 1001])
    def test_notes_do_not_depend_on_the_numpy_version(self, grid_n):
        # numpy 2 writes a numpy scalar as np.float64(1.0)
        for n in WORKED_EXAMPLES:
            doc = run_analyze(parse_cli(["analyze", "--example", str(n), "--grid-n", str(grid_n)]))
            assert "np." not in doc["creativity"]["notes"], n


class TestExitCodes:
    def test_creative_exit_zero(self, tmp_path):
        out = tmp_path / "doc.json"
        assert main(["analyze", *EXAMPLE1, "--output", str(out)]) == EXIT_OK
        assert out.exists()

    def test_not_creative_exit_three(self, tmp_path):
        out = tmp_path / "doc.json"
        assert main(["analyze", *EVOLUTE, "--output", str(out)]) == EXIT_NOT_CREATIVE

    def test_inconclusive_exit_four(self, tmp_path):
        args = ["analyze", "--theta", "t^7", "--a", "0", "--domain", "-4:4",
                "--grid-n", "101", "--output", str(tmp_path / "doc.json")]
        assert main(args) == EXIT_INCONCLUSIVE

    def test_usage_exit_two(self, capsys):
        assert main(["analyze", "--theta", "t", "--g", "t^2"]) == EXIT_USAGE
        assert "usage" in capsys.readouterr().err

    def test_expression_error_exit_five(self, capsys):
        assert main(["analyze", "--theta", "t", "--a", "log(t)", "--domain", "-1:1"]) == EXIT_EXPR_ERROR
        assert "log" in capsys.readouterr().err

    @pytest.mark.parametrize("a, domain, subexpr", [
        ("exp(exp(t))", "0:7", "exp(exp(t))"),         # math.exp overflows
        ("t*1e300*1e300", "0:1", "t*1e+300*1e+300"),  # inf without an exception
    ])
    def test_overflow_exit_five(self, capsys, a, domain, subexpr):
        assert main(["analyze", "--theta", "t", "--a", a, "--domain", domain]) == EXIT_EXPR_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: domain error in '{subexpr}'")
        assert "overflow" in err

    def test_degenerate_coefficients_exit_five(self):
        assert main(["analyze", "--A", "0", "--B", "0", "--C", "1"]) == EXIT_EXPR_ERROR

    def test_general_mode_overflow_exit_five(self, capsys):
        # A^2 + B^2 overflows to inf, which used to normalize to c = s = 0
        assert main(["analyze", "--A", "1e200", "--B", "1", "--C", "0",
                     "--domain", "0:1"]) == EXIT_EXPR_ERROR
        assert capsys.readouterr().err == (
            "error: domain error in 'A^2 + B^2' at t = 0.0: "
            "non-finite value or derivative (overflow)\n")

    def test_deep_nesting_exit_five(self, capsys):
        theta = "(" * 3000 + "t" + ")" * 3000
        assert main(["analyze", "--theta", theta, "--a", "t"]) == EXIT_EXPR_ERROR
        assert capsys.readouterr().err == (
            "error: expression nested more than 100 levels deep at offset 100\n")

    def test_unwritable_output_exit_two(self, tmp_path, capsys):
        out = tmp_path / "missing" / "doc.json"
        assert main(["analyze", *EXAMPLE1, "--grid-n", "101", "--output", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: cannot write --output {str(out)!r}: No such file or directory\n")

    def test_envelope_export_not_creative_no_file(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        code = main(["envelope", "--theta", "0", "--a", "t", "--domain", "-1:1",
                     "--output", str(out)])
        assert code == EXIT_NOT_CREATIVE
        assert not out.exists()

    def test_invalid_user_creator_exit_five(self, tmp_path):
        code = main(["envelope", "--theta", "t", "--a", "0", "--domain", "-1:1",
                     "--user-b", "1", "--output", str(tmp_path / "rows.csv")])
        assert code == EXIT_EXPR_ERROR


class TestFailedVerification:
    """A creative verdict whose envelope fails its own verification is
    reported as inconclusive, with the failed check kept in the document."""

    PROBES = {
        # theta' = 0 at t = 0.00013, between grid points, while a' = 1
        "hidden-stall": ["--theta", "t - 0.0001*atan((t - 0.00013)/0.0001)", "--a", "t",
                         "--domain", "-1:1"],
        # a pole of a at pi/2, between grid points
        "hidden-pole": ["--theta", "t", "--a", "tan t", "--domain", "-2:2"],
    }

    @pytest.mark.parametrize("probe", sorted(PROBES))
    def test_analyze_downgrades_to_inconclusive(self, probe, capsys):
        assert main(["analyze", *self.PROBES[probe]]) == EXIT_INCONCLUSIVE
        doc = json.loads(capsys.readouterr().out)
        jsonschema.validate(doc, SCHEMA)
        check = doc["envelope"]["verification"]
        assert check["pass"] is False and check["n"] == 4001
        notes = doc["creativity"]["notes"]
        assert doc["creativity"]["verdict"] == "inconclusive"
        assert notes.startswith("envelope existence undecided")
        residual = repr(check["max_tangency_residual"])
        tail = notes.rsplit("; ", 1)[1]
        assert tail.startswith(f"envelope verification failed at n = 4001: tangency residual {residual} > ")
        assert tail.endswith(" (doubled at the endpoints)")
        assert doc["comparison"] is None

    @pytest.mark.parametrize("command, message", [
        ("envelope", "no envelope to export"),
        ("compare", "comparison needs a creator"),
    ])
    @pytest.mark.parametrize("probe", sorted(PROBES))
    def test_envelope_and_compare_exit_four(self, probe, command, message, capsys):
        assert main([command, *self.PROBES[probe]]) == EXIT_INCONCLUSIVE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: family is inconclusive; {message}\n"

    def test_coarse_grid_verifies_at_the_default_resolution(self, capsys):
        # at n = 16 a 4(n-1)+1 grid is too coarse for the finite differences
        assert main(["analyze", *EXAMPLE1, "--grid-n", "16"]) == EXIT_OK
        check = json.loads(capsys.readouterr().out)["envelope"]["verification"]
        assert check["pass"] is True and check["n"] == 4001


class TestUndefinedCreator:
    """A canonical creator that has no value at a banded grid point is an
    undecided verdict, not a traceback."""

    # theta' vanishes to second order at t = 0 (a' = 0 throughout), and the
    # grid point t = 0 lies in no resolved zone of the assembled creator
    PROBES = [["--A", f"{scale}*t^3", "--B", "1", "--C", "0", "--domain", "-1:1"]
              for scale in ("1e10", "1e150")]

    @pytest.mark.parametrize("probe", PROBES)
    def test_analyze_is_inconclusive(self, probe, capsys):
        assert main(["analyze", *probe]) == EXIT_INCONCLUSIVE
        doc = json.loads(capsys.readouterr().out)
        jsonschema.validate(doc, SCHEMA)
        assert doc["creativity"]["verdict"] == "inconclusive"
        assert "; assembled creator is undefined at t = 0.0; " in doc["creativity"]["notes"]
        assert doc["creator"] is None and doc["envelope"] is None

    @pytest.mark.parametrize("probe", PROBES)
    def test_envelope_exits_four(self, probe, capsys):
        assert main(["envelope", *probe]) == EXIT_INCONCLUSIVE
        assert capsys.readouterr().err == \
            "error: family is inconclusive; no envelope to export\n"


class TestCsvExport:
    def test_header_and_shape(self, tmp_path):
        out = tmp_path / "rows.csv"
        assert main(["envelope", *EXAMPLE1, "--grid-n", "33", "--output", str(out)]) == EXIT_OK
        raw = out.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().splitlines()
        assert lines[0] == "t,x,y,b,theta_prime,a_prime"
        assert len(lines) == 34

    def test_sine_rows_on_half_period(self, tmp_path):
        out = tmp_path / "rows.csv"
        args = ["envelope", *EXAMPLE1[:-2], "--domain", "0:3.141592653589793",
                "--grid-n", "16", "--output", str(out)]
        assert main(args) == EXIT_OK
        for line in out.read_text().splitlines()[1:]:
            t, x, y, b, tp, ap = map(float, line.split(","))
            assert abs(x - t) <= 1e-6 and abs(y - math.sin(t)) <= 1e-6

    def test_clairaut_row_at_one(self, tmp_path):
        out = tmp_path / "rows.csv"
        # 17 points on [-2, 2] puts t = 1 on the grid
        assert main(["envelope", "--g", "t^2", "--domain", "-2:2", "--grid-n", "17",
                     "--output", str(out)]) == EXIT_OK
        rows = {float(line.split(",")[0]): line for line in out.read_text().splitlines()[1:]}
        _, x, y, *_ = map(float, rows[1.0].split(","))
        assert abs(x - (-2.0)) <= 1e-6 and abs(y - (-1.0)) <= 1e-6

    def test_quadratic_angle_rows_all_origin(self, tmp_path):
        out = tmp_path / "rows.csv"
        assert main(["envelope", "--theta", "t^2", "--a", "0", "--domain", "-1:1",
                     "--grid-n", "21", "--output", str(out)]) == EXIT_OK
        for line in out.read_text().splitlines()[1:]:
            _, x, y, *_ = map(float, line.split(","))
            assert x == 0.0 and y == 0.0

    @pytest.mark.parametrize("command", ["envelope", "discriminant"])
    def test_every_number_at_seventeen_digits(self, command, capsys):
        assert main([command, *EXAMPLE1, "--grid-n", "101", "--format", "csv"]) == EXIT_OK
        for line in capsys.readouterr().out.splitlines()[1:]:
            for field in line.split(","):
                if field and field not in ("point", "whole_line", "empty"):
                    assert field == format(float(field), ".17g")

    def test_envelope_json_format(self, tmp_path):
        out = tmp_path / "rows.json"
        assert main(["envelope", "--g", "t^2", "--domain", "-2:2", "--grid-n", "17",
                     "--format", "json", "--output", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["columns"] == ["t", "x", "y", "b", "theta_prime", "a_prime"]
        assert len(doc["rows"]) == 17


class TestPlot:
    def test_sine_tangent_scene(self, tmp_path):
        out = tmp_path / "scene.svg"
        assert main(["plot", *EXAMPLE1, "--output", str(out)]) == EXIT_OK
        svg = out.read_text()
        assert svg.startswith("<svg")
        for cls in ("family", "polluted", "discriminant", "envelope", "singular"):
            assert f'class="{cls}"' in svg
        assert "verdict: creative" in svg

    def test_not_creative_scene_lacks_envelope(self, tmp_path):
        out = tmp_path / "scene.svg"
        assert main(["plot", "--theta", "0", "--a", "t", "--domain", "-1:1",
                     "--output", str(out)]) == EXIT_OK
        svg = out.read_text()
        assert "verdict: not creative" in svg
        assert 'class="envelope"' not in svg

    def test_hedgehog_circle(self, tmp_path):
        out = tmp_path / "scene.svg"
        assert main(["plot", "--hedgehog", "1", "--domain", "0:6.283185307179586",
                     "--output", str(out)]) == EXIT_OK
        assert 'class="envelope"' in out.read_text()


class TestDeterminism:
    def _twice(self, args, tmp_path, suffix):
        a, b = tmp_path / f"a.{suffix}", tmp_path / f"b.{suffix}"
        assert main([*args, "--output", str(a)]) in (EXIT_OK, EXIT_NOT_CREATIVE)
        assert main([*args, "--output", str(b)]) in (EXIT_OK, EXIT_NOT_CREATIVE)
        assert a.read_bytes() == b.read_bytes()

    def test_json_bytes(self, tmp_path):
        self._twice(["analyze", *EXAMPLE1, "--grid-n", "201"], tmp_path, "json")

    def test_csv_bytes(self, tmp_path):
        self._twice(["envelope", *EXAMPLE1, "--grid-n", "201"], tmp_path, "csv")

    def test_svg_bytes(self, tmp_path):
        self._twice(["plot", *EXAMPLE1, "--grid-n", "201"], tmp_path, "svg")


class TestOtherCommands:
    def test_discriminant_json(self, tmp_path):
        out = tmp_path / "disc.json"
        assert main(["discriminant", *EXAMPLE1, "--grid-n", "101",
                     "--output", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        kinds = {sl["kind"] for sl in doc["slices"]}
        assert kinds == {"point", "whole_line"}

    def test_discriminant_csv(self, tmp_path):
        out = tmp_path / "disc.csv"
        assert main(["discriminant", "--theta", "0", "--a", "t", "--domain", "-1:1",
                     "--grid-n", "33", "--format", "csv", "--output", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "t,kind,x,y"
        assert all(line.split(",")[1] == "empty" for line in lines[1:])

    def test_compare_json(self, tmp_path):
        out = tmp_path / "cmp.json"
        assert main(["compare", "--g", "t^2", "--domain", "-2:2", "--grid-n", "101",
                     "--output", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["widespread_ok"] is True

    def test_compare_not_creative(self, tmp_path):
        code = main(["compare", *EVOLUTE, "--output", str(tmp_path / "cmp.json")])
        assert code == EXIT_NOT_CREATIVE

    def test_stdout_default(self, capsys):
        assert main(["compare", "--g", "t^2", "--domain", "-2:2", "--grid-n", "101"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["widespread_ok"] is True


class TestSinglePass:
    @pytest.mark.parametrize("command", ["analyze", "envelope", "discriminant", "compare"])
    def test_singular_points_found_once(self, monkeypatch, capsys, command):
        from envlines import analysis
        original = analysis.find_gauss_singular_points
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if (name == "envlines" or name.startswith("envlines.")) and \
                    getattr(module, "find_gauss_singular_points", None) is original:
                monkeypatch.setattr(module, "find_gauss_singular_points", spy)
        assert main([command, *EXAMPLE1, "--grid-n", "101"]) == EXIT_OK
        assert len(calls) == 1


class TestJsonWriter:
    def test_seventeen_significant_digits(self):
        assert to_json({"x": 1.0 / 3.0}) == '{\n  "x": 0.33333333333333331\n}'

    def test_round_trip_through_stdlib(self):
        payload = {"a": [1.5, 2, True, None], "b": {"s": 'quote " and \\'}, "c": []}
        assert json.loads(to_json(payload)) == payload

    def test_bulk_rows_match_per_value_formatting(self):
        specials = [-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e17, 1.0 / 3.0, 2.0 ** 53 + 2.0,
                    1.7976931348623157e308, 1e-310, 123456789.0, -2.5e-5]
        payload = {
            "float_rows": [[x, -x, 1.0 / (1.0 + abs(x))] for x in specials],
            "float_list": specials,
            "mixed_rows": [[1, 2.5, 3], [4.0, 5, 6.0], [10 ** 17, 1e17, -0.0]],
            "ragged_rows": [[1.0, 2.0], [3.0]],
            "text": "".join(map(chr, range(0x20))) + '"\\ é \x7f end',
            "nested": [{"s": "\x00\x1f\n"}, [[0.5]], []],
        }
        assert to_json(payload) == _to_json_per_value(payload)
        assert json.loads(to_json(payload)) == payload

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_bulk_rows_reject_non_finite_values_alike(self, bad):
        rows = [[0.5, 1.5], [2.5, bad], [bad, 3.5]]
        with pytest.raises(ValueError) as per_value:
            _to_json_per_value(rows)
        with pytest.raises(ValueError) as bulk:
            to_json(rows)
        assert str(bulk.value) == str(per_value.value) == \
            f"non-finite value {bad!r} cannot be serialized"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("value", [
        lambda bad: [0.5, 1.5, 2.5, bad, -bad, 3.5],
        lambda bad: [{"a": 0.5, "b": []}, {"a": 1.5, "b": [0.5, bad]}, {"a": -bad, "b": [2.5]}],
    ], ids=["float_list", "table_list_cells"])
    def test_bulk_lists_reject_non_finite_values_alike(self, bad, value):
        # the first non-finite value in document order, also inside a table's list cells
        with pytest.raises(ValueError) as per_value:
            _to_json_per_value(value(bad))
        with pytest.raises(ValueError) as bulk:
            to_json(value(bad))
        assert str(bulk.value) == str(per_value.value) == \
            f"non-finite value {bad!r} cannot be serialized"

    TABLE_CELLS = [None, True, False, 0, -7, 10 ** 17, "flat-to-order-4", -0.0, 5e-324, 1e16,
                   "".join(map(chr, range(0x20))) + '"\\ %s %% é']

    def test_bulk_tables_match_per_value_formatting(self):
        # flat dicts with one key order: written column by column
        cells = self.TABLE_CELLS
        table = [{"t": 0.5 * k, "x %s": a, "y": b, "nu": [b, 0.25][:k % 3]}
                 if type(b) is float else {"t": 0.5 * k, "x %s": a, "y": b, "nu": [-0.5 * k]}
                 for k, (a, b) in enumerate(zip(cells, reversed(cells)))]
        payload = {"table": table, "nested": {"table": table[:2]},
                   "not_a_table": [{"t": 1.0}, {"u": 1.0}, {"t": [1.0]}, {}],
                   "int_list_cells": [{"t": 1.0, "nu": [1, 2.0]}, {"t": 2.0, "nu": [3.0, 4]}]}
        assert to_json(table) == _to_json_per_value(table)
        assert to_json(payload) == _to_json_per_value(payload)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_bulk_tables_reject_non_finite_values_alike(self, bad):
        # the first non-finite value in document order, not in column order
        table = [{"a": 0.5, "b": None}, {"a": 1.5, "b": bad}, {"a": -bad, "b": 2.5}]
        with pytest.raises(ValueError) as per_value:
            _to_json_per_value(table)
        with pytest.raises(ValueError) as bulk:
            to_json(table)
        assert str(bulk.value) == str(per_value.value) == \
            f"non-finite value {bad!r} cannot be serialized"


def _fmt_float_per_value(x):
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite value {x!r} cannot be serialized")
    return format(float(x), ".17g")


def _escape_per_value(text):
    out = ['"']
    for ch in text:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ch == "\n":
            out.append("\\n")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


def _to_json_per_value(value, indent=0):
    """The writer formatting one value at a time: the reference for the bulk path."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        rows = [f"{inner}{_escape_per_value(str(k))}: {_to_json_per_value(v, indent + 1)}"
                for k, v in value.items()]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value):
            return "[" + ", ".join(
                _fmt_float_per_value(v) if isinstance(v, float) else str(v) for v in value
            ) + "]"
        rows = [f"{inner}{_to_json_per_value(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, float):
        return _fmt_float_per_value(value)
    if isinstance(value, int):
        return str(value)
    return _escape_per_value(str(value))
