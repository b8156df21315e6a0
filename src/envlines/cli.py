"""Command-line front end: analyze | envelope | discriminant | compare | plot.

Flag parsing is hand-rolled: expression values routinely start with a minus
sign ("--A" "-cos t") and argparse refuses such values.  Output is
deterministic byte-for-byte: stable key order, floats at 17 significant
digits, LF line endings, no timestamps.

Exit codes: 0 creative/success, 2 usage error or unwritable --output,
3 not creative, 4 inconclusive (also after a failed envelope verification),
5 expression or domain error.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import Analysis, __version__, analyze, svgplot
from . import family as family_module
from .analysis import (
    CREATIVE,
    EPS_CRE,
    EPS_SING,
    EPS_STAR,
    FLAT_LABEL,
    INCONCLUSIVE,
    LHOPITAL_DEPTH,
    MIN_GRID_N,
    NOT_CREATIVE,
    QUOTIENT_COND,
    ROOT_WIDTH,
    InvalidCreatorError,
    SingularPoint,
    grid_profile,
)
from .expr import MAX_NESTING, ExpressionDomainError, ParseError, parse_expression
from .family import DegenerateFamilyError, LineFamily, OutOfDomainError

COMMANDS = ("analyze", "envelope", "discriminant", "compare", "plot")
DEFAULT_GRID_N = 1001
# grid arrays, and the 4(n-1)+1 verification grid, grow with n: one analyze
# at n = 40001 peaks at about 81 MB resident
MAX_GRID_N = 100001
GRID_ENV_VAR = "ENVELOPE_GRID_N"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NOT_CREATIVE = 3
EXIT_INCONCLUSIVE = 4
EXIT_EXPR_ERROR = 5

_MODE_FLAGS = {
    "normalized": ("--theta", "--a"),
    "general": ("--A", "--B", "--C"),
    "clairaut": ("--g",),
    "hedgehog": ("--hedgehog",),
}
_EXPR_FLAGS = {flag for flags in _MODE_FLAGS.values() for flag in flags}
_FORMATS = {"analyze": ("json",), "envelope": ("csv", "json"),  # the first is the default
            "discriminant": ("json", "csv"), "compare": ("json",), "plot": ("svg",)}
_VALUE_FLAGS = _EXPR_FLAGS | {"--domain", "--grid-n", "--user-b", "--output",
                              "--format", "--example"}

# Bundled manifest of worked examples: one command reproduces each.
WORKED_EXAMPLES = {
    1: {"name": "sine-tangent", "mode": "general",
        "exprs": {"A": "-cos t", "B": "1", "C": "t*cos t - sin t"},
        "domain": (-10.0, 10.0),
        "expected_verdict": "creative", "expected_uniqueness": "unique"},
    2: {"name": "still-family", "mode": "normalized",
        "exprs": {"theta": "0", "a": "0"}, "domain": (-1.0, 1.0),
        "expected_verdict": "creative", "expected_uniqueness": "non_unique"},
    3: {"name": "parallel-shift", "mode": "normalized",
        "exprs": {"theta": "0", "a": "t"}, "domain": (-1.0, 1.0),
        "expected_verdict": "not_creative", "expected_uniqueness": "non_unique"},
    4: {"name": "rotating-pencil", "mode": "normalized",
        "exprs": {"theta": "t", "a": "0"}, "domain": (-1.0, 1.0),
        "expected_verdict": "creative", "expected_uniqueness": "unique"},
    5: {"name": "quadratic-angle", "mode": "normalized",
        "exprs": {"theta": "t^2", "a": "0"}, "domain": (-1.0, 1.0),
        "expected_verdict": "creative", "expected_uniqueness": "unique"},
    6: {"name": "sine-evolute", "mode": "general",
        "exprs": {"A": "1", "B": "cos t", "C": "-t - cos t*sin t"},
        "domain": (-10.0, 10.0),
        "expected_verdict": "not_creative", "expected_uniqueness": "unique"},
    7: {"name": "clairaut-parabola", "mode": "clairaut",
        "exprs": {"g": "t^2"}, "domain": (-2.0, 2.0),
        "expected_verdict": "creative", "expected_uniqueness": "unique"},
}


class UsageError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    command: str
    mode: str
    expressions: dict[str, str]
    domain: tuple[float, float]
    grid_n: int
    user_b: str | None = None
    output: str | None = None
    format: str = "json"
    example: int | None = None


_USAGE = f"""usage: envlines COMMAND [flags]

commands: {', '.join(COMMANDS)}

input modes (exactly one):
  --theta EXPR --a EXPR      rotation angle and offset
  --A EXPR --B EXPR --C EXPR general equation A(t) X + B(t) Y + C(t) = 0
  --g EXPR                   Clairaut equation Y = X Y' + g(Y'): lines Y = t X + g(t)
  --hedgehog EXPR            support function a(t) with theta(t) = t

other flags:
  --domain LO:HI             parameter interval (default -10:10)
  --grid-n N                 grid size, {MIN_GRID_N}..{MAX_GRID_N} (default {DEFAULT_GRID_N}; env {GRID_ENV_VAR});
                             memory grows with N: about 81 MB peak RSS at 40001
  --user-b EXPR              creator override (validated against a' = b theta')
  --output PATH              write here instead of stdout
  --format FMT               json | csv | svg (per-command defaults apply)
  --example N                analyze a bundled worked example (1..{len(WORKED_EXAMPLES)})

exit codes:
  0  creative, or the command succeeded
  2  usage error, or --output cannot be written
  3  not creative
  4  inconclusive, also when the envelope fails its own verification
  5  expression or domain error, also an expression nested more than {MAX_NESTING} levels deep
"""


def _default_grid_n() -> int:
    raw = os.environ.get(GRID_ENV_VAR)
    if raw is None:
        return DEFAULT_GRID_N
    try:
        value = int(raw)
    except ValueError as err:
        raise UsageError(f"{GRID_ENV_VAR} must be an integer, got {raw!r}") from err
    _check_grid_n(GRID_ENV_VAR, value)
    return value


def _check_grid_n(source: str, value: int) -> None:
    if not MIN_GRID_N <= value <= MAX_GRID_N:
        raise UsageError(f"{source} must be in {MIN_GRID_N}..{MAX_GRID_N}, got {value}")


def _parse_domain(text: str) -> tuple[float, float]:
    lo_text, sep, hi_text = text.partition(":")
    if not sep:
        raise UsageError(f"malformed interval {text!r}, expected LO:HI")
    try:
        lo, hi = float(lo_text), float(hi_text)
    except ValueError as err:
        raise UsageError(f"malformed interval {text!r}: {err}") from err
    if not lo < hi:
        raise UsageError(f"degenerate interval {text!r}: need LO < HI")
    if not hi - lo < float("inf"):
        raise UsageError(f"unbounded interval {text!r}: need HI - LO finite")
    return lo, hi


def parse_cli(argv: list[str]) -> RunConfig:
    """Validate argv into a RunConfig; raises UsageError on any problem."""
    if not argv:
        raise UsageError("missing command")
    command = argv[0]
    if command not in COMMANDS:
        raise UsageError(f"unknown command {command!r}; expected one of {', '.join(COMMANDS)}")

    values: dict[str, str] = {}
    i = 1
    while i < len(argv):
        flag = argv[i]
        if flag not in _VALUE_FLAGS:
            raise UsageError(f"unknown flag {flag!r}")
        if flag in values:
            raise UsageError(f"duplicate flag {flag!r}")
        if i + 1 >= len(argv):
            raise UsageError(f"flag {flag!r} expects a value")
        values[flag] = argv[i + 1]
        i += 2

    example = None
    if "--example" in values:
        if command != "analyze":
            raise UsageError("--example is only valid with the analyze command")
        raw = values.pop("--example")
        try:
            example = int(raw)
        except ValueError as err:
            raise UsageError(f"--example expects an integer, got {raw!r}") from err
        if example not in WORKED_EXAMPLES:
            raise UsageError(f"--example must be in 1..{len(WORKED_EXAMPLES)}, got {example}")
        if any(flag in values for flag in _EXPR_FLAGS):
            raise UsageError("--example conflicts with explicit input-mode flags")

    modes_present = [mode for mode, flags in _MODE_FLAGS.items()
                     if any(flag in values for flag in flags)]
    if example is None:
        if len(modes_present) == 0:
            raise UsageError("no input mode given (use --theta/--a, --A/--B/--C, --g, or --hedgehog)")
        if len(modes_present) > 1:
            raise UsageError(f"conflicting input modes: {', '.join(sorted(modes_present))}")
        mode = modes_present[0]
        missing = [flag for flag in _MODE_FLAGS[mode] if flag not in values]
        if missing:
            raise UsageError(f"mode {mode!r} is missing required flag(s): {', '.join(missing)}")
        names = {"--theta": "theta", "--a": "a", "--A": "A", "--B": "B", "--C": "C",
                 "--g": "g", "--hedgehog": "a"}
        expressions = {names[flag]: values[flag] for flag in _MODE_FLAGS[mode]}
        domain = _parse_domain(values.get("--domain", "-10:10"))
    else:
        entry = WORKED_EXAMPLES[example]
        mode = entry["mode"]
        expressions = dict(entry["exprs"])
        domain = _parse_domain(values["--domain"]) if "--domain" in values else entry["domain"]

    if "--grid-n" in values:
        try:
            grid_n = int(values["--grid-n"])
        except ValueError as err:
            raise UsageError(f"--grid-n expects an integer, got {values['--grid-n']!r}") from err
        _check_grid_n("--grid-n", grid_n)
    else:
        grid_n = _default_grid_n()

    allowed = _FORMATS[command]
    fmt = values.get("--format", allowed[0])
    if fmt not in allowed:
        raise UsageError(f"format {fmt!r} not supported by {command} (allowed: {', '.join(allowed)})")

    return RunConfig(
        command=command,
        mode=mode,
        expressions=expressions,
        domain=domain,
        grid_n=grid_n,
        user_b=values.get("--user-b"),
        output=values.get("--output"),
        format=fmt,
        example=example,
    )


# -- deterministic serialization ------------------------------------------------

def _fmt_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite value {x!r} cannot be serialized")
    return format(float(x), ".17g")


def _fmt_floats(template: str, values: list[float]) -> str:
    """``template % tuple(values)``, where the template holds one ``%.17g``
    per value: the text ``_fmt_float`` gives each value, in one pass."""
    finite = np.isfinite(values)
    if not finite.all():
        _fmt_float(values[int(np.argmin(finite))])  # raises for the first non-finite value
    return template % tuple(values)


_JSON_ESCAPES = {**{code: f"\\u{code:04x}" for code in range(0x20)},
                 ord("\n"): "\\n", ord('"'): '\\"', ord("\\"): "\\\\"}


def _json_escape(text: str) -> str:
    return '"' + text.translate(_JSON_ESCAPES) + '"'


_SCALARS = {float, int, bool, str, type(None)}
_LITERALS = {True: "true", False: "false", None: "null"}


def _is_floats(value) -> bool:
    return type(value) in (list, tuple) and set(map(type, value)) <= {float}


def _table(rows: list[dict], indent: int) -> str | None:
    """Flat dicts that share one key order, written column by column (None
    when a cell is neither a scalar nor a list of floats).  Each column's
    types are looked up once, and only a column of mixed types is written
    cell by cell; then every float goes through one pass, in document order."""
    pad, field = "  " * indent, "  " * (indent + 1)
    columns, floats = [], []  # the text of each column; the floats of each row, by column
    for key, column in zip(rows[0], zip(*[row.values() for row in rows])):
        head = f"{field}{_json_escape(key)}: ".replace("%", "%%")
        kinds = set(map(type, column))
        if kinds == {float}:
            columns.append([head + "%.17g"] * len(column))
            floats.append(zip(column))
        elif kinds <= {bool, type(None)}:  # never 1 or 0, which equal True and False
            columns.append([head + _LITERALS[v] for v in column])
        elif kinds == {int}:
            columns.append([head + str(v) for v in column])
        elif all(type(v) in _SCALARS or _is_floats(v) for v in column):
            columns.append([head + ("%.17g" if type(v) is float
                                    else "[" + ", ".join(["%.17g"] * len(v)) + "]" if _is_floats(v)
                                    else to_json(v).replace("%", "%%"))
                            for v in column])
            floats.append([(v,) if type(v) is float else v if _is_floats(v) else ()
                           for v in column])
        else:
            return None
    body = ",\n".join(pad + "{\n" + ",\n".join(cells) + "\n" + pad + "}"
                      for cells in zip(*columns))
    return _fmt_floats(body, list(chain.from_iterable(chain.from_iterable(zip(*floats)))))


def to_json(value, indent: int = 0) -> str:
    """Minimal JSON writer with insertion-order keys and .17g floats."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        rows = [f"{inner}{_json_escape(str(k))}: {to_json(v, indent + 1)}"
                for k, v in value.items()]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if _is_floats(value):
            return _fmt_floats("[" + ", ".join(["%.17g"] * len(value)) + "]", value)
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value):
            return "[" + ", ".join(
                _fmt_float(v) if isinstance(v, float) else str(v) for v in value
            ) + "]"
        if set(map(type, value)) <= {list, tuple} and len(set(map(len, value))) == 1:
            flat = [x for row in value for x in row]
            if flat and set(map(type, flat)) == {float}:  # rows of floats: format in bulk
                line = inner + "[" + ", ".join(["%.17g"] * len(value[0])) + "]"
                return "[\n" + _fmt_floats(",\n".join([line] * len(value)), flat) + "\n" + pad + "]"
        keys = list(value[0]) if type(value[0]) is dict else None
        if keys and all(type(row) is dict and list(row) == keys for row in value):
            table = _table(value, indent + 1)
            if table is not None:
                return "[\n" + table + "\n" + pad + "]"
        rows = [f"{inner}{to_json(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, float):
        return _fmt_float(value)
    if isinstance(value, int):
        return str(value)
    return _json_escape(str(value))


# -- the run ------------------------------------------------------------------------

def _build_family(config: RunConfig) -> LineFamily:
    # the expressions come in the order of the mode's flags, as the builder
    # takes them; the builder is looked up in its module at each call
    asts = [parse_expression(text) for text in config.expressions.values()]
    return getattr(family_module, f"build_family_{config.mode}")(*asts, config.domain)


def _singular_entry(p: SingularPoint) -> dict:
    return {
        "t": p.t,
        "theta_derivative_order": FLAT_LABEL if p.theta_derivative_order is None
        else p.theta_derivative_order,
        "a_prime_at": p.a_prime_at,
        "resolvable": p.resolvable,
        "b_limit": p.b_limit,
    }


def _header(config: RunConfig, family: LineFamily, *omit: str) -> dict:
    """The ``tool`` and ``config`` blocks every JSON output opens with; each
    command leaves out the config keys named in ``omit``."""
    block = {
        "command": config.command,
        "mode": config.mode,
        "expressions": dict(config.expressions),
        "domain": [family.domain[0], family.domain[1]],
        "grid_n": config.grid_n,
        "user_b": config.user_b,
    }
    return {"tool": {"name": "envlines", "version": __version__},
            "config": {key: value for key, value in block.items() if key not in omit}}


def build_document(config: RunConfig, result: Analysis) -> dict:
    """The analysis document: everything the pipeline concluded, serializable."""
    family = result.family
    profile = grid_profile(result.scan)
    doc = _header(config, family)
    doc["tolerances"] = {
        "eps_sing": EPS_SING,
        "eps_cre": EPS_CRE,
        "eps_star": EPS_STAR,
        "quotient_condition": QUOTIENT_COND,
        "root_width": ROOT_WIDTH,
        "lhopital_depth": LHOPITAL_DEPTH,
        "scale_theta": profile["scale_theta"],
        "scale_a": profile["scale_a"],
        "delta_flat": profile["delta_flat"],
    }
    if config.example is not None:
        entry = WORKED_EXAMPLES[config.example]
        doc["example"] = {
            "id": config.example,
            "name": entry["name"],
            "expected_verdict": entry["expected_verdict"],
            "expected_uniqueness": entry["expected_uniqueness"],
        }
    doc["gauss_singular_points"] = [_singular_entry(p) for p in result.singulars]
    doc["creativity"] = {
        "verdict": result.creativity.verdict,
        "witnesses": [_singular_entry(p) for p in result.creativity.witnesses],
        "notes": result.creativity.notes,
    }
    doc["uniqueness"] = {
        "verdict": result.uniqueness.verdict,
        "flat_intervals": [[lo, hi] for lo, hi in result.uniqueness.flat_intervals],
    }
    curve = result.envelope  # sampled on the analysis grid whenever there is a creator
    if result.creator is not None:
        doc["creator"] = {
            "kind": result.creator.kind,
            "expression": config.user_b,
            "flat_intervals": [
                {"lo": lo, "hi": hi, "fill": fill}
                for lo, hi, fill in result.creator.flat_intervals
            ],
            "samples": np.column_stack((curve.ts, curve.b_values)).tolist(),
        }
    else:
        doc["creator"] = None
    if curve is not None:
        doc["envelope"] = {
            "samples": np.column_stack((curve.ts, curve.points)).tolist(),
            "verification": result.verification,
        }
    else:
        doc["envelope"] = None
    disc = result.discriminant
    doc["discriminant"] = {
        "n": config.grid_n,
        "point_count": int(np.count_nonzero(disc.kind == 0)),
        "whole_line_count": int(np.count_nonzero(disc.kind == 1)),
        "empty_count": int(np.count_nonzero(disc.kind == 2)),
        "failure_ts": disc.ts[disc.kind != 0].tolist(),
        "polluted_lines": [
            {"t": t, "nu": [line.nu[0], line.nu[1]], "offset": line.offset}
            for t, line in disc.polluted_lines
        ],
    }
    doc["comparison"] = result.comparison
    return doc


def run_analyze(config: RunConfig) -> dict:
    return build_document(config, analyze(_build_family(config), config.grid_n, config.user_b))


_ENVELOPE_COLUMNS = ("t", "x", "y", "b", "theta_prime", "a_prime")


def _envelope_rows(result: Analysis) -> np.ndarray:
    """One [t, x, y, b, theta_prime, a_prime] row per envelope sample."""
    curve, scan = result.envelope, result.scan
    return np.column_stack((curve.ts, curve.points, curve.b_values,
                            scan.theta_prime, scan.a_prime))


def run_export(config: RunConfig, result: Analysis) -> str:
    """CSV of envelope samples: t,x,y,b,theta_prime,a_prime (LF endings)."""
    assert result.creator is not None and result.envelope is not None
    rows = _envelope_rows(result)
    line = ",".join(["%.17g"] * len(_ENVELOPE_COLUMNS))
    body = _fmt_floats("\n".join([line] * len(rows)), rows.ravel().tolist())
    return ",".join(_ENVELOPE_COLUMNS) + "\n" + body + "\n"


def _envelope_json(config: RunConfig, result: Analysis) -> dict:
    assert result.envelope is not None
    doc = _header(config, result.family, "command")
    doc["columns"] = list(_ENVELOPE_COLUMNS)
    doc["rows"] = _envelope_rows(result).tolist()
    return doc


def _discriminant_csv(result: Analysis) -> str:
    disc = result.discriminant
    point = disc.kind == 0
    lines = ("%.17g,point,%.17g,%.17g", "%.17g,whole_line,,", "%.17g,empty,,")  # by kind
    cells = np.column_stack((disc.ts, disc.xs, disc.ys))
    values = cells[np.column_stack((np.ones_like(point), point, point))]  # t, and x, y of points
    return "t,kind,x,y\n" + _fmt_floats("\n".join([lines[k] for k in disc.kind.tolist()]),
                                        values.tolist()) + "\n"


def _discriminant_json(config: RunConfig, result: Analysis) -> dict:
    doc = _header(config, result.family, "command", "user_b")
    doc["slices"] = [
        {"t": sl.t, "kind": sl.kind,
         "point": None if sl.point is None else [sl.point[0], sl.point[1]],
         "line": None if sl.line is None else
         {"nu": [sl.line.nu[0], sl.line.nu[1]], "offset": sl.line.offset}}
        for sl in result.discriminant.slices
    ]
    return doc


def run_plot(config: RunConfig, result: Analysis) -> str:
    return svgplot.render_scene(result.family, result.creativity.verdict, result.envelope,
                                result.discriminant, tuple(p.t for p in result.singulars))


# -- entry point ---------------------------------------------------------------------

def _write(config: RunConfig, payload: str) -> None:
    if config.output is None:
        sys.stdout.write(payload)
        return
    try:
        with open(config.output, "w", newline="") as handle:
            handle.write(payload)
    except OSError as err:
        raise UsageError(f"cannot write --output {config.output!r}: {err.strerror or err}") from err


def _verdict_code(verdict: str) -> int:
    return {CREATIVE: EXIT_OK, NOT_CREATIVE: EXIT_NOT_CREATIVE,
            INCONCLUSIVE: EXIT_INCONCLUSIVE}[verdict]


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    try:
        config = parse_cli(args)
    except UsageError as err:
        sys.stderr.write(f"error: {err}\n\n{_USAGE}")
        return EXIT_USAGE

    try:
        result = analyze(_build_family(config), config.grid_n, config.user_b)
        if config.command == "analyze":
            _write(config, to_json(build_document(config, result)) + "\n")
            return _verdict_code(result.creativity.verdict)
        if config.command == "envelope":
            if result.creativity.verdict != CREATIVE:
                sys.stderr.write(
                    f"error: family is {result.creativity.verdict}; no envelope to export\n")
                return _verdict_code(result.creativity.verdict)
            payload = (run_export(config, result) if config.format == "csv"
                       else to_json(_envelope_json(config, result)) + "\n")
            _write(config, payload)
            return EXIT_OK
        if config.command == "discriminant":
            payload = (_discriminant_csv(result) if config.format == "csv"
                       else to_json(_discriminant_json(config, result)) + "\n")
            _write(config, payload)
            return EXIT_OK
        if config.command == "compare":
            if result.comparison is None:
                sys.stderr.write(
                    f"error: family is {result.creativity.verdict}; comparison needs a creator\n")
                return _verdict_code(result.creativity.verdict)
            doc = _header(config, result.family, "command", "user_b")
            doc.update(result.comparison)
            _write(config, to_json(doc) + "\n")
            return EXIT_OK
        _write(config, run_plot(config, result))
        return EXIT_OK
    except UsageError as err:  # an unwritable --output
        sys.stderr.write(f"error: {err}\n")
        return EXIT_USAGE
    except (ParseError, ExpressionDomainError, DegenerateFamilyError,
            OutOfDomainError, InvalidCreatorError) as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_EXPR_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
