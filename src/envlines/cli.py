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

from . import Analysis, __version__, analyze, svgplot, verification_n
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
    parameter_grid,
)
from .discriminant import ComparisonReport
from .expr import MAX_NESTING, ExpressionDomainError, ParseError, parse_expression
from .family import LineFamily, OutOfDomainError

COMMANDS = ("analyze", "envelope", "discriminant", "compare", "plot")
DEFAULT_GRID_N = 1001
# the grid arrays grow with n: one analyze at n = 40001 peaks at about 47 MB resident
MAX_GRID_N = 100001
GRID_ENV_VAR = "ENVELOPE_GRID_N"
ROW_BLOCK = 1024  # rows of a float array formatted in one pass

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
                             memory grows with N: about 47 MB peak RSS at 40001
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


def _wide_step(domain: tuple[float, float], n: int) -> bool:
    """Whether the n-point grid's step proves it increasing: a normal step above
    2^-50 max(|lo|, |hi|), 8 units of rounding, outgrows the 7 linspace can lose."""
    step = (domain[1] - domain[0]) / (n - 1)
    return step >= sys.float_info.min and step > 2.0 ** -50 * max(map(abs, domain))


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
    fine_n = verification_n(grid_n)  # the larger of the run's two grids
    if not (_wide_step(domain, fine_n) or np.all(np.diff(parameter_grid(domain, fine_n)) > 0)):
        raise UsageError(f"interval [{domain[0]!r}, {domain[1]!r}] too narrow: "
                         f"the {fine_n}-point verification grid repeats a parameter")

    allowed = tuple(_OUTPUTS[command])
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


def _fmt_floats(template: str, values: np.ndarray) -> str:
    """The template, one ``%.17g`` per value in row-major order, filled in
    one pass with the text ``_fmt_float`` gives each value."""
    if not np.isfinite(values).all():
        _fmt_float(float(values[~np.isfinite(values)][0]))  # raises for the first non-finite value
    return template % tuple(values.ravel().tolist())


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
    return _fmt_floats(body, np.fromiter(chain.from_iterable(chain(*zip(*floats))), float))


def to_json(value, indent: int = 0) -> str:
    """Minimal JSON writer with insertion-order keys and .17g floats."""
    return "".join(json_chunks(value, indent))


def json_chunks(value, indent: int = 0):
    """The text of ``to_json(value, indent)`` in pieces, in order: a float
    array in blocks of ``ROW_BLOCK`` rows, so that no piece grows with the grid."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, np.ndarray):  # float samples: one template, one pass a block
        if value.dtype != np.float64 or value.ndim not in (1, 2):
            raise TypeError(f"cannot serialize a {value.ndim}-d {value.dtype} array")
        cell, sep, head, tail = "%.17g", ", ", "[", "]"
        if value.ndim == 2:  # one row a line, as a list of rows is written
            cell = "[" + ", ".join(["%.17g"] * value.shape[1]) + "]"
            sep, head, tail = ",\n" + inner, "[\n" + inner, "\n" + pad + "]"
        for lo in range(0, len(value), ROW_BLOCK):
            rows = value[lo:lo + ROW_BLOCK]
            yield _fmt_floats((sep if lo else head) + sep.join([cell] * len(rows)), rows)
        yield tail if len(value) else "[]"
        return
    if isinstance(value, dict):
        items, brackets = [(_json_escape(str(k)) + ": ", v) for k, v in value.items()], "{}"
    elif isinstance(value, (list, tuple)):
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value):
            yield "[" + ", ".join(_fmt_float(v) if isinstance(v, float) else str(v)
                                  for v in value) + "]"
            return
        keys = list(value[0]) if type(value[0]) is dict else None
        if keys and all(type(row) is dict and list(row) == keys for row in value):
            table = _table(value, indent + 1)
            if table is not None:
                yield "[\n" + table + "\n" + pad + "]"
                return
        items, brackets = [("", v) for v in value], "[]"
    else:
        yield (_LITERALS[value] if value is None or isinstance(value, bool) else
               _fmt_float(value) if isinstance(value, float) else
               str(value) if isinstance(value, int) else _json_escape(str(value)))
        return
    for i, (key, v) in enumerate(items):
        yield ("," if i else brackets[0]) + "\n" + inner + key
        yield from json_chunks(v, indent + 1)
    yield "\n" + pad + brackets[1] if items else brackets


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


def _comparison_entry(comparison: ComparisonReport) -> dict:
    return {
        "widespread_ok": comparison.widespread_ok,
        "failure_ts": list(comparison.failure_ts),
        "narrative": comparison.narrative,
    }


def build_document(config: RunConfig, result: Analysis) -> dict:
    """The analysis document: everything the pipeline concluded, serializable."""
    family = result.scan.family
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
            "samples": np.column_stack((curve.ts, curve.b_values)),
        }
    else:
        doc["creator"] = None
    if curve is not None:
        check = result.verification
        doc["envelope"] = {
            "samples": np.column_stack((curve.ts, curve.points)),
            "verification": {
                "n": check.n,
                "max_membership_residual": check.max_membership_residual,
                "max_tangency_residual": check.max_tangency_residual,
                "pass": check.passed,
            },
        }
    else:
        doc["envelope"] = None
    disc = result.discriminant
    doc["discriminant"] = {
        "n": config.grid_n,
        "point_count": int(np.count_nonzero(disc.kind == 0)),
        "whole_line_count": int(np.count_nonzero(disc.kind == 1)),
        "empty_count": int(np.count_nonzero(disc.kind == 2)),
        "failure_ts": disc.ts[disc.kind != 0],
        "polluted_lines": [
            {"t": t, "nu": [line.nu[0], line.nu[1]], "offset": line.offset}
            for t, line in disc.polluted_lines
        ],
    }
    doc["comparison"] = None if result.comparison is None else _comparison_entry(result.comparison)
    return doc


def run_analyze(config: RunConfig) -> dict:
    return build_document(config, analyze(_build_family(config), config.grid_n, config.user_b))


_ENVELOPE_COLUMNS = ("t", "x", "y", "b", "theta_prime", "a_prime")


def _envelope_rows(result: Analysis) -> np.ndarray:
    """One [t, x, y, b, theta_prime, a_prime] row per envelope sample."""
    curve, scan = result.envelope, result.scan
    return np.column_stack((curve.ts, curve.points, curve.b_values,
                            scan.theta_prime, scan.a_prime))


def _envelope_csv(config: RunConfig, result: Analysis) -> str:
    """CSV of envelope samples: t,x,y,b,theta_prime,a_prime (LF endings)."""
    rows = _envelope_rows(result)
    line = ",".join(["%.17g"] * len(_ENVELOPE_COLUMNS))
    body = _fmt_floats("\n".join([line] * len(rows)), rows)
    return ",".join(_ENVELOPE_COLUMNS) + "\n" + body + "\n"


def _envelope_json(config: RunConfig, result: Analysis) -> dict:
    doc = _header(config, result.scan.family, "command")
    doc["columns"] = list(_ENVELOPE_COLUMNS)
    doc["rows"] = _envelope_rows(result)
    return doc


def _discriminant_csv(config: RunConfig, result: Analysis) -> str:
    disc = result.discriminant
    point = disc.kind == 0
    lines = ("%.17g,point,%.17g,%.17g", "%.17g,whole_line,,", "%.17g,empty,,")  # by kind
    cells = np.column_stack((disc.ts, disc.xs, disc.ys))
    values = cells[np.column_stack((np.ones_like(point), point, point))]  # t, and x, y of points
    return "t,kind,x,y\n" + _fmt_floats("\n".join([lines[k] for k in disc.kind.tolist()]),
                                        values) + "\n"


def _discriminant_json(config: RunConfig, result: Analysis) -> dict:
    doc = _header(config, result.scan.family, "command", "user_b")
    doc["slices"] = [
        {"t": sl.t, "kind": sl.kind,
         "point": None if sl.point is None else [sl.point[0], sl.point[1]],
         "line": None if sl.line is None else
         {"nu": [sl.line.nu[0], sl.line.nu[1]], "offset": sl.line.offset}}
        for sl in result.discriminant.slices
    ]
    return doc


def _compare_json(config: RunConfig, result: Analysis) -> dict:
    doc = _header(config, result.scan.family, "command", "user_b")
    doc.update(_comparison_entry(result.comparison))
    return doc


# each command's formats, its default first, and the writer of each, which
# returns the text or a document written as JSON; the writers look up
# build_document and svgplot.render_scene at each call
_OUTPUTS = {
    "analyze": {"json": lambda config, result: build_document(config, result)},
    "envelope": {"csv": _envelope_csv, "json": _envelope_json},
    "discriminant": {"json": _discriminant_json, "csv": _discriminant_csv},
    "compare": {"json": _compare_json},
    "plot": {"svg": lambda config, result: svgplot.render_scene(
        result.scan.family, result.creativity.verdict, result.envelope,
        result.discriminant, tuple(p.t for p in result.singulars))},
}


# -- entry point ---------------------------------------------------------------------

def _write(config: RunConfig, chunks: list[str]) -> None:
    if config.output is None:
        sys.stdout.writelines(chunks)
        return
    try:
        with open(config.output, "w", newline="") as handle:
            handle.writelines(chunks)
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
        verdict = result.creativity.verdict
        if config.command == "envelope" and verdict != CREATIVE:
            sys.stderr.write(f"error: family is {verdict}; no envelope to export\n")
            return _verdict_code(verdict)
        if config.command == "compare" and result.comparison is None:
            sys.stderr.write(f"error: family is {verdict}; comparison needs a creator\n")
            return _verdict_code(verdict)
        payload = _OUTPUTS[config.command][config.format](config, result)
        # every piece is formatted, and a non-finite value raised, before the first is written
        _write(config, [payload] if isinstance(payload, str) else [*json_chunks(payload), "\n"])
        return _verdict_code(verdict) if config.command == "analyze" else EXIT_OK
    except UsageError as err:  # an unwritable --output
        sys.stderr.write(f"error: {err}\n")
        return EXIT_USAGE
    except (ParseError, ExpressionDomainError, OutOfDomainError, InvalidCreatorError) as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_EXPR_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
