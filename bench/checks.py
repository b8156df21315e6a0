"""Output checks for the benchmark operations.

Every expected value here is a closed form of the family or a property the
method guarantees, computed with ``math`` alone; nothing is copied from an
earlier output of the program and nothing calls into ``envlines``.  Each
check returns a list of problems, empty when the output is right.

The tolerances are the program's own method tolerances, restated here so
that the checker does not depend on the code it checks:

- ``MATCH_TOL`` (``discriminant.MATCH_TOL``): how closely a discriminant
  point must meet the envelope; used for every point compared with a
  closed form.
- ``MEMBERSHIP_TOL`` (``envelope.MEMBERSHIP_TOL``): the bound on
  ``|E . nu - a|``.
- ``SINGULAR_TOL``: the singularity band ``EPS_SING``.  A parameter with
  ``|theta'|`` inside the band is singular to the method, so on these
  families (``|theta''|`` of order 1 at the roots) it cannot place a root
  more closely than this.
- ``EPS_STAR`` and ``EPS_CRE``: the normalized residual bound of
  ``a' = b theta'`` and the band within which a derivative of ``a`` counts
  as zero, relative to the ``scale_a`` the document reports.
"""

from __future__ import annotations

import csv
import io
import json
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import Callable

MATCH_TOL = 1e-9
MEMBERSHIP_TOL = 1e-9
SINGULAR_TOL = 1e-9
EPS_STAR = 1e-6
EPS_CRE = 1e-7

CREATIVE = "creative"
NOT_CREATIVE = "not_creative"
EXIT_FOR_VERDICT = {CREATIVE: 0, NOT_CREATIVE: 3}

Point = tuple[float, float]


@dataclass(frozen=True)
class Family:
    """Closed forms of one line family: X nu_x + Y nu_y = a."""

    normal: Callable[[float], Point]
    offset: Callable[[float], float]
    envelope: Callable[[float], Point] | None = None


def _sine_tangent_normal(t: float) -> Point:
    r = math.hypot(1.0, math.cos(t))
    return (-math.cos(t) / r, 1.0 / r)


def _sine_evolute_normal(t: float) -> Point:
    r = math.hypot(1.0, math.cos(t))
    return (1.0 / r, math.cos(t) / r)


def _clairaut_normal(t: float) -> Point:
    r = math.hypot(1.0, t)
    return (t / r, -1.0 / r)


ORIGIN: Callable[[float], Point] = lambda t: (0.0, 0.0)

# tangent lines of y = sin x: the envelope is the sine curve
SINE_TANGENT = Family(
    _sine_tangent_normal,
    lambda t: (math.sin(t) - t * math.cos(t)) / math.hypot(1.0, math.cos(t)),
    lambda t: (t, math.sin(t)))
# normal lines of y = sin x: no envelope
SINE_EVOLUTE = Family(
    _sine_evolute_normal,
    lambda t: (t + math.cos(t) * math.sin(t)) / math.hypot(1.0, math.cos(t)))
STILL = Family(lambda t: (1.0, 0.0), lambda t: 0.0, ORIGIN)
PARALLEL_SHIFT = Family(lambda t: (1.0, 0.0), lambda t: t)
ROTATING_PENCIL = Family(lambda t: (math.cos(t), math.sin(t)), lambda t: 0.0, ORIGIN)
QUADRATIC_ANGLE = Family(lambda t: (math.cos(t * t), math.sin(t * t)), lambda t: 0.0, ORIGIN)
# lines Y = t X + t^2; the singular solution is the parabola Y = -X^2/4
CLAIRAUT_PARABOLA = Family(
    _clairaut_normal,
    lambda t: -t * t / math.hypot(1.0, t),
    lambda t: (-2.0 * t, -t * t))


# -- shared pieces ---------------------------------------------------------------

def _close(x: float, y: float, tol: float) -> bool:
    return abs(x - y) <= tol


def multiples_of_pi(domain: tuple[float, float]) -> list[float]:
    """Every k pi inside the domain, ascending."""
    lo, hi = domain
    return [k * math.pi for k in range(math.ceil(lo / math.pi), math.floor(hi / math.pi) + 1)]


def _at_multiples_of_pi(ts: list[float], domain: tuple[float, float], what: str) -> list[str]:
    expected = multiples_of_pi(domain)
    got = sorted(ts)
    if len(got) != len(expected):
        return [f"{what}: {len(got)} parameters, expected the {len(expected)} values k*pi"]
    return [f"{what}: t = {t!r} is not k*pi = {e!r}"
            for t, e in zip(got, expected) if not _close(t, e, SINGULAR_TOL)]


def _curve_problems(samples, family: Family, what: str) -> list[str]:
    """Membership E . nu = a, and the closed-form envelope where one exists."""
    problems: list[str] = []
    for t, x, y in samples:
        nx, ny = family.normal(t)
        if not _close(x * nx + y * ny, family.offset(t), MEMBERSHIP_TOL):
            problems.append(f"{what}: E . nu != a at t = {t!r}")
            break
    if family.envelope is not None:
        for t, x, y in samples:
            ex, ey = family.envelope(t)
            if not (_close(x, ex, MATCH_TOL) and _close(y, ey, MATCH_TOL)):
                problems.append(f"{what}: ({x!r}, {y!r}) at t = {t!r}, "
                                f"expected the closed form ({ex!r}, {ey!r})")
                break
    return problems


def _tangent_line_problems(lines: list[dict], domain: tuple[float, float]) -> list[str]:
    """Polluted lines of the sine-tangent family: the tangent lines at k pi."""
    problems = _at_multiples_of_pi([line["t"] for line in lines], domain, "polluted lines")
    if problems:
        return problems
    for line, tk in zip(sorted(lines, key=lambda e: e["t"]), multiples_of_pi(domain)):
        nx, ny = _sine_tangent_normal(tk)
        offset = SINE_TANGENT.offset(tk)
        if not (_close(line["nu"][0], nx, MATCH_TOL) and _close(line["nu"][1], ny, MATCH_TOL)
                and _close(line["offset"], offset, MATCH_TOL)):
            problems.append(f"polluted line at t = {line['t']!r} is not the tangent line "
                            f"of y = sin x at {tk!r}")
    return problems


def _sine_tangent_document(doc: dict, domain: tuple[float, float]) -> list[str]:
    points = doc["gauss_singular_points"]
    problems = _at_multiples_of_pi([p["t"] for p in points], domain, "singular points")
    for p in points:
        # the L'Hopital limit of b at k pi: E . J nu with E = (k pi, 0)
        b = -p["t"] / math.sqrt(2.0)
        if not p["resolvable"] or p["b_limit"] is None or \
                not _close(p["b_limit"], b, EPS_STAR * (1.0 + abs(b))):
            problems.append(f"singular point {p['t']!r}: b_limit {p['b_limit']!r}, expected {b!r}")
    disc = doc["discriminant"]
    problems += _tangent_line_problems(disc["polluted_lines"], domain)
    problems += _at_multiples_of_pi(disc["failure_ts"], domain, "discriminant failures")
    if disc["empty_count"] != 0:
        problems.append(f"{disc['empty_count']} empty discriminant slices, expected none")
    problems += _comparison_problems(doc["comparison"], domain)
    return problems


def _sine_evolute_document(doc: dict, domain: tuple[float, float]) -> list[str]:
    points = doc["gauss_singular_points"]
    problems = _at_multiples_of_pi([p["t"] for p in points], domain, "singular points")
    a_band = EPS_CRE * doc["tolerances"]["scale_a"]
    for p in points:
        if p["resolvable"] or p["b_limit"] is not None:
            problems.append(f"singular point {p['t']!r} is resolvable; a' = +-sqrt 2 there")
        if not _close(abs(p["a_prime_at"]), math.sqrt(2.0), a_band):
            problems.append(f"singular point {p['t']!r}: |a'| = {abs(p['a_prime_at'])!r}, "
                            "expected sqrt 2")
    disc = doc["discriminant"]
    if disc["whole_line_count"] != 0 or disc["polluted_lines"]:
        problems.append("the evolute family has whole-line discriminant slices")
    problems += _at_multiples_of_pi(disc["failure_ts"], domain, "discriminant failures")
    if doc["comparison"] is not None:
        problems.append("a comparison was made for a family with no envelope")
    return problems


def _comparison_problems(cmp: dict | None, domain: tuple[float, float]) -> list[str]:
    if cmp is None:
        return ["no comparison for the sine-tangent family"]
    problems = []
    if cmp["widespread_ok"] is not False:
        problems.append("compare: widespread_ok should be false on the sine-tangent family")
    return problems + _at_multiples_of_pi(cmp["failure_ts"], domain, "compare failures")


# -- analyze ---------------------------------------------------------------------

@dataclass(frozen=True)
class AnalyzeCase:
    """What one ``analyze`` must report."""

    family: Family
    verdict: str
    uniqueness: str
    extra: Callable[[dict, tuple[float, float]], list[str]] | None = None

    @property
    def exit_code(self) -> int:
        return EXIT_FOR_VERDICT[self.verdict]


def _still_document(doc: dict, domain: tuple[float, float]) -> list[str]:
    flats = doc["creator"]["flat_intervals"] if doc["creator"] else []
    if len(flats) != 1 or (flats[0]["lo"], flats[0]["hi"]) != domain \
            or not _close(flats[0]["fill"], 0.0, MATCH_TOL):
        return [f"creator flat intervals {flats!r}, expected fill 0 on {list(domain)!r}"]
    return []


def _no_singular_points(doc: dict, domain: tuple[float, float]) -> list[str]:
    if doc["gauss_singular_points"]:
        return ["theta' = 1 has no zeros, yet singular points were reported"]
    return []


def _quadratic_angle_document(doc: dict, domain: tuple[float, float]) -> list[str]:
    points = doc["gauss_singular_points"]
    if len(points) != 1 or not _close(points[0]["t"], 0.0, SINGULAR_TOL) \
            or points[0]["theta_derivative_order"] != 2:
        return [f"singular points {points!r}, expected one at 0 of order 2"]
    return []


EXAMPLES = {
    1: AnalyzeCase(SINE_TANGENT, CREATIVE, "unique", _sine_tangent_document),
    2: AnalyzeCase(STILL, CREATIVE, "non_unique", _still_document),
    3: AnalyzeCase(PARALLEL_SHIFT, NOT_CREATIVE, "non_unique"),
    4: AnalyzeCase(ROTATING_PENCIL, CREATIVE, "unique", _no_singular_points),
    5: AnalyzeCase(QUADRATIC_ANGLE, CREATIVE, "unique", _quadratic_angle_document),
    6: AnalyzeCase(SINE_EVOLUTE, NOT_CREATIVE, "unique", _sine_evolute_document),
    7: AnalyzeCase(CLAIRAUT_PARABOLA, CREATIVE, "unique"),
}


def check_analyze(text: str, case: AnalyzeCase, validator) -> list[str]:
    """An analysis document: schema, verdicts, envelope and the case's closed forms."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        return [f"analyze output is not JSON: {err}"]
    errors = list(validator.iter_errors(doc))
    if errors:
        return [f"schema: {errors[0].message}"]
    problems = []
    if doc["creativity"]["verdict"] != case.verdict:
        problems.append(f"verdict {doc['creativity']['verdict']!r}, expected {case.verdict!r}")
    if doc["uniqueness"]["verdict"] != case.uniqueness:
        problems.append(f"uniqueness {doc['uniqueness']['verdict']!r}, "
                        f"expected {case.uniqueness!r}")
    if problems:
        return problems
    domain = (doc["config"]["domain"][0], doc["config"]["domain"][1])
    envelope = doc["envelope"]
    if case.verdict == CREATIVE:
        if envelope is None:
            return ["creative family without an envelope"]
        if envelope["verification"]["pass"] is not True:
            problems.append("the document's own envelope verification failed")
        if len(envelope["samples"]) != doc["config"]["grid_n"]:
            problems.append(f"{len(envelope['samples'])} envelope samples, "
                            f"expected {doc['config']['grid_n']}")
        problems += _curve_problems(envelope["samples"], case.family, "envelope")
    elif envelope is not None:
        problems.append("an envelope was reported for a family that is not creative")
    if case.extra is not None:
        problems += case.extra(doc, domain)
    return problems


# -- the other commands on the sine-tangent family -------------------------------

def _csv_rows(text: str, header: list[str]) -> tuple[list[list[str]], list[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != header:
        return [], [f"CSV header {rows[0] if rows else None!r}, expected {header!r}"]
    return rows[1:], []


def check_envelope_csv(text: str, domain: tuple[float, float], grid_n: int) -> list[str]:
    """``envelope --format csv``: every row on the sine curve, x = t, y = sin t."""
    rows, problems = _csv_rows(text, ["t", "x", "y", "b", "theta_prime", "a_prime"])
    if problems:
        return problems
    if len(rows) != grid_n:
        return [f"{len(rows)} envelope rows, expected {grid_n}"]
    try:
        samples = [(float(r[0]), float(r[1]), float(r[2])) for r in rows]
    except (ValueError, IndexError) as err:
        return [f"malformed envelope row: {err}"]
    return _curve_problems(samples, SINE_TANGENT, "envelope CSV")


def check_discriminant_csv(text: str, domain: tuple[float, float]) -> list[str]:
    """``discriminant --format csv``: points on (t, sin t), whole lines at k pi."""
    rows, problems = _csv_rows(text, ["t", "kind", "x", "y"])
    if problems:
        return problems
    whole: list[float] = []
    try:
        for r in rows:
            t = float(r[0])
            if r[1] == "point":
                x, y = float(r[2]), float(r[3])
                if not (_close(x, t, MATCH_TOL) and _close(y, math.sin(t), MATCH_TOL)):
                    problems.append(f"discriminant point ({x!r}, {y!r}) at t = {t!r} "
                                    "is off the sine curve")
                    break
            elif r[1] == "whole_line":
                whole.append(t)
            else:
                problems.append(f"discriminant slice of kind {r[1]!r} at t = {t!r}")
                break
    except (ValueError, IndexError) as err:
        return [f"malformed discriminant row: {err}"]
    return problems + _at_multiples_of_pi(whole, domain, "whole-line slices")


def check_compare(text: str, domain: tuple[float, float]) -> list[str]:
    """``compare``: the widespread method fails at exactly the k pi."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        return [f"compare output is not JSON: {err}"]
    return _comparison_problems(doc, domain)


def check_svg(text: str) -> list[str]:
    """``plot``: well-formed SVG, 800x600, with the envelope polyline."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as err:
        return [f"SVG does not parse: {err}"]
    problems = []
    if root.tag != "{http://www.w3.org/2000/svg}svg":
        problems.append(f"root element {root.tag!r} is not svg")
    if (root.get("width"), root.get("height")) != ("800", "600"):
        problems.append(f"SVG is {root.get('width')}x{root.get('height')}, expected 800x600")
    if root.find(".//{http://www.w3.org/2000/svg}polyline") is None:
        problems.append("SVG has no polyline")
    return problems
