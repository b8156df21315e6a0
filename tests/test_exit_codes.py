"""Every argv ends in a documented exit code, never in a traceback: argv is
drawn from the CLI grammar with hostile expressions (poles, logs of
non-positive values, huge constants, deep nesting, syntax errors)."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from envlines import cli, verification_n
from envlines.analysis import parameter_grid
from envlines.cli import _USAGE, COMMANDS, WORKED_EXAMPLES, _wide_step, main

DOCUMENTED_EXITS = {0, 2, 3, 4, 5}

_ATOMS = [
    "t", "0", "1", "-1", "pi", "e", "t^2", "t^3", "sin(t)", "cos(t)", "1/t", "1/(t-0.5)",
    "log(t)", "log(-1)", "log(0)", "sqrt(t)", "sqrt(-t)", "tan(t)", "abs(t)", "atan(1/t)",
    "t^0.5", "(-1)^0.5", "t^-1", "0^0", "0/0", "exp(exp(t))", "exp(1000)", "1e300",
    "1e308*1e308", "1e-300*t", "1e10*t^3", "1e150*t^3", "1e308*t", "1e308*sin(t)",
    "t*cos t - sin t",
    "(t-0.3)^6", "0.0001*atan((t - 0.00013)/0.0001)",
    "(" * 150 + "t" + ")" * 150, "sin(" * 120 + "t" + ")" * 120, "t+" * 150 + "t",
    "", "t+", "foo(t)", "1e999", "((t)", "t t", "2^^t", "-",
]
_OPS = [" + ", " - ", "*", "/", "^"]


@st.composite
def _expressions(draw):
    source = draw(st.sampled_from(_ATOMS))
    for _ in range(draw(st.integers(0, 2))):
        source = f"({source}){draw(st.sampled_from(_OPS))}({draw(st.sampled_from(_ATOMS))})"
    return source


_MODES = [("--theta", "--a"), ("--A", "--B", "--C"), ("--g",), ("--hedgehog",)]
_DOMAINS = ["-1:1", "-10:10", "0:1", "-2:2", "-1000:1000", "0:1e-10", "-1e300:1e300",
            # a few ulps wide: the verification grid would repeat a parameter
            "0:5e-324", "1:1.0000000000000004", "1e16:1.0000000000000002e16"]
_BAD_DOMAINS = ["-1e308:1e308", "1:1", "2:1", "a:b", "1", "-inf:inf", "nan:1"]
_FORMATS = ["json", "csv", "svg", "xml"]


@st.composite
def _argv(draw, output_dir):
    argv = [draw(st.sampled_from(COMMANDS))]
    if draw(st.integers(0, 9)) == 0:
        argv += ["--example", str(draw(st.integers(0, len(WORKED_EXAMPLES) + 1)))]
    else:
        for flag in draw(st.sampled_from(_MODES)):
            argv += [flag, draw(_expressions())]
    if draw(st.booleans()):
        domains = _BAD_DOMAINS if draw(st.integers(0, 9)) == 0 else _DOMAINS
        argv += ["--domain", draw(st.sampled_from(domains))]
    argv += ["--grid-n", str(draw(st.integers(16, 129)))]
    if draw(st.integers(0, 3)) == 0:
        argv += ["--user-b", draw(_expressions())]
    if draw(st.integers(0, 9)) == 0:
        argv += ["--format", draw(st.sampled_from(_FORMATS))]
    if draw(st.integers(0, 9)) == 0:
        argv += ["--output", output_dir]  # a directory: cannot be written
    if draw(st.integers(0, 9)) == 0:
        argv += draw(st.sampled_from([["--bogus"], ["--grid-n"], ["--theta", "t"], ["x"]]))
    return argv


_OUTPUT_DIR = tempfile.gettempdir()


# stderr is empty, or one error line, followed by the usage text after a usage error
_STDERR = re.compile(r"(error: [^\n]*\n(\n" + re.escape(_USAGE) + ")?)?")


def _stderr_of(argv):
    """Exit code and stderr of main(argv); any warning fails the test, since a
    run outside the tests would print it to stderr."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    assert [str(w.message) for w in caught] == [], argv
    return code, err.getvalue()


@given(_argv(_OUTPUT_DIR))
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_main_ends_in_a_documented_exit_code(argv):
    code, err = _stderr_of(argv)
    assert code in DOCUMENTED_EXITS, argv
    assert _STDERR.fullmatch(err), (argv, err)


@pytest.mark.parametrize("argv, code, err", [
    # theta' overflows in derivative_jets
    (["compare", "--theta", "1e150*t^3", "--a", "1e150*t^3", "--grid-n", "19"], 3,
     "error: family is not_creative; comparison needs a creator\n"),
    # |E'|^2 overflows in verify_envelope
    (["analyze", "--g", "1e300", "--domain", "0:1", "--grid-n", "74"], 4, ""),
    # a'/theta' overflows where theta' = 1e-300 is still above the band
    *[([command, "--theta", "1e-300*t", "--a", "1e10*t", "--domain", "-1:1"], 5,
       "error: domain error in 'da/dtheta' at t = -1.0: "
       "the discriminant point is not finite (overflow)\n")
      for command in ("discriminant", "plot", "analyze")],
    # the envelope's endpoint stencils scale E ~ 1e308 by 3 and 4
    *[([command, *family, "--domain", "-1:1"], 5,
       "error: domain error in 'dE/dt' at t = -1.0: "
       "the finite difference of the envelope is not finite (overflow)\n")
      for command in ("analyze", "plot")
      for family in (["--hedgehog", "1e308*t"], ["--theta", "t", "--a", "1e308*sin(t)"],
                     ["--theta", "0", "--a", "0", "--user-b", "1e308"])],
    # the product of neighbouring theta' ~ 1e160 overflows in the sign-change test
    (["analyze", "--theta", "(1e150*t^3)*((t-0.3)^6)", "--a", "t", "--grid-n", "16"], 3, ""),
])
def test_overflow_raises_no_warning(argv, code, err):
    assert _stderr_of(argv) == (code, err)


def test_plot_window_of_a_constant_huge_coordinate():
    # x = 1e300 throughout: the window's padding rounds away
    argv = ["plot", "--theta", "0", "--a", "1e300", "--grid-n", "16", "--user-b", "t"]
    assert _stderr_of(argv) == (0, "")


def test_unbounded_domain_is_a_usage_error():
    # an infinite bound, or a finite interval whose length overflows
    for domain in ("-inf:inf", "0:inf", "-1e308:1e308"):
        code, err = _stderr_of(["analyze", "--theta", "t", "--a", "t", "--domain", domain])
        assert code == 2
        assert err.startswith(f"error: unbounded interval '{domain}': need HI - LO finite\n")


@pytest.mark.parametrize("argv, bounds", [
    (["analyze", "--theta", "t", "--a", "t", "--domain", "0:5e-324"], "[0.0, 5e-324]"),
    (["discriminant", "--theta", "t", "--a", "t", "--domain", "0:5e-324"], "[0.0, 5e-324]"),
    (["analyze", "--theta", "t", "--a", "t", "--domain", "1e16:1.0000000000000002e16"],
     "[1e+16, 1.0000000000000002e+16]"),
    # 673 distinct values among the 1001 analysis grid points
    (["analyze", "--theta", "t", "--a", "0", "--domain", "1e300:1.0000000000001e300"],
     "[1e+300, 1.0000000000001e+300]"),
    # the 1001 analysis grid points are distinct, the 4001 verification ones are not
    (["envelope", "--theta", "t", "--a", "t", "--domain", "1:1.0000000000004"],
     "[1.0, 1.0000000000004]"),
])
def test_narrow_domain_is_a_usage_error(argv, bounds):
    # the verification grid, the larger of a run's two, would repeat a parameter
    assert _stderr_of(argv) == (2, f"error: interval {bounds} too narrow: the 4001-point "
                                   f"verification grid repeats a parameter\n\n{_USAGE}")


def test_wide_domain_builds_no_verification_grid(monkeypatch):
    # the step proves the 40001-point grid increasing, so it is never built
    sizes = []
    monkeypatch.setattr(cli, "parameter_grid", lambda domain, n: sizes.append(n) or
                        parameter_grid(domain, n))
    config = cli.parse_cli(["analyze", "--theta", "t", "--a", "t", "--domain", "-10:10",
                            "--grid-n", "10001"])
    assert verification_n(config.grid_n) == 40001 and sizes == []


_SUBNORMAL = 5e-324


@given(st.one_of(st.floats(-1e300, 1e300), st.sampled_from([0.0, 1.0, -1e-310, 1e16])),
       st.floats(0.01, 4.0), st.integers(1, 10 ** 5),
       st.one_of(st.sampled_from([4001, 40001]), st.integers(2, 5000)), st.booleans())
@example(0.0, 1.0, 6000, 4001, False)  # a rounded subnormal step overshoots hi
@example(1e16, 1.0, 1, 4001, True)
@settings(max_examples=300, deadline=None)
def test_closed_form_step_test_implies_an_increasing_grid(lo, ratio, ulps, n, mirror):
    # near the threshold step = 2^-50 max(|lo|, |hi|); a zero lo takes a
    # span of whole subnormals instead
    span = ratio * 2.0 ** -50 * abs(lo) * (n - 1) if lo else ulps * _SUBNORMAL
    domain = (-(lo + span), -lo) if mirror else (lo, lo + span)
    if not (domain[0] < domain[1] and np.isfinite(domain[1] - domain[0])):
        return
    if _wide_step(domain, n):
        assert np.all(np.diff(parameter_grid(domain, n)) > 0.0)


def test_normal_off_the_unit_circle_is_a_domain_error():
    # t^2 + 1 overflows at |t| = 1e300, so the Clairaut normal is (0, 0) there
    code, err = _stderr_of(["analyze", "--g", "0", "--domain", "-1e300:1e300", "--grid-n", "50"])
    assert code == 5
    assert err == ("error: domain error in 'c^2 + s^2' at t = -1e+300: "
                   "the Gauss map left the unit circle (|c^2 + s^2 - 1| = 1.0)\n")


def test_creator_undefined_on_the_verification_grid_is_inconclusive(capsys):
    # theta' = 0 at t = 0 while a' = 1: no grid point of 16 comes near enough
    # to see the stall, but t = 0 is a point of the 4001-point verification grid
    argv = ["--theta", "1e10*t^3", "--a", "t", "--grid-n", "16"]
    assert main(["analyze", *argv]) == 4
    doc = json.loads(capsys.readouterr().out)
    assert doc["creativity"]["verdict"] == "inconclusive"
    assert doc["creativity"]["notes"].endswith(
        "; envelope verification failed at n = 4001: creator undefined at t = 0.0")
    assert doc["creator"] is None and doc["envelope"] is None and doc["comparison"] is None
    assert main(["envelope", *argv]) == 4
    assert capsys.readouterr().err == "error: family is inconclusive; no envelope to export\n"


@pytest.mark.parametrize("theta, domain", [
    # one ulp exceeds the ternary search's stopping width (1e-13) from |t| = 512
    ("(t-600.4)^3", "600:601"),
    ("(t-10000.4)^3", "10000:10001"),
    # and the bisection's (1e-12) from |t| = 8192
    ("(t-10000.3)*(t-10000.7)", "10000:10001"),
])
def test_refinement_ends_where_one_ulp_exceeds_its_width(theta, domain):
    # a fresh interpreter with a time limit: a refinement that never ends fails
    # the test instead of hanging the suite
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from envlines.cli import main; sys.exit(main())",
         "analyze", "--theta", theta, "--a", "t", "--domain", domain],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=5)
    assert (proc.returncode, proc.stderr) == (3, "")
    assert json.loads(proc.stdout)["creativity"]["verdict"] == "not_creative"


def test_domain_error_on_the_verification_grid_is_named_quickly():
    # sqrt's argument dips below 0 between two of the 40001 grid points, so
    # only the 160001-point verification grid meets it; bisecting that pass
    # names the parameter in O(log n) passes, where a loop over the grid
    # took about 20 s
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from envlines.cli import main; sys.exit(main())",
         "analyze", "--theta", "t", "--a", "sqrt((t-0.001025)^2-1e-10)", "--domain", "-1:1",
         "--grid-n", "40001"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=5)
    assert (proc.returncode, proc.stderr) == (5, SQRT_PROBE_ERROR)


SQRT_PROBE_ERROR = ("error: domain error in 'sqrt((t-0.001025)^2.0-1e-10)' at t = "
                    "0.0010250000000000536: sqrt of negative value -1e-10\n")


def test_domain_error_is_named_in_one_bisection(monkeypatch, capsys):
    # the family's pass and the sources' pass would each bisect the failing
    # grid, one inside the other: about 170 passes where one bisection is 20
    from envlines.expr import JetProgram
    run, passes = JetProgram.run, []

    def counted(self, t, order):
        passes.append(order)
        return run(self, t, order)

    monkeypatch.setattr(JetProgram, "run", counted)
    assert main(["analyze", "--theta", "t", "--a", "sqrt((t-0.001025)^2-1e-10)",
                 "--domain", "-1:1", "--grid-n", "40001"]) == 5
    assert capsys.readouterr().err == SQRT_PROBE_ERROR
    assert len(passes) <= 40
