"""One grid pass per run: the analysis grid and the verification grid are
each evaluated once, and everything else reads from those passes."""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import envlines
from envlines import analysis, family as family_module, jets
from envlines.analysis import CreatorFunction
from envlines.cli import _build_family, main, parse_cli
from envlines.discriminant import SliceSolution

SINE_TANGENT_FINE = ["analyze", "--example", "1", "--grid-n", "10001"]
SINE_EVOLUTE_WIDE = ["analyze", "--A", "1", "--B", "cos t", "--C", "-t - cos t*sin t",
                     "--domain", "-1000:1000", "--grid-n", "10001"]


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


@pytest.fixture
def large_passes(monkeypatch):
    """Sizes of the coefficient-jet evaluations over more than 1,000 parameters."""
    sizes = []
    original = family_module.LineFamily.coeff_jets

    def spy(self, t, order):
        if np.size(t) > 1000:
            sizes.append(np.size(t))
        return original(self, t, order)

    monkeypatch.setattr(family_module.LineFamily, "coeff_jets", spy)
    return sizes


def test_creative_run_evaluates_each_grid_once(large_passes):
    # one pass over the analysis grid, one over the 4(n-1)+1 verification grid
    assert _run(SINE_TANGENT_FINE) == 0
    assert large_passes == [10001, 40001]


def test_non_creative_run_evaluates_its_grid_once(large_passes):
    # not creative, so no envelope: the analysis grid alone
    assert _run(SINE_EVOLUTE_WIDE) == 3
    assert large_passes == [10001]


@pytest.fixture
def passes(monkeypatch):
    """(size, order) of every coefficient-jet evaluation, in call order."""
    calls = []
    original = family_module.LineFamily.coeff_jets

    def spy(self, t, order):
        calls.append((np.size(t) if isinstance(t, np.ndarray) else None, order))
        return original(self, t, order)

    monkeypatch.setattr(family_module.LineFamily, "coeff_jets", spy)
    return calls


@pytest.mark.parametrize("argv", [["analyze", "--example", str(k)] for k in range(1, 8)])
def test_derivative_scales_once_per_run(passes, argv):
    # after the family's validation pass over 257 points, the derivative
    # scales, the L'Hopital classification and b's series share one order-6
    # pass: the 129-point scale grid, then the singular parameters; no
    # parameter is evaluated on its own
    family = _build_family(parse_cli(argv))
    points = analysis.find_gauss_singular_points(analysis.scan_grid(family, 1001))
    passes.clear()
    _run(argv)
    assert [size for size, order in passes if order == analysis.SERIES_ORDER] == [
        257, 129 + len(points)]
    assert None not in [size for size, _ in passes]


def test_wide_creative_run_makes_no_scalar_jet_call(passes):
    # 637 resolved zones, each with its series and closed-form radius
    assert _run(["analyze", "--A", "-cos t", "--B", "1", "--C", "t*cos t - sin t",
                 "--domain", "-1000:1000", "--grid-n", "10001"]) == 4
    assert None not in [size for size, _ in passes]
    assert (129 + 637, analysis.SERIES_ORDER) in passes


@pytest.mark.parametrize("example, sequence", [
    # the grid, the look-ahead passes of 6 bisections and 1 ternary search,
    # theta' at the minimizer and the 6 roots, the order-6 classification
    (1, [(1001, 1)] + [(120, 1)] * 9 + [(126, 1)] * 5 + [(7, 1), (136, 6)]),
    # one ternary search; theta' at its minimizer serves the band test and the merge
    (5, [(1001, 1)] + [(126, 1)] * 11 + [(1, 1), (130, 6)]),
])
def test_singular_point_search_pass_sequence(passes, example, sequence):
    family = _build_family(parse_cli(["analyze", "--example", str(example)]))
    passes.clear()
    analysis.find_gauss_singular_points(analysis.scan_grid(family, 1001))
    assert passes == sequence


def test_undefined_creator_is_named_without_a_replay(passes):
    # the creator names its first undefined parameter of the 4001-point
    # verification grid itself: no loop over the 2000 parameters before it
    assert _run(["analyze", "--theta", "1e10*t^3", "--a", "t", "--grid-n", "16"]) == 4
    assert None not in [size for size, _ in passes]


def test_wide_plot_makes_no_scalar_jet_call(passes):
    # the 61 family lines and the 637 singular markers come from one pass
    assert _run(["plot", *SINE_EVOLUTE_WIDE[1:]]) == 0
    assert None not in [size for size, _ in passes]
    assert (61 + 637, 0) in passes


@pytest.mark.parametrize("example", [1, 4, 6])
def test_one_sine_cosine_recurrence_per_pass(monkeypatch, passes, example):
    # sin, cos and tan of one argument share a recurrence, across A, B and C
    # (examples 1 and 6) and for cos theta and sin theta (example 4)
    runs = []
    original = jets._sincos

    def spy(u):
        runs.append(len(u))
        return original(u)

    monkeypatch.setattr(jets, "_sincos", spy)
    _run(["analyze", "--example", str(example)])
    assert len(runs) == len(passes) > 0


def test_flat_fills_take_no_float_path(monkeypatch):
    # example 2 is flat on its whole domain: every b is the fill, set by mask
    calls = []
    original = CreatorFunction.__call__

    def spy(self, t):
        calls.append(t)
        return original(self, t)

    monkeypatch.setattr(CreatorFunction, "__call__", spy)
    assert _run(["analyze", "--example", "2"]) == 0
    assert calls == []


@pytest.mark.parametrize("argv", [SINE_TANGENT_FINE, SINE_EVOLUTE_WIDE])
def test_analyze_builds_no_slice_objects(monkeypatch, argv):
    # the discriminant is a set of columns; SliceSolution is a view for library users
    made = []
    original = SliceSolution.__init__

    def spy(self, *args, **kwargs):
        made.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(SliceSolution, "__init__", spy)
    SliceSolution(0.0, "empty")
    assert len(made) == 1
    made.clear()
    _run(argv)
    assert made == []


def test_commands_do_not_import_numpy_ma():
    # numpy's set routines and np.quantile import numpy.ma: 1.3 MB more resident
    # memory; the sine-evolute plot is not creative, so it trims the discriminant cloud
    script = """
import contextlib, io, sys
from envlines.cli import main
family = ["--A", "-cos t", "--B", "1", "--C", "t*cos t - sin t"]
evolute = ["--A", "1", "--B", "cos t", "--C", "-t - cos t*sin t"]
for argv in (["analyze", "--example", "1"], ["discriminant", *family, "--format", "csv"],
             ["plot", *family], ["plot", *evolute]):
    with contextlib.redirect_stdout(io.StringIO()):
        main(argv)
print("numpy.ma" in sys.modules)
"""
    env = {**os.environ, "PYTHONPATH": str(Path(envlines.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")
