"""One grid pass per run: the analysis grid is evaluated once, the
verification grid evaluates only the parameters between its points, once
each, in passes of at most ``envelope.BLOCK_POINTS``, and everything else
reads from those passes."""

import contextlib
import io
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import envlines
from envlines import analysis, envelope, family as family_module, jets, verification_n
from envlines.analysis import CreatorFunction, UndefinedCreatorError
from envlines.cli import _build_family, main, parse_cli
from envlines.discriminant import SliceSolution, sample_discriminant

SINE_TANGENT_FINE = ["analyze", "--example", "1", "--grid-n", "10001"]
SINE_EVOLUTE_WIDE = ["analyze", "--A", "1", "--B", "cos t", "--C", "-t - cos t*sin t",
                     "--domain", "-1000:1000", "--grid-n", "10001"]


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


def _check_each_grid_evaluated_once(monkeypatch, grid_n):
    """The scan's pass over the analysis grid; the envelope there evaluates
    nothing, and the 4(n-1)+1-point verification grid evaluates only the
    3(n-1) parameters between the scan's points, once each, in order."""
    calls, sampling = [], [None]
    coeff_jets, sample = family_module.LineFamily.coeff_jets, envlines.sample_envelope

    def spy(self, t, order):
        calls.append((sampling[0], np.array(t, dtype=float, copy=True, ndmin=1), order))
        return coeff_jets(self, t, order)

    def sampled(family, creator, n, *rest):
        sampling[0] = n
        try:
            return sample(family, creator, n, *rest)
        finally:
            sampling[0] = None

    monkeypatch.setattr(family_module.LineFamily, "coeff_jets", spy)
    monkeypatch.setattr(envlines, "sample_envelope", sampled)
    assert _run(["analyze", "--example", "1", "--grid-n", str(grid_n)]) == 0
    family = _build_family(parse_cli(["analyze", "--example", "1"]))
    grid = analysis.parameter_grid(family.domain, grid_n)
    fine_n = verification_n(grid_n)
    off_grid = np.delete(analysis.parameter_grid(family.domain, fine_n), np.s_[::4])
    assert [(n, order) for n, t, order in calls if np.array_equal(t, grid)] == [(None, 1)]
    # outside sampling, the scan's pass is the only one over more than 1,000 parameters
    assert [t.size for n, t, _ in calls if n is None and t.size > 1000] == [grid_n]
    assert not [t for n, t, _ in calls if n == grid_n]
    verification = [(t, order) for n, t, order in calls if n == fine_n]
    assert {order for _, order in verification} == {1}
    assert max(t.size for t, _ in verification) <= envelope.BLOCK_POINTS
    assert np.array_equal(np.concatenate([t for t, _ in verification]), off_grid)
    assert off_grid.size == 3 * (grid_n - 1)


def test_creative_run_evaluates_each_grid_once(monkeypatch):
    _check_each_grid_evaluated_once(monkeypatch, 10001)  # 30,000 verification parameters


def test_default_creative_run_evaluates_each_grid_once(monkeypatch):
    _check_each_grid_evaluated_once(monkeypatch, 1001)  # 3,000 verification parameters


def test_non_creative_run_evaluates_its_grid_once(monkeypatch):
    # not creative, so no envelope: the analysis grid is evaluated once, every
    # other pass keeps within the refinement's budget, and the refinement's
    # passes together evaluate at most a quarter more parameters than passes
    # of one level each (24,312)
    calls, refining = [], [False]
    coeff_jets, refine = family_module.LineFamily.coeff_jets, analysis._refine

    def spy(self, t, order):
        calls.append((refining[0], np.array(t, dtype=float, copy=True, ndmin=1)))
        return coeff_jets(self, t, order)

    def refined(*args):
        refining[0] = True
        try:
            return refine(*args)
        finally:
            refining[0] = False

    monkeypatch.setattr(family_module.LineFamily, "coeff_jets", spy)
    monkeypatch.setattr(analysis, "_refine", refined)
    assert _run(SINE_EVOLUTE_WIDE) == 3
    grid = analysis.parameter_grid((-1000.0, 1000.0), 10001)
    on_grid = [np.array_equal(t, grid) for _, t in calls]
    assert on_grid.count(True) == 1
    assert max(t.size for (_, t), g in zip(calls, on_grid) if not g) <= analysis.PASS_POINTS
    assert sum(t.size for inside, t in calls if inside) <= 1.25 * 24_312


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
    # the grid; the predicted paths of 6 bisections and 1 ternary search, 10
    # levels deep, then 20, then the levels each has left (5 and 36); theta'
    # at the minimizer and the 6 roots; the order-6 classification
    (1, [(1001, 1), (80, 1), (160, 1), (102, 1), (7, 1), (136, 6)]),
    # one ternary search, 10 + 20 + 31 levels; theta' at its minimizer serves
    # the band test and the merge
    (5, [(1001, 1), (20, 1), (40, 1), (62, 1), (1, 1), (130, 6)]),
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


def test_the_scan_owns_both_bands():
    # theta' = cos t and a' = -2 sin 2t: with both bands widened in the scan
    # alone, the slice kinds and the creator's quotient points follow them
    config = parse_cli(["analyze", "--theta", "sin(t)", "--a", "cos(2*t)"])
    scan = analysis.scan_grid(_build_family(config), 1001)
    tp, ap = np.abs(scan.theta_prime), np.abs(scan.a_prime)
    wide = replace(scan, band=0.3 * scan.scale_theta, a_band=0.5 * scan.scale_a)
    kinds = np.select([tp > wide.band, ap <= wide.a_band], [0, 1], 2)
    assert set(kinds.tolist()) == {0, 1, 2}
    assert np.array_equal(sample_discriminant(wide, ()).kind, kinds)
    assert set(sample_discriminant(scan, ()).kind.tolist()) == {0}

    quotient = tp > wide.band
    creator = CreatorFunction(wide, ())
    b = creator.on_grid(scan.ts[quotient], scan.theta_prime[quotient], scan.a_prime[quotient])
    assert np.array_equal(b, scan.a_prime[quotient] / scan.theta_prime[quotient])
    with pytest.raises(UndefinedCreatorError) as err:  # the first banded parameter
        creator.on_grid(scan.ts, scan.theta_prime, scan.a_prime)
    assert err.value.t == float(scan.ts[np.argmin(quotient)])
    CreatorFunction(scan, ()).on_grid(scan.ts, scan.theta_prime, scan.a_prime)


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
