"""One grid pass per run: the analysis grid and the verification grid are
each evaluated once, and everything else reads from those passes."""

import contextlib
import io

import numpy as np
import pytest

from envlines import analysis, family as family_module
from envlines.cli import main

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


@pytest.mark.parametrize("argv", [["analyze", "--example", str(k)] for k in range(1, 8)])
def test_derivative_scales_once_per_run(monkeypatch, argv):
    calls = []
    original = analysis._derivative_scales

    def spy(family):
        calls.append(family)
        return original(family)

    monkeypatch.setattr(analysis, "_derivative_scales", spy)
    _run(argv)
    assert len(calls) == 1
