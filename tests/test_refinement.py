"""Lock-step refinement of Gauss-map singular points: the same bits as the
bracket-by-bracket reference, in a bounded number of array passes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from envlines import analysis, family as family_module
from envlines.analysis import _bisect_roots, _minimize_abs, find_gauss_singular_points
from envlines.cli import WORKED_EXAMPLES, _build_family, main, parse_cli
from refinement_reference import bisect_root, minimize_abs, theta_prime

_FAMILIES = {k: _build_family(parse_cli(["analyze", "--example", str(k)]))
             for k in WORKED_EXAMPLES}


@st.composite
def _brackets(draw):
    """A worked-example family and up to 8 brackets inside its domain, from
    cells of the default grid down to a few times ROOT_WIDTH."""
    family = _FAMILIES[draw(st.sampled_from(sorted(_FAMILIES)))]
    lo_d, hi_d = family.domain
    length = hi_d - lo_d
    brackets = []
    for _ in range(draw(st.integers(1, 8))):
        width = length * 10.0 ** draw(st.floats(-12.5, -1.0))
        lo = lo_d + draw(st.floats(0.0, 1.0)) * (length - width)
        brackets.append((lo, lo + width))
    return family, brackets


@given(_brackets())
@settings(max_examples=60, deadline=None)
def test_lockstep_bisection_matches_reference(case):
    family, brackets = case
    lo = np.array([b[0] for b in brackets])
    hi = np.array([b[1] for b in brackets])
    f_lo = np.array([theta_prime(family, t) for t in lo.tolist()])
    roots = _bisect_roots(family, lo, hi, f_lo)
    expected = [bisect_root(family, *args) for args in zip(lo.tolist(), hi.tolist(), f_lo.tolist())]
    assert roots.tolist() == expected


@given(_brackets())
@settings(max_examples=60, deadline=None)
def test_lockstep_ternary_search_matches_reference(case):
    family, brackets = case
    lo = np.array([b[0] for b in brackets])
    hi = np.array([b[1] for b in brackets])
    t_min, value = _minimize_abs(family, lo, hi)
    expected = [minimize_abs(family, *args) for args in zip(lo.tolist(), hi.tolist())]
    assert list(zip(t_min.tolist(), value.tolist())) == expected


def test_grid_brackets_match_reference(sine_evolute):
    # every sign-change bracket of the default grid, refined together
    ts = analysis.parameter_grid(sine_evolute.domain, 1001)
    tp = analysis._first_derivatives(sine_evolute, ts)[0]
    i = np.flatnonzero(tp[:-1] * tp[1:] < 0.0)
    assert i.size == 6  # the seventh zero, t = 0, is a grid point
    roots = _bisect_roots(sine_evolute, ts[i], ts[i + 1], tp[i])
    assert roots.tolist() == [bisect_root(sine_evolute, float(ts[k]), float(ts[k + 1]), float(tp[k]))
                              for k in i.tolist()]


def test_singular_search_makes_few_jet_passes(monkeypatch):
    family = _build_family(parse_cli(["analyze", "--A", "1", "--B", "cos t",
                                      "--C", "-t - cos t*sin t", "--domain", "-1000:1000"]))
    calls = []
    original = family_module.LineFamily.coeff_jets

    def spy(self, t, order):
        calls.append(np.size(t))
        return original(self, t, order)

    monkeypatch.setattr(family_module.LineFamily, "coeff_jets", spy)
    points = find_gauss_singular_points(family, 10001)
    assert len(points) == 637  # theta' = 0 at every multiple of pi
    assert len(calls) <= 300   # bracket by bracket it took 24,959


def test_domain_error_names_the_first_bracket_in_order(capsys):
    # two brackets hit the log's domain during bisection; the lock-step pass
    # meets the second one first, the replay reports the first, as a loop would
    argv = ["analyze", "--theta", "log((t^2 - 1e-8)*((t-0.5)^2 - 1e-8))", "--a", "t",
            "--domain", "-1:1.0013"]
    assert main(argv) == 5
    assert capsys.readouterr().err == (
        "error: domain error in 'log((t^2.0-1e-08)*((t-0.5)^2.0-1e-08))' at "
        "t = 2.4593750000044545e-05: log of non-positive value -2.3485557150571636e-09\n")

