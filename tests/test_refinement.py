"""Lock-step refinement of Gauss-map singular points: bisections and ternary
searches advance together in one loop of array passes, each pass looking
several levels ahead, and end on the same bits as the bracket-by-bracket
reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from envlines import analysis, family as family_module
from envlines.analysis import LOOKAHEAD_POINTS, _refine, find_gauss_singular_points, scan_grid
from envlines.cli import WORKED_EXAMPLES, _build_family, main, parse_cli
from envlines.expr import ExpressionDomainError
from refinement_reference import bisect_root, minimize_abs, theta_prime

_FAMILIES = {k: _build_family(parse_cli(["analyze", "--example", str(k)]))
             for k in WORKED_EXAMPLES}
_NONE = np.empty(0)


@st.composite
def _intervals(draw, family, max_size=8, min_size=1):
    """``min_size`` to ``max_size`` intervals inside the family's domain, from
    cells of the default grid down to a few times ROOT_WIDTH."""
    lo_d, hi_d = family.domain
    length = hi_d - lo_d
    intervals = []
    for _ in range(draw(st.integers(min_size, max_size))):
        width = length * 10.0 ** draw(st.floats(-12.5, -1.0))
        lo = lo_d + draw(st.floats(0.0, 1.0)) * (length - width)
        intervals.append((lo, lo + width))
    lo, hi = (np.array(column) for column in zip(*intervals))
    return lo, hi


@st.composite
def _brackets(draw):
    """A worked-example family and up to 8 intervals inside its domain."""
    family = _FAMILIES[draw(st.sampled_from(sorted(_FAMILIES)))]
    return family, draw(_intervals(family))


def _f_lo(family, lo):
    return np.array([theta_prime(family, t) for t in lo.tolist()])


@given(_brackets())
@settings(max_examples=60, deadline=None)
def test_lockstep_bisection_matches_reference(case):
    family, (lo, hi) = case
    f_lo = _f_lo(family, lo)
    roots, t_min = _refine(family, lo, hi, f_lo, _NONE, _NONE)
    expected = [bisect_root(family, *args) for args in zip(lo.tolist(), hi.tolist(), f_lo.tolist())]
    assert roots.tolist() == expected
    assert t_min.size == 0


@given(_brackets())
@settings(max_examples=60, deadline=None)
def test_lockstep_ternary_search_matches_reference(case):
    family, (lo, hi) = case
    roots, t_min = _refine(family, _NONE, _NONE, _NONE, lo, hi)
    expected = [minimize_abs(family, *args) for args in zip(lo.tolist(), hi.tolist())]
    assert t_min.tolist() == expected
    assert roots.size == 0


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_mixed_rows_match_reference(data):
    # bisections and ternary searches of different widths in one call: each
    # row still ends on the bits of its own bracket-by-bracket loop
    family = _FAMILIES[data.draw(st.sampled_from(sorted(_FAMILIES)))]
    lo, hi = data.draw(_intervals(family))
    dip_lo, dip_hi = data.draw(_intervals(family))
    f_lo = _f_lo(family, lo)
    roots, t_min = _refine(family, lo, hi, f_lo, dip_lo, dip_hi)
    assert roots.tolist() == [bisect_root(family, *args)
                              for args in zip(lo.tolist(), hi.tolist(), f_lo.tolist())]
    assert t_min.tolist() == [minimize_abs(family, *args)
                              for args in zip(dip_lo.tolist(), dip_hi.tolist())]


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_more_rows_than_a_deep_pass_holds_match_reference(data):
    # past LOOKAHEAD_POINTS / 3 rows the passes look one level ahead; rows of
    # different widths retire at different steps, so later passes look deeper
    family = _FAMILIES[data.draw(st.sampled_from(sorted(_FAMILIES)))]
    lo, hi = data.draw(_intervals(family, LOOKAHEAD_POINTS // 2, LOOKAHEAD_POINTS // 3 + 1))
    dip_lo, dip_hi = data.draw(_intervals(family))
    f_lo = _f_lo(family, lo)
    roots, t_min = _refine(family, lo, hi, f_lo, dip_lo, dip_hi)
    assert roots.tolist() == [bisect_root(family, *args)
                              for args in zip(lo.tolist(), hi.tolist(), f_lo.tolist())]
    assert t_min.tolist() == [minimize_abs(family, *args)
                              for args in zip(dip_lo.tolist(), dip_hi.tolist())]


def test_grid_brackets_match_reference(sine_evolute):
    # every sign-change bracket of the default grid, refined together
    ts = analysis.parameter_grid(sine_evolute.domain, 1001)
    tp = analysis._first_derivatives(sine_evolute, ts)[0]
    i = np.flatnonzero(tp[:-1] * tp[1:] < 0.0)
    assert i.size == 6  # the seventh zero, t = 0, is a grid point
    roots = _refine(sine_evolute, ts[i], ts[i + 1], tp[i], _NONE, _NONE)[0]
    assert roots.tolist() == [bisect_root(sine_evolute, float(ts[k]), float(ts[k + 1]), float(tp[k]))
                              for k in i.tolist()]


@pytest.fixture
def pass_sizes(monkeypatch):
    """Sizes of the coefficient-jet evaluations, in call order."""
    sizes = []
    original = family_module.LineFamily.coeff_jets

    def spy(self, t, order):
        sizes.append(np.size(t))
        return original(self, t, order)

    monkeypatch.setattr(family_module.LineFamily, "coeff_jets", spy)
    return sizes


def test_singular_search_makes_few_jet_passes(pass_sizes):
    family = _build_family(parse_cli(["analyze", "--A", "1", "--B", "cos t",
                                      "--C", "-t - cos t*sin t", "--domain", "-1000:1000"]))
    pass_sizes.clear()
    points = find_gauss_singular_points(scan_grid(family, 10001))
    assert len(points) == 637     # theta' = 0 at every multiple of pi
    assert len(pass_sizes) <= 50  # one step per pass took 76, bracket by bracket 24,959


def test_one_level_and_deeper_passes_match_reference(pass_sizes):
    family = _FAMILIES[1]
    rows = LOOKAHEAD_POINTS // 2
    lo = np.linspace(-0.9, 0.9, rows) * np.pi
    hi = lo + np.logspace(-11.0, -1.0, rows)  # the narrow rows retire first
    f_lo = _f_lo(family, lo)
    pass_sizes.clear()
    roots = _refine(family, lo, hi, f_lo, _NONE, _NONE)[0]
    sizes = pass_sizes[:]
    assert roots.tolist() == [bisect_root(family, *args)
                              for args in zip(lo.tolist(), hi.tolist(), f_lo.tolist())]
    assert sizes[0] == rows     # one level per pass
    assert max(sizes) > rows    # later, several


def test_off_path_point_outside_the_domain(pass_sizes):
    # the look-ahead tree of [0.05, 1] holds t = 0.346875, inside the hole of
    # a; the path to the root at 0.7 never goes there
    family = _build_family(parse_cli(["analyze", "--theta", "(t-0.7)^2/2",
                                      "--a", "sqrt((t - 0.346875)^2 - 1e-6)",
                                      "--domain", "-1:1"]))
    with pytest.raises(ExpressionDomainError):
        analysis._first_derivatives(family, np.array([0.346875]))
    f_lo = theta_prime(family, 0.05)
    pass_sizes.clear()
    roots = _refine(family, np.array([0.05]), np.array([1.0]), np.array([f_lo]), _NONE, _NONE)[0]
    sizes = pass_sizes[:]
    assert roots.tolist() == [bisect_root(family, 0.05, 1.0, f_lo)]
    assert sizes[0] == 127 and set(sizes[1:]) == {1}  # the tree failed, then one step a pass


def test_example_1_search_makes_few_jet_passes(pass_sizes):
    find_gauss_singular_points(scan_grid(_FAMILIES[1], 1001))
    assert len(pass_sizes) <= 20  # one step per pass took 70


@pytest.mark.parametrize("example", [2, 3, 4, 7])
def test_no_pass_over_an_empty_array(pass_sizes, example):
    # these examples have nothing to bisect or to search
    find_gauss_singular_points(scan_grid(_FAMILIES[example], 1001))
    assert 0 not in pass_sizes


def _stderr_of(argv, capsys):
    assert main(argv) == 5
    return capsys.readouterr().err


def test_domain_error_names_the_first_bracket_in_order(capsys):
    # two brackets hit the log's domain during bisection; the lock-step pass
    # meets the second one first, the replay reports the first, as a loop would
    argv = ["analyze", "--theta", "log((t^2 - 1e-8)*((t-0.5)^2 - 1e-8))", "--a", "t",
            "--domain", "-1:1.0013"]
    assert _stderr_of(argv, capsys) == (
        "error: domain error in 'log((t^2.0-1e-08)*((t-0.5)^2.0-1e-08))' at "
        "t = 2.4593750000044545e-05: log of non-positive value -2.3485557150571636e-09\n")


def test_domain_error_in_a_ternary_search(capsys):
    # theta' = 3t^2 dips without a sign change near 0, where the search leaves
    # the domain of a
    argv = ["analyze", "--theta", "t^3", "--a", "sqrt(t^2 - 1e-12)", "--domain", "-1:1.1"]
    assert _stderr_of(argv, capsys) == (
        "error: domain error in 'sqrt(t^2.0-1e-12)' at t = 3.526888843345593e-07: "
        "sqrt of negative value -8.756105508668438e-13\n")


def test_domain_error_in_both_row_kinds_names_the_bisection(capsys):
    # the dip at 0 and the sign change at 0.375 both leave the domain of a;
    # the bisections are replayed first, so the error names the bisection row
    argv = ["analyze", "--theta", "t^3*(t - 0.5)",
            "--a", "sqrt(t^2 - 1e-12)*sqrt((t-0.375)^2 - 1e-12)", "--domain", "-1:1.1"]
    assert _stderr_of(argv, capsys) == (
        "error: domain error in 'sqrt((t-0.375)^2.0-1e-12)' at t = 0.37499960937500015: "
        "sqrt of negative value -8.474121094949734e-13\n")
