"""Lock-step refinement of Gauss-map singular points: bisections and ternary
searches advance together in one loop of array passes, each pass walking
each row as far as its model of theta' predicts, and end on the same bits as
the bracket-by-bracket reference, whether the predictions hold or not."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from envlines import analysis, family as family_module
from envlines.analysis import PASS_POINTS, _refine, find_gauss_singular_points, scan_grid
from envlines.cli import WORKED_EXAMPLES, _build_family, main, parse_cli
from envlines.expr import ExpressionDomainError
from refinement_reference import bisect_root, minimize_abs, theta_prime

_FAMILIES = {k: _build_family(parse_cli(["analyze", "--example", str(k)]))
             for k in WORKED_EXAMPLES}
_NONE = np.empty(0)
_NO_DIPS = np.empty((0, 3))


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
    """theta' at each parameter of lo, an array of any shape."""
    return np.array([theta_prime(family, t) for t in lo.ravel().tolist()]).reshape(lo.shape)


def _dips(family, lo, hi):
    """Ternary rows (lo, midpoint, hi) and theta' there, the seeds of their models."""
    dips = np.stack((lo, 0.5 * (lo + hi), hi), axis=1)
    return dips, _f_lo(family, dips)


@given(_brackets())
@settings(max_examples=60, deadline=None)
def test_lockstep_bisection_matches_reference(case):
    family, (lo, hi) = case
    f_lo = _f_lo(family, lo)
    roots, t_min = _refine(family, lo, hi, f_lo, _f_lo(family, hi), _NO_DIPS, _NO_DIPS)
    expected = [bisect_root(family, *args) for args in zip(lo.tolist(), hi.tolist(), f_lo.tolist())]
    assert roots.tolist() == expected
    assert t_min.size == 0


@given(_brackets())
@settings(max_examples=60, deadline=None)
def test_lockstep_ternary_search_matches_reference(case):
    family, (lo, hi) = case
    roots, t_min = _refine(family, _NONE, _NONE, _NONE, _NONE, *_dips(family, lo, hi))
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
    roots, t_min = _refine(family, lo, hi, f_lo, _f_lo(family, hi), *_dips(family, dip_lo, dip_hi))
    assert roots.tolist() == [bisect_root(family, *args)
                              for args in zip(lo.tolist(), hi.tolist(), f_lo.tolist())]
    assert t_min.tolist() == [minimize_abs(family, *args)
                              for args in zip(dip_lo.tolist(), dip_hi.tolist())]


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_more_rows_than_a_deep_pass_holds_match_reference(data):
    # with a budget of 64 parameters a pass, 43 to 64 bisections and up to 8
    # searches (2 parameters a level) fit one level each at most: the first
    # passes look one level ahead, and rows past the budget wait a pass; rows
    # of different widths retire at different steps, so later passes look deeper
    family = _FAMILIES[data.draw(st.sampled_from(sorted(_FAMILIES)))]
    lo, hi = data.draw(_intervals(family, 64, 43))
    dip_lo, dip_hi = data.draw(_intervals(family))
    f_lo = _f_lo(family, lo)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "PASS_POINTS", 64)
        roots, t_min = _refine(family, lo, hi, f_lo, _f_lo(family, hi),
                               *_dips(family, dip_lo, dip_hi))
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
    roots = _refine(sine_evolute, ts[i], ts[i + 1], tp[i], tp[i + 1], _NO_DIPS, _NO_DIPS)[0]
    assert roots.tolist() == [bisect_root(sine_evolute, float(ts[k]), float(ts[k + 1]), float(tp[k]))
                              for k in i.tolist()]


def _family(theta, domain="-1:1"):
    return _build_family(parse_cli(["analyze", "--theta", theta, "--a", "t", "--domain", domain]))


def _check_rows(family, lo, hi, dip_lo, dip_hi):
    """Refine the brackets [lo, hi] and the dips [dip_lo, dip_hi] in one call,
    seeded as a scan seeds them, and compare each row with its own loop."""
    f_lo = _f_lo(family, lo)
    roots, t_min = _refine(family, lo, hi, f_lo, _f_lo(family, hi), *_dips(family, dip_lo, dip_hi))
    assert roots.tolist() == [bisect_root(family, *args)
                              for args in zip(lo.tolist(), hi.tolist(), f_lo.tolist())]
    assert t_min.tolist() == [minimize_abs(family, *args)
                              for args in zip(dip_lo.tolist(), dip_hi.tolist())]


@given(st.lists(st.floats(0.05, 0.6), min_size=4, max_size=4), st.floats(0.0, 1.0))
@settings(max_examples=30, deadline=None)
def test_brackets_over_three_sign_changes_match_reference(gaps, shift):
    # theta' = (t - r1)(t - r2)(t - r3) changes sign three times in [lo, hi]:
    # the secant through the ends aims between the roots, wherever the
    # bisection goes, and its later points can straddle another root
    lo = -1.0 + gaps[0] * shift
    r1, r2, r3 = (np.cumsum(gaps[:3]) + lo).tolist()
    hi = r3 + gaps[3]
    e1, e2, e3 = r1 + r2 + r3, r1 * r2 + r1 * r3 + r2 * r3, r1 * r2 * r3
    family = _family(f"t^4/4 - {e1!r}*t^3/3 + {e2!r}*t^2/2 - {e3!r}*t", "-1:2")
    assert theta_prime(family, lo) < 0.0 < theta_prime(family, hi)
    _check_rows(family, np.array([lo, lo, r1 - 1e-3]), np.array([hi, r3 + 1e-3, hi]), _NONE, _NONE)


@given(st.floats(-0.5, 0.5), st.booleans(), st.data())
@settings(max_examples=30, deadline=None)
def test_searches_of_dips_flat_to_rounding_match_reference(c, expanded, data):
    # theta = (t - c)^5: theta' = 5 (t - c)^4 is below every band near c, and
    # expanded into powers of t it is rounding noise there, so the parabolas
    # through a search's last points aim anywhere
    if expanded:
        theta = " + ".join(f"({binomial * (-c) ** (5 - k)!r})*t^{k}"
                           for k, binomial in enumerate((1, 5, 10, 10, 5, 1)))
    else:
        theta = f"(t - ({c!r}))^5"
    family = _family(theta)
    width = 10.0 ** data.draw(st.floats(-12.5, -1.0))
    dip_lo = c - width * np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6)))
    _check_rows(family, _NONE, _NONE, dip_lo, dip_lo + width)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_rows_past_one_ulp_of_their_width_match_reference(data):
    # from |t| = 8192 one ulp exceeds ROOT_WIDTH: narrow rows retire on an
    # unchanged width, wherever their models aim
    theta, domain = data.draw(st.sampled_from([
        ("(t-10000.4)^3", "10000:10001"), ("sin(3*t)", "10000:10001"),
        ("(t+8500.3)^2*(t+8500.6)", "-8501:-8500")]))
    family = _family(theta, domain)
    _check_rows(family, *data.draw(_intervals(family)), *data.draw(_intervals(family)))


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_every_pass_is_non_empty_and_within_the_budget(data):
    # any budget from one search level (2 parameters) up, fewer or more rows
    # than it holds: no pass is empty or past the budget, and the bits hold
    family = _FAMILIES[data.draw(st.sampled_from(sorted(_FAMILIES)))]
    lo, hi = data.draw(_intervals(family, 16))
    dip_lo, dip_hi = data.draw(_intervals(family, 4))
    budget = data.draw(st.integers(2, 48))
    f_lo, f_hi, dips = _f_lo(family, lo), _f_lo(family, hi), _dips(family, dip_lo, dip_hi)
    sizes = []
    original = family_module.LineFamily.coeff_jets

    def spy(self, t, order):
        sizes.append(np.size(t))
        return original(self, t, order)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "PASS_POINTS", budget)
        patch.setattr(family_module.LineFamily, "coeff_jets", spy)
        _refine(family, lo, hi, f_lo, f_hi, *dips)
    assert all(0 < size <= budget for size in sizes)
    _check_rows(family, lo, hi, dip_lo, dip_hi)


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


@pytest.fixture
def evaluated(monkeypatch):
    """The parameters of every coefficient-jet evaluation, in call order."""
    calls = []
    original = family_module.LineFamily.coeff_jets

    def spy(self, t, order):
        calls.append(np.array(t, dtype=float, ndmin=1))
        return original(self, t, order)

    monkeypatch.setattr(family_module.LineFamily, "coeff_jets", spy)
    return calls


def test_singular_search_makes_few_jet_passes(pass_sizes):
    family = _build_family(parse_cli(["analyze", "--A", "1", "--B", "cos t",
                                      "--C", "-t - cos t*sin t", "--domain", "-1000:1000"]))
    pass_sizes.clear()
    points = find_gauss_singular_points(scan_grid(family, 10001))
    assert len(points) == 637     # theta' = 0 at every multiple of pi
    assert len(pass_sizes) <= 15  # a look-ahead tree took 47, one level per pass 75
    assert max(pass_sizes[1:]) <= PASS_POINTS  # after the scan's pass over the grid


def test_one_level_and_deeper_passes_match_reference(pass_sizes):
    family = _FAMILIES[1]
    rows = PASS_POINTS // 2 + 1  # two levels each would pass the budget
    lo = np.linspace(-0.9, 0.9, rows) * np.pi
    hi = lo + np.logspace(-11.0, -1.0, rows)  # the narrow rows retire first
    f_lo = _f_lo(family, lo)
    f_hi = _f_lo(family, hi)
    pass_sizes.clear()
    roots = _refine(family, lo, hi, f_lo, f_hi, _NO_DIPS, _NO_DIPS)[0]
    sizes = pass_sizes[:]
    assert roots.tolist() == [bisect_root(family, *args)
                              for args in zip(lo.tolist(), hi.tolist(), f_lo.tolist())]
    assert sizes[0] == rows                    # one level per pass
    assert rows < max(sizes) <= PASS_POINTS    # later, several


def _hole(t):
    """The a of a family whose lines leave the domain within 1e-3 of t."""
    return f"sqrt((t - {t!r})^2 - 1e-6)"


def test_off_path_point_outside_the_domain(evaluated):
    # the old look-ahead tree of [0.05, 1] held t = 0.346875, inside the hole
    # of a; theta' = t - 0.7 is its own secant, so every path goes straight
    # to the root at 0.7 and never near the hole: no fallback runs
    family = _build_family(parse_cli(["analyze", "--theta", "(t-0.7)^2/2",
                                      "--a", _hole(0.346875), "--domain", "-1:1"]))
    with pytest.raises(ExpressionDomainError):
        analysis._first_derivatives(family, np.array([0.346875]))
    f_lo, f_hi = theta_prime(family, 0.05), theta_prime(family, 1.0)
    evaluated.clear()
    roots = _refine(family, np.array([0.05]), np.array([1.0]), np.array([f_lo]),
                    np.array([f_hi]), _NO_DIPS, _NO_DIPS)[0]
    points = np.concatenate(evaluated)
    assert roots.tolist() == [bisect_root(family, 0.05, 1.0, f_lo)]
    assert np.unique(points).size == points.size  # no parameter evaluated twice
    assert np.all(np.abs(points - 0.346875) > 1e-3)


def test_predicted_path_through_a_hole_falls_back(evaluated):
    # theta' = (t - 0.7)^3: the secant through the ends aims at 0.915, so the
    # first pass predicts [0.7625, 1] after [0.525, 1] and evaluates its
    # midpoint 0.88125, inside the hole of a; the true path turns left at
    # 0.7625 and never goes there, so the one-level rerun ends on the root
    family = _build_family(parse_cli(["analyze", "--theta", "(t-0.7)^4/4",
                                      "--a", _hole(0.88125), "--domain", "-1:1"]))
    f_lo, f_hi = theta_prime(family, 0.05), theta_prime(family, 1.0)
    evaluated.clear()
    roots = _refine(family, np.array([0.05]), np.array([1.0]), np.array([f_lo]),
                    np.array([f_hi]), _NO_DIPS, _NO_DIPS)[0]
    assert roots.tolist() == [bisect_root(family, 0.05, 1.0, f_lo)]
    first, *rerun = evaluated
    assert np.any(np.abs(first - 0.88125) < 1e-3)  # the predicted path hit the hole
    assert {t.size for t in rerun} == {1}          # then one level a pass
    assert rerun[0][0] == first[0]                 # from the first midpoint on
    assert np.all(np.abs(np.concatenate(rerun) - 0.88125) > 1e-3)


def test_example_1_search_makes_few_jet_passes(pass_sizes):
    find_gauss_singular_points(scan_grid(_FAMILIES[1], 1001))
    assert len(pass_sizes) <= 8  # a look-ahead tree took 17, one level per pass 69


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
