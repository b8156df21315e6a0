"""The array L'Hopital classification against the loop over the points
(``classify_reference``), and the records built from it, field for field
and bit for bit, on families whose singular points cover every order,
resolvable or not, and flat runs."""

import pytest

import test_ground_truth
from classify_reference import assert_classified_as_reference, assert_records_follow_the_rules
from envlines import analysis, build_family_general, build_family_normalized, parse_expression
from envlines.analysis import find_gauss_singular_points, scan_grid
from envlines.cli import _build_family, parse_cli

P = parse_expression
WIDE = (-1000.0, 1000.0)
CLOSE_STALLS = "t^4/4 - 0.001*t^3/3 - 0.000002*t^2/2"

FAMILIES = {
    **{f"example-{k}-grid-{n}": (lambda k=k: _build_family(parse_cli(
        ["analyze", "--example", str(k)])), n) for k in range(1, 8) for n in (257, 1001)},
    "sine-evolute-wide": (lambda: build_family_general(
        P("1"), P("cos t"), P("-t - cos t*sin t"), WIDE), 10001),
    "sine-tangent-wide": (lambda: build_family_general(
        P("-cos t"), P("1"), P("t*cos t - sin t"), WIDE), 10001),
    # a stall of order k at 0: resolvable through order 4, flat past it
    **{f"power-{k}": (lambda k=k: build_family_normalized(
        P(f"t^{k}"), P(f"t^{k + 1}"), (-1.0, 1.0)), 1001) for k in range(2, 8)},
    "cubic-off-grid": (lambda: build_family_normalized(
        P("(t-0.721)^3"), P("0"), (-1.0, 1.0)), 1001),
    # theta' = t (t + 0.001)(t - 0.002): each radius stops halfway to a neighbour
    "close-stalls": (lambda: build_family_normalized(
        P(CLOSE_STALLS), P(f"2*({CLOSE_STALLS})"), (-1.0, 1.0)), 10001),
}


def _spy_classification(monkeypatch):
    """Every ``_classify_points`` call's output from now on, each checked
    against the loop reference."""
    classify, calls = analysis._classify_points, []

    def checked(family, ts, scale_theta):
        points = classify(family, ts, scale_theta)
        assert_classified_as_reference(points, family, scale_theta)
        calls.append(points)
        return points

    monkeypatch.setattr(analysis, "_classify_points", checked)
    return calls


@pytest.mark.parametrize("name", list(FAMILIES))
def test_classification_matches_the_loop_reference(monkeypatch, name):
    # the classification sees every candidate, flat midpoints included; the
    # records then put one a'-band record in place of each flat run
    build, grid_n = FAMILIES[name]
    family = build()
    scan = scan_grid(family, grid_n)
    calls = _spy_classification(monkeypatch)
    records = find_gauss_singular_points(scan)
    assert len(calls) == 1
    assert_records_follow_the_rules(records, calls[0], scan)


def test_ground_truth_draws_match_the_loop_reference(monkeypatch):
    # the draws of the ground-truth property itself, which its source seeds
    calls = _spy_classification(monkeypatch)
    test_ground_truth.test_stall_of_order_j_has_the_exact_creator()
    assert len(calls) >= 36 and all(calls)
