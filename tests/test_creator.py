"""The creator's one array path against the float reference, bit for bit and
error for error, at the parameters where the reference changes case: around
resolved singular points and their series radii, at the edges of flat
intervals and one cell beyond, and at banded grid points.  Then b itself:
its series meets the quotient at the edge of each zone, and on families with
a closed-form creator it is exact to rounding where the Gauss map stalls."""

import numpy as np
import pytest

from creator_reference import creator_reference
from envlines import (OutOfDomainError, UndefinedCreatorError, analyze, assess_creativity,
                      build_family_normalized, find_gauss_singular_points, parse_expression)
from envlines.analysis import EPS_SING, _assemble_canonical, _first_derivatives, scan_grid
from envlines.cli import _build_family, main, parse_cli
from conftest import scan_and_singulars

SINE_TANGENT_WIDE = ["analyze", "--A", "-cos t", "--B", "1", "--C", "t*cos t - sin t",
                     "--domain", "-1000:1000"]


def _probes(creator, scan, zones):
    """Case boundaries of the reference in the domain, each with its float
    neighbours."""
    cell = scan.ts[1] - scan.ts[0]
    ts = []
    for point in creator.resolved[:zones]:
        for d in (0.0, 0.5 * point.radius, point.radius, 2.0 * point.radius, cell):
            ts += [point.t - d, point.t + d]
    for lo, hi, _ in creator.flat_intervals:
        ts += [lo - 1e-12, hi + 1e-12, lo - cell, hi + cell, lo - 2.0 * cell, hi + 2.0 * cell,
               0.5 * (lo + hi)]
    ts += scan.ts[np.abs(scan.theta_prime) <= EPS_SING * scan.scale_theta].tolist()
    ts += list(creator.unresolved_ts) + scan.ts[::97].tolist()
    ts = np.array(ts)
    ts = np.concatenate((ts, np.nextafter(ts, -np.inf), np.nextafter(ts, np.inf)))
    lo, hi = creator.family.domain
    return ts[(lo <= ts) & (ts <= hi)]  # the creator raises outside the domain


def _outcome(f, t):
    try:
        return np.asarray(f(t), dtype=float).tobytes()
    except UndefinedCreatorError as err:
        return str(err)


def _check(creator, scan, zones=None):
    ts = _probes(creator, scan, zones)
    expected = [_outcome(lambda u: creator_reference(creator, u), t) for t in ts.tolist()]
    assert [_outcome(creator, t) for t in ts.tolist()] == expected
    first_error = next((e for e in expected if isinstance(e, str)), None)
    on_array = first_error or b"".join(expected)
    assert _outcome(creator, ts) == on_array


@pytest.mark.parametrize("example", [1, 2, 5, 7])
def test_worked_example_creator_matches_reference(example):
    family = _build_family(parse_cli(["analyze", "--example", str(example)]))
    scan = scan_grid(family, 1001)
    _check(assess_creativity(scan, find_gauss_singular_points(scan)).creator, scan)


def test_undefined_creator_matches_reference(sine_evolute):
    # every point unresolved: the error names the nearest one, as the reference does
    scan = scan_grid(sine_evolute, 1001)
    singulars = find_gauss_singular_points(scan)
    _check(_assemble_canonical(scan, singulars, []), scan)


def test_wide_creator_matches_reference():
    # 637 resolved zones; the reference scans all of them for each parameter,
    # so it is checked around the first 64
    family = _build_family(parse_cli(SINE_TANGENT_WIDE))
    scan = scan_grid(family, 10001)
    creator = assess_creativity(scan, find_gauss_singular_points(scan)).creator
    assert len(creator.resolved) == 637
    _check(creator, scan, zones=64)


def _sine_cubed():
    return build_family_normalized(parse_expression("sin(t)^3"), parse_expression("sin(t)^4"),
                                   (-10.0, 10.0))


@pytest.mark.parametrize("family, grid_n", [
    (_build_family(parse_cli(["analyze", "--example", "1"])), 1001),
    (_build_family(parse_cli(["analyze", "--example", "5"])), 1001),
    (_sine_cubed(), 1001),
    (_build_family(parse_cli(SINE_TANGENT_WIDE)), 10001),
])
def test_series_meets_the_quotient_at_each_zone_edge(family, grid_n):
    creator = assess_creativity(*scan_and_singulars(family, grid_n)).creator
    edges = 0
    for point in creator.resolved:
        for d in (-point.radius, point.radius):
            if point.radius == 0.0 or not family.contains(point.t + d):
                continue
            series = np.polyval(point.series[::-1], d)
            tp, ap = _first_derivatives(family, point.t + d)
            assert abs(series - ap / tp) <= 1e-9 * (1.0 + abs(series)), (point.t, d)
            edges += 1
    assert edges >= len(creator.resolved)


@pytest.mark.parametrize("family, grid_n, exact", [
    # b = (-t - sin t cos t)/sqrt(1 + cos^2 t), with 637 stalls of order 2
    (_build_family(parse_cli(SINE_TANGENT_WIDE)), 10001,
     lambda t: -(t + np.sin(t) * np.cos(t)) / np.sqrt(1.0 + np.cos(t) ** 2)),
    # b = 4/3 sin t, with stalls of order 3 at the multiples of pi
    (_sine_cubed(), 1001, lambda t: 4.0 / 3.0 * np.sin(t)),
    # b = 5t/4, with a stall of order 4 at 0
    (build_family_normalized(parse_expression("t^4"), parse_expression("t^5"), (-1.0, 1.0)),
     1001, lambda t: 1.25 * t),
])
def test_creator_is_exact_where_the_gauss_map_stalls(family, grid_n, exact):
    # a linear blend toward b_limit was off by 6.0e-5, 1.9e-4 and 5.1e-3 here
    creator = assess_creativity(*scan_and_singulars(family, grid_n)).creator
    ts = np.linspace(*family.domain, 4 * (max(grid_n, 1001) - 1) + 1)
    assert np.max(np.abs(creator(ts) - exact(ts))) <= 1e-11


def test_wide_sine_tangent_stays_inconclusive(capsys):
    # b is exact now; the 2nd-order tangency residual still fails its band
    assert main([*SINE_TANGENT_WIDE, "--grid-n", "10001"]) == 4
    assert "tangency residual" in capsys.readouterr().out


def test_creator_outside_the_domain_raises(sine_tangent):
    creator = analyze(sine_tangent, 1001).creator
    with pytest.raises(OutOfDomainError, match="t = 11.0 outside"):
        creator(11.0)
    with pytest.raises(OutOfDomainError, match="t = -10.5 outside"):
        creator(np.array([0.0, -10.5, 12.0]))
    assert creator(np.array([-10.0, 10.0])).shape == (2,)
