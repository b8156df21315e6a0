"""The creator's one array path against the float reference it replaced, bit
for bit and error for error, at the parameters where the reference changes
case: around resolved singular points and their blend radii, at the edges of
flat intervals and one cell beyond, and at banded grid points."""

import numpy as np
import pytest

from creator_reference import creator_reference
from envlines import UndefinedCreatorError, assess_creativity, find_gauss_singular_points
from envlines.analysis import EPS_SING, _assemble_canonical, scan_grid
from envlines.cli import _build_family, parse_cli

SINE_TANGENT_WIDE = ["analyze", "--A", "-cos t", "--B", "1", "--C", "t*cos t - sin t",
                     "--domain", "-1000:1000"]


def _probes(creator, scan, zones):
    """Case boundaries of the reference, each with its float neighbours."""
    cell = scan.ts[1] - scan.ts[0]
    ts = []
    for t0, _, radius in creator.resolved[:zones]:
        for d in (0.0, 0.5 * radius, radius, 2.0 * radius, cell):
            ts += [t0 - d, t0 + d]
    for lo, hi, _ in creator.flat_intervals:
        ts += [lo - 1e-12, hi + 1e-12, lo - cell, hi + cell, lo - 2.0 * cell, hi + 2.0 * cell,
               0.5 * (lo + hi)]
    ts += scan.ts[np.abs(scan.theta_prime) <= EPS_SING * scan.scale_theta].tolist()
    ts += list(creator.unresolved_ts) + scan.ts[::97].tolist()
    ts = np.array(ts)
    return np.concatenate((ts, np.nextafter(ts, -np.inf), np.nextafter(ts, np.inf)))


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
    _check(assess_creativity(family, 1001, scan=scan).creator, scan)


def test_undefined_creator_matches_reference(sine_evolute):
    # every point unresolved: the error names the nearest one, as the reference does
    scan = scan_grid(sine_evolute, 1001)
    singulars = find_gauss_singular_points(sine_evolute, 1001, scan)
    _check(_assemble_canonical(sine_evolute, 1001, scan, singulars, []), scan)


def test_wide_creator_matches_reference():
    # 637 resolved zones; the reference scans all of them for each parameter,
    # so it is checked around the first 64
    family = _build_family(parse_cli(SINE_TANGENT_WIDE))
    scan = scan_grid(family, 10001)
    creator = assess_creativity(family, 10001, scan=scan).creator
    assert len(creator.resolved) == 637
    _check(creator, scan, zones=64)
