import json
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import discriminant_reference
from envlines import (
    SingularPoint,
    assess_creativity,
    build_creator,
    build_family_general,
    build_family_normalized,
    analyze,
    compare_methods,
    parse_expression,
    sample_discriminant,
    sample_envelope,
)
from envlines.analysis import scan_grid
from conftest import scan_and_singulars
from envlines.cli import main
from envlines.family import DegenerateFamilyError
from exprgen import gentle_expression

P = parse_expression

SQRT2 = math.sqrt(2.0)
KPI = [k * math.pi for k in range(-3, 4)]


def line_residual(line, x, y):
    return abs(x * line.nu[0] + y * line.nu[1] - line.offset)


def discriminant_at(family, t):
    return analyze(family, 1001).slice_at(t)


class TestDiscriminantAt:
    def test_sine_tangent_whole_line_at_pi(self, sine_tangent):
        sl = discriminant_at(sine_tangent, math.pi)
        assert sl.kind == "whole_line"
        assert sl.line.nu[0] == pytest.approx(1.0 / SQRT2, abs=1e-12)
        assert sl.line.nu[1] == pytest.approx(1.0 / SQRT2, abs=1e-12)
        assert sl.line.offset == pytest.approx(math.pi / SQRT2, abs=1e-12)
        # the line Y = -X + pi
        assert line_residual(sl.line, 0.0, math.pi) <= 1e-9
        assert line_residual(sl.line, 1.0, math.pi - 1.0) <= 1e-9

    def test_sine_tangent_whole_line_at_zero(self, sine_tangent):
        sl = discriminant_at(sine_tangent, 0.0)
        assert sl.kind == "whole_line"
        # the line Y = X
        assert line_residual(sl.line, 0.0, 0.0) <= 1e-12
        assert line_residual(sl.line, 3.0, 3.0) <= 1e-12

    def test_parallel_shift_is_empty(self, parallel_shift):
        for t in (-0.9, 0.0, 0.62):
            assert discriminant_at(parallel_shift, t).kind == "empty"

    def test_regular_point_slice(self, sine_tangent):
        sl = discriminant_at(sine_tangent, math.pi / 2)
        assert sl.kind == "point"
        assert sl.point[0] == pytest.approx(math.pi / 2, abs=1e-9)
        assert sl.point[1] == pytest.approx(1.0, abs=1e-9)


class TestSampleDiscriminant:
    def test_sine_tangent_pollution(self, sine_tangent):
        disc = sample_discriminant(*scan_and_singulars(sine_tangent, 1001))
        assert len(disc.polluted_lines) == 7
        for (t, line), k in zip(disc.polluted_lines, range(-3, 4)):
            assert abs(t - k * math.pi) <= 1e-9
            if k % 2 == 0:  # Y = X - 2 k' pi with k = 2 k'
                assert line_residual(line, 0.0, -k * math.pi) <= 1e-9
                assert line_residual(line, 1.0, 1.0 - k * math.pi) <= 1e-9
            else:  # Y = -X + k pi
                assert line_residual(line, 0.0, k * math.pi) <= 1e-9
                assert line_residual(line, 1.0, k * math.pi - 1.0) <= 1e-9

    def test_sine_tangent_cloud_traces_sine(self, sine_tangent):
        disc = sample_discriminant(*scan_and_singulars(sine_tangent, 1001))
        assert len(disc.point_cloud) >= 1000
        for x, y in disc.point_cloud:
            assert abs(y - math.sin(x)) <= 1e-9

    def test_clairaut_pure_point_cloud(self, clairaut_parabola):
        disc = sample_discriminant(*scan_and_singulars(clairaut_parabola, 401))
        assert disc.polluted_lines == ()
        for x, y in disc.point_cloud:
            assert abs(y - (-x * x / 4.0)) <= 1e-9

    def test_still_family_all_whole_line(self, still_family):
        disc = sample_discriminant(*scan_and_singulars(still_family, 101))
        assert all(sl.kind == "whole_line" for sl in disc.slices)
        assert disc.point_cloud == ()

    def test_slices_ordered(self, sine_tangent):
        disc = sample_discriminant(*scan_and_singulars(sine_tangent, 101))
        ts = [sl.t for sl in disc.slices]
        assert ts == sorted(ts)


class TestCompareMethods:
    def test_sine_tangent_widespread_fails_at_singular_parameters(self, sine_tangent):
        scan, singulars = scan_and_singulars(sine_tangent, 1001)
        creator = build_creator(scan, assess_creativity(scan, singulars))
        cmp = compare_methods(creator, sample_discriminant(scan, singulars),
                              sample_envelope(sine_tangent, creator, 1001, scan))
        assert not cmp.widespread_ok
        assert len(cmp.failure_ts) == 7
        for t, expected in zip(cmp.failure_ts, KPI):
            assert abs(t - expected) <= 1e-9
        assert "fails" in cmp.narrative

    def test_clairaut_widespread_works(self, clairaut_parabola):
        scan, singulars = scan_and_singulars(clairaut_parabola, 1001)
        creator = build_creator(scan, assess_creativity(scan, singulars))
        cmp = compare_methods(creator, sample_discriminant(scan, singulars),
                              sample_envelope(clairaut_parabola, creator, 1001, scan))
        assert cmp.widespread_ok
        assert cmp.failure_ts == ()
        assert "non-singular" in cmp.narrative

    def test_quadratic_angle_fails_only_at_zero(self, quadratic_angle):
        scan, singulars = scan_and_singulars(quadratic_angle, 1001)
        creator = build_creator(scan, assess_creativity(scan, singulars))
        cmp = compare_methods(creator, sample_discriminant(scan, singulars),
                              sample_envelope(quadratic_angle, creator, 1001, scan))
        assert not cmp.widespread_ok
        assert len(cmp.failure_ts) == 1 and abs(cmp.failure_ts[0]) <= 1e-9
        # the exact parametrization still gives the correct envelope there
        from envlines import envelope_point
        assert envelope_point(quadratic_angle, creator, 0.0).point == (0.0, 0.0)


class TestInvariants:
    def test_envelope_contained_in_discriminant(self, sine_tangent):
        scan, singulars = scan_and_singulars(sine_tangent, 1001)
        creator = build_creator(scan, assess_creativity(scan, singulars))
        disc = sample_discriminant(scan, singulars)
        from envlines import envelope_point
        for sl in disc.slices:
            if sl.kind != "point":
                continue
            expected = envelope_point(sine_tangent, creator, sl.t).point
            assert abs(sl.point[0] - expected[0]) <= 1e-9
            assert abs(sl.point[1] - expected[1]) <= 1e-9

    def test_failure_locus_equals_singular_locus(self, sine_tangent):
        scan, points = scan_and_singulars(sine_tangent, 1001)
        creator = build_creator(scan, assess_creativity(scan, points))
        failures = compare_methods(creator, sample_discriminant(scan, points),
                                   sample_envelope(sine_tangent, creator, 1001, scan)).failure_ts
        singulars = [p.t for p in points]
        assert len(failures) == len(singulars)
        for a, b in zip(failures, singulars):
            assert abs(a - b) <= 1e-10


def _near_grid(grid, t, tol=1e-12):
    return bool(np.min(np.abs(grid - t)) <= tol * (1.0 + abs(t)))


class TestMergeRule:
    """A singular parameter within 1e-12 (1 + |t|) of a grid point is that
    grid point; every other one is inserted; grid points are never merged."""

    @pytest.mark.parametrize("offset", [4e-13, -4e-13, 0.0])
    def test_singular_next_to_a_grid_point_is_the_grid_point(self, quadratic_angle, offset):
        singular = SingularPoint(offset, 2, 0.0, True, 0.0)
        disc = sample_discriminant(scan_grid(quadratic_angle, 1001), (singular,))
        assert disc.ts.tolist() == np.linspace(-1.0, 1.0, 1001).tolist()
        assert disc.slices[500] == discriminant_at(quadratic_angle, 0.0)

    def test_singular_between_grid_points_is_inserted(self, quadratic_angle):
        singular = SingularPoint(0.0005, 2, 0.0, True, 0.0)
        disc = sample_discriminant(scan_grid(quadratic_angle, 1001), (singular,))
        assert disc.ts.size == 1002 and disc.ts[501] == 0.0005
        assert np.all(np.diff(disc.ts) > 0.0)

    @pytest.mark.parametrize("argv", [
        ["--example", "1", "--grid-n", "257"],   # the singular at 0 sits 1.5e-14 above 0
        ["--example", "5"],
        ["--example", "6", "--grid-n", "16"],
        ["--A", "1e10*t^3", "--B", "1", "--C", "0", "--domain", "-1:1"],
        # grid points 2e-13 apart: none of them is merged with another
        ["--theta", "t^2", "--a", "0", "--domain", "-1e-10:1e-10", "--grid-n", "1001"],
    ])
    def test_slice_count_is_grid_plus_inserted_singulars(self, capsys, argv):
        main(["analyze", *argv])
        doc = json.loads(capsys.readouterr().out)
        grid = np.linspace(*doc["config"]["domain"], doc["config"]["grid_n"])
        inserted = sum(not _near_grid(grid, p["t"]) for p in doc["gauss_singular_points"])
        counts = doc["discriminant"]
        assert (counts["point_count"] + counts["whole_line_count"] + counts["empty_count"]
                == counts["n"] + inserted)


_FAMILY_BUILDERS = {
    "normalized": lambda rng, domain: build_family_normalized(
        P(gentle_expression(rng)), P(gentle_expression(rng)), domain),
    "general": lambda rng, domain: build_family_general(
        P(gentle_expression(rng)), P(gentle_expression(rng)), P(gentle_expression(rng)), domain),
}


def _assert_matches_reference(family, n, singulars):
    scan = scan_grid(family, n)
    expected = discriminant_reference.sample_discriminant(family, scan, singulars)
    disc = sample_discriminant(scan, singulars)
    assert repr(disc.slices) == repr(expected)  # repr: the same bits, -0.0 and NaN included
    assert disc.point_cloud == tuple(sl.point for sl in expected if sl.kind == "point")
    assert disc.polluted_lines == tuple((sl.t, sl.line) for sl in expected
                                        if sl.kind == "whole_line")


def _off_grid_singulars(family, n):
    """The singular points, or None when one lies next to a grid point but
    not on it: the merge rule differs from the reference only there (the
    reference's set merges an exact hit into its grid point, as the code does)."""
    scan, singulars = scan_and_singulars(family, n)
    grid = set(scan.ts.tolist())
    return None if any(_near_grid(scan.ts, p.t, 2e-12) and p.t not in grid
                       for p in singulars) else singulars


@pytest.mark.parametrize("name", ["sine_tangent", "sine_evolute", "still_family",
                                  "parallel_shift", "quadratic_angle"])
def test_columns_equal_the_reference_slices_on_the_fixtures(request, name):
    # every kind of slice: points, whole lines (sine tangent, still family) and empty ones
    family = request.getfixturevalue(name)
    _assert_matches_reference(family, 100, _off_grid_singulars(family, 100))


@given(seed=st.integers(0, 2 ** 32 - 1), mode=st.sampled_from(sorted(_FAMILY_BUILDERS)),
       lo=st.floats(-6.0, 2.0), width=st.floats(0.5, 8.0), n=st.integers(16, 300))
@settings(max_examples=40, deadline=None)
def test_columns_equal_the_reference_slices(seed, mode, lo, width, n):
    try:
        family = _FAMILY_BUILDERS[mode](random.Random(seed), (lo, lo + width))
        singulars = _off_grid_singulars(family, n)
    except DegenerateFamilyError:  # a general family whose normal vanishes
        return
    assume(singulars is not None)
    _assert_matches_reference(family, n, singulars)
