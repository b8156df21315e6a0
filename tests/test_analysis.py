import math
import random

import numpy as np
import pytest

from envlines import (
    CREATIVE,
    INCONCLUSIVE,
    NON_UNIQUE,
    NOT_CREATIVE,
    UNIQUE,
    ExpressionDomainError,
    InvalidCreatorError,
    UndefinedCreatorError,
    assess_creativity,
    assess_uniqueness,
    build_creator,
    build_family_general,
    build_family_normalized,
    analyze,
    envelope_point,
    find_gauss_singular_points,
    parse_expression,
)
from envlines.analysis import _assemble_canonical, parameter_grid, scan_grid, star_residual
from conftest import scan_and_singulars, sine_b_reference
from exprgen import gentle_expression

P = parse_expression

KPI = [k * math.pi for k in range(-3, 4)]


class TestFindSingularPoints:
    def test_sine_tangent_singular_at_multiples_of_pi(self, sine_tangent):
        points = find_gauss_singular_points(scan_grid(sine_tangent, 1001))
        assert len(points) == 7
        for point, expected in zip(points, KPI):
            assert abs(point.t - expected) <= 1e-9
            assert point.theta_derivative_order == 2
            assert point.resolvable

    def test_nonsingular_family_has_none(self, rotating_pencil):
        assert find_gauss_singular_points(scan_grid(rotating_pencil, 1001)) == ()

    def test_quadratic_angle_order_two(self, quadratic_angle):
        points = find_gauss_singular_points(scan_grid(quadratic_angle, 1001))
        assert len(points) == 1
        assert abs(points[0].t) <= 1e-9
        assert points[0].theta_derivative_order == 2
        assert points[0].resolvable and points[0].b_limit == 0.0

    def test_tangential_root_off_grid(self):
        # theta' = 3 (t - 0.001)^2 never changes sign; needs the local
        # minimization path (0.001 is not a grid point for even grid_n)
        family = build_family_normalized(P("(t - 0.001)^3"), P("0"), (-1.0, 1.0))
        points = find_gauss_singular_points(scan_grid(family, 1000))
        assert len(points) == 1
        assert abs(points[0].t - 0.001) <= 1e-6
        assert points[0].theta_derivative_order == 3

    def test_tangential_root_midway_between_grid_points(self):
        # 0.721 is the midpoint of the grid cell [0.72, 0.722]: |theta'| ties
        # at its two ends, and the dip at the right one is still searched
        family = build_family_normalized(P("(t - 0.721)^3"), P("0"), (-1.0, 1.0))
        points = find_gauss_singular_points(scan_grid(family, 1001))
        assert len(points) == 1 and abs(points[0].t - 0.721) <= 1e-6
        assert analyze(family, 1001).creativity.verdict == CREATIVE

    def test_evolute_points_not_resolvable(self, sine_evolute):
        points = find_gauss_singular_points(scan_grid(sine_evolute, 1001))
        assert len(points) == 7
        assert all(not p.resolvable for p in points)
        assert all(abs(p.a_prime_at) > 0.1 for p in points)


class TestCreatorAt:
    """The run's creator answers a point query with the run's singular points."""

    def test_sine_tangent_regular_value(self, sine_tangent):
        b = analyze(sine_tangent, 1001).creator(math.pi / 2)
        assert b == pytest.approx(-math.pi / 2, abs=1e-9)

    def test_sine_tangent_at_singular_parameter(self, sine_tangent):
        assert abs(analyze(sine_tangent, 1001).creator(0.0)) <= 1e-9

    def test_evolute_undefined_at_singular_parameter(self, sine_evolute):
        # not creative, so no run has a creator: assemble one from the points
        scan, singulars = scan_and_singulars(sine_evolute, 1001)
        creator = _assemble_canonical(scan, singulars, [])
        with pytest.raises(UndefinedCreatorError) as err:
            creator(math.pi)
        assert abs(err.value.t - math.pi) <= 1e-9


class TestAssessCreativity:
    def test_sine_tangent_creative_with_matching_creator(self, sine_tangent):
        report = assess_creativity(*scan_and_singulars(sine_tangent, 1001))
        assert report.verdict == CREATIVE
        creator = report.creator
        for t in parameter_grid(sine_tangent.domain, 1001):
            expected = sine_b_reference(float(t))
            assert abs(creator(float(t)) - expected) <= 1e-6 * (1.0 + abs(expected))

    def test_parallel_shift_not_creative(self, parallel_shift):
        report = assess_creativity(*scan_and_singulars(parallel_shift, 1001))
        assert report.verdict == NOT_CREATIVE
        assert report.creator is None

    def test_evolute_not_creative(self, sine_evolute):
        report = assess_creativity(*scan_and_singulars(sine_evolute, 1001))
        assert report.verdict == NOT_CREATIVE
        unresolved = [p for p in report.witnesses if not p.resolvable]
        assert len(unresolved) == 7

    def test_still_family_creative_with_whole_domain_flat(self, still_family):
        report = assess_creativity(*scan_and_singulars(still_family, 1001))
        assert report.verdict == CREATIVE
        assert report.creator.flat_intervals == ((-1.0, 1.0, 0.0),)
        assert "under-determined" in report.notes

    def test_certification_note_present(self, sine_tangent):
        report = assess_creativity(*scan_and_singulars(sine_tangent, 1001))
        assert "certified at grid_n = 1001" in report.notes

    def test_grid_precondition(self, sine_tangent):
        with pytest.raises(ValueError):
            scan_grid(sine_tangent, 8)

    def test_deep_flat_point_with_flat_offset_is_undecided(self):
        # theta' = 7 t^6 vanishes through order 4 at an isolated point while
        # a' does too: beyond L'Hopital depth, so the tool must say so
        family = build_family_normalized(P("t^7"), P("0"), (-4.0, 4.0))
        report = assess_creativity(*scan_and_singulars(family, 101))
        assert report.verdict == INCONCLUSIVE

    def test_deep_flat_point_with_moving_offset_is_not_creative(self):
        family = build_family_normalized(P("t^7"), P("t"), (-4.0, 4.0))
        report = assess_creativity(*scan_and_singulars(family, 101))
        assert report.verdict == NOT_CREATIVE

    def test_creator_defined_across_flat_boundary_at_finer_sampling(self):
        # the flat interval of theta' = 9 t^8 is recorded at grid
        # resolution; a 4x finer grid lands inside the theta' band just
        # outside the stored bounds and must still get the fill value
        family = build_family_normalized(P("t^9"), P("0"), (-1.0, 1.0))
        report = assess_creativity(*scan_and_singulars(family, 1001))
        assert report.verdict == CREATIVE
        for t in parameter_grid(family.domain, 4001):
            assert abs(report.creator(float(t))) < 1e6  # defined everywhere


class TestAssessUniqueness:
    def test_sine_tangent_unique(self, sine_tangent):
        verdict = assess_uniqueness(scan_grid(sine_tangent, 1001))
        assert verdict.verdict == UNIQUE
        assert verdict.flat_intervals == ()

    def test_still_family_non_unique(self, still_family):
        verdict = assess_uniqueness(scan_grid(still_family, 1001))
        assert verdict.verdict == NON_UNIQUE
        assert verdict.flat_intervals == ((-1.0, 1.0),)

    def test_quadratic_angle_unique(self, quadratic_angle):
        assert assess_uniqueness(scan_grid(quadratic_angle, 1001)).verdict == UNIQUE

    def test_partial_flat_interval_non_unique(self):
        # theta' = 9 t^8 sits inside the singularity band on a stretch of
        # the grid around 0, long enough to count as a flat interval
        family = build_family_normalized(P("t^9"), P("0"), (-1.0, 1.0))
        verdict = assess_uniqueness(scan_grid(family, 1001))
        assert verdict.verdict == NON_UNIQUE
        lo, hi = verdict.flat_intervals[0]
        assert -0.1 <= lo <= -0.05 and 0.05 <= hi <= 0.1

    def test_stall_shorter_than_a_flat_interval_is_inconclusive(self):
        # theta' = 5 t^4 sits inside the singularity band on a few neighbouring
        # grid points around 0: regular points are not dense there, and the
        # run is too short to count as a flat interval
        family = build_family_normalized(P("t^5"), P("0"), (-1.0, 1.0))
        verdict = assess_uniqueness(scan_grid(family, 1001))
        assert verdict.verdict == INCONCLUSIVE
        assert verdict.flat_intervals == ()


class TestBuildCreator:
    def test_user_creator_on_still_family(self, still_family):
        scan, singulars = scan_and_singulars(still_family, 1001)
        report = assess_creativity(scan, singulars)
        creator = build_creator(scan, report, P("sin(t)"))
        assert creator.kind == "user"
        assert creator(0.4) == math.sin(0.4)

    def test_canonical_matches_closed_form(self, sine_tangent):
        scan, singulars = scan_and_singulars(sine_tangent, 1001)
        report = assess_creativity(scan, singulars)
        creator = build_creator(scan, report)
        assert creator.kind == "canonical"
        assert creator(1.0) == pytest.approx(sine_b_reference(1.0), rel=1e-9)

    def test_quadratic_angle_creator_identically_zero(self, quadratic_angle):
        scan, singulars = scan_and_singulars(quadratic_angle, 1001)
        report = assess_creativity(scan, singulars)
        creator = build_creator(scan, report)
        assert all(creator(float(t)) == 0.0 for t in parameter_grid((-1.0, 1.0), 101))

    def test_invalid_user_creator_cites_first_grid_t(self, rotating_pencil):
        scan, singulars = scan_and_singulars(rotating_pencil, 1001)
        report = assess_creativity(scan, singulars)
        with pytest.raises(InvalidCreatorError) as err:
            build_creator(scan, report, P("1"))
        assert err.value.t == -1.0
        assert err.value.residual == pytest.approx(1.0)

    def test_user_creator_leaving_its_domain_after_a_valid_prefix(self):
        # b = a'/theta' up to t = 0.5, where log(0.5 - t) leaves its domain;
        # the relation holds on the prefix, so the domain error is reported
        family = build_family_normalized(P("t"), P("t^2"), (-1.0, 1.0))
        scan, singulars = scan_and_singulars(family, 1001)
        report = assess_creativity(scan, singulars)
        with pytest.raises(ExpressionDomainError) as err:
            build_creator(scan, report, P("2*t + 0*log(0.5 - t)"))
        assert err.value.subexpr == "log(0.5-t)"
        assert err.value.t == float(parameter_grid((-1.0, 1.0), 1001)[750])
        # a residual failure earlier on the grid wins over the later domain error
        with pytest.raises(InvalidCreatorError) as err:
            build_creator(scan, report, P("t + 0*log(0.5 - t)"))
        assert err.value.t == -1.0

    def test_rejects_non_creative_report(self, parallel_shift):
        scan, singulars = scan_and_singulars(parallel_shift, 1001)
        report = assess_creativity(scan, singulars)
        with pytest.raises(ValueError):
            build_creator(scan, report, P("0"))


class TestProperties:
    def test_star_residual_bound_for_creative_families(
            self, sine_tangent, still_family, quadratic_angle, clairaut_parabola):
        for family in (sine_tangent, still_family, quadratic_angle, clairaut_parabola):
            report = assess_creativity(*scan_and_singulars(family, 1001))
            assert report.verdict == CREATIVE
            worst, _ = star_residual(family, report.creator, parameter_grid(family.domain, 1001))
            assert worst <= 1e-6

    def test_nonsingular_gauss_map_implies_creative(self):
        rng = random.Random(20260809)
        for _ in range(20):
            eps = rng.uniform(-0.95, 0.95)
            theta = P(f"t + {eps!r}*sin(t)")
            a = P(gentle_expression(rng))
            family = build_family_normalized(theta, a, (-3.0, 3.0))
            assert assess_creativity(*scan_and_singulars(family, 257)).verdict == CREATIVE

    def test_antipodal_invariance(self, sine_tangent):
        flipped = build_family_general(
            P("cos t"), P("-1"), P("-(t*cos t - sin t)"), (-10.0, 10.0))
        rep_a = assess_creativity(*scan_and_singulars(sine_tangent, 1001))
        rep_b = assess_creativity(*scan_and_singulars(flipped, 1001))
        assert rep_a.verdict == rep_b.verdict == CREATIVE
        ca, cb = rep_a.creator, rep_b.creator
        for t in np.linspace(-10.0, 10.0, 41):
            assert cb(float(t)) == pytest.approx(-ca(float(t)), abs=1e-9)
            pa = envelope_point(sine_tangent, ca, float(t)).point
            pb = envelope_point(flipped, cb, float(t)).point
            assert abs(pa[0] - pb[0]) <= 1e-9 and abs(pa[1] - pb[1]) <= 1e-9

    def test_lhopital_values_match_one_sided_quotients(self, sine_tangent):
        # at each resolvable singular point compare b_limit with the
        # extrapolated quotient a'/theta' sampled at t0 + 10^-k, k = 5, 6
        from envlines.analysis import _first_derivatives
        for point in find_gauss_singular_points(scan_grid(sine_tangent, 1001)):
            assert point.resolvable
            def quotient(u):
                tp, ap = _first_derivatives(sine_tangent, u)
                return ap / tp
            q5 = quotient(point.t + 1e-5)
            q6 = quotient(point.t + 1e-6)
            extrapolated = q6 + (q6 - q5) / 9.0
            assert abs(extrapolated - point.b_limit) <= 1e-4 * (1.0 + abs(point.b_limit))
