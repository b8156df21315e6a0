import math

import numpy as np
import pytest

from envlines import (
    CreatorFunction,
    EnvelopeCurve,
    TooFewSamplesError,
    assess_creativity,
    build_creator,
    build_family_hedgehog,
    envelope_point,
    parse_expression,
    sample_envelope,
    verify_envelope,
)
from envlines.analysis import parameter_grid
from conftest import scan_and_singulars

P = parse_expression


def canonical_creator(family, grid_n=1001):
    scan, singulars = scan_and_singulars(family, grid_n)
    return build_creator(scan, assess_creativity(scan, singulars), None)


class TestEnvelopePoint:
    def test_sine_tangent_at_half_pi(self, sine_tangent):
        creator = canonical_creator(sine_tangent)
        point = envelope_point(sine_tangent, creator, math.pi / 2)
        assert point.point[0] == pytest.approx(math.pi / 2, abs=1e-12)
        assert point.point[1] == pytest.approx(1.0, abs=1e-12)

    def test_sine_tangent_at_zero(self, sine_tangent):
        creator = canonical_creator(sine_tangent)
        point = envelope_point(sine_tangent, creator, 0.0)
        assert abs(point.point[0]) <= 1e-12 and abs(point.point[1]) <= 1e-12

    def test_quadratic_angle_envelope_is_origin(self, quadratic_angle):
        creator = canonical_creator(quadratic_angle)
        for t in (-0.9, 0.0, 0.37):
            assert envelope_point(quadratic_angle, creator, t).point == (0.0, 0.0)

    def test_membership_identity(self, sine_tangent):
        creator = canonical_creator(sine_tangent)
        for t in np.linspace(-10.0, 10.0, 101):
            p = envelope_point(sine_tangent, creator, float(t))
            _, _, a = sine_tangent.coeff_jets(float(t), 0)
            assert abs(p.point[0] * p.nu[0] + p.point[1] * p.nu[1] - a.value) <= 1e-12


class TestSampleEnvelope:
    def test_sine_tangent_traces_sine_curve(self, sine_tangent):
        curve = sample_envelope(sine_tangent, canonical_creator(sine_tangent), 1001)
        for p in curve.samples:
            assert abs(p.point[0] - p.t) <= 1e-6
            assert abs(p.point[1] - math.sin(p.t)) <= 1e-6

    def test_clairaut_closed_form(self, clairaut_parabola):
        curve = sample_envelope(clairaut_parabola, canonical_creator(clairaut_parabola), 101)
        for p in curve.samples:
            assert abs(p.point[0] - (-2.0 * p.t)) <= 1e-6
            assert abs(p.point[1] - (-p.t * p.t)) <= 1e-6

    def test_unit_hedgehog_is_unit_circle(self, unit_hedgehog):
        curve = sample_envelope(unit_hedgehog, canonical_creator(unit_hedgehog), 361)
        for p in curve.samples:
            assert abs(math.hypot(*p.point) - 1.0) <= 1e-9

    def test_samples_strictly_increasing(self, sine_tangent):
        curve = sample_envelope(sine_tangent, canonical_creator(sine_tangent), 64)
        ts = [p.t for p in curve.samples]
        assert all(u < v for u, v in zip(ts, ts[1:]))


class TestVerifyEnvelope:
    def test_sine_tangent_passes(self, sine_tangent):
        curve = sample_envelope(sine_tangent, canonical_creator(sine_tangent), 4001)
        report = verify_envelope(curve)
        assert report.passed
        assert report.max_membership_residual <= 1e-12

    def test_corrupted_curve_fails_with_predicted_residual(self, sine_tangent):
        curve = sample_envelope(sine_tangent, canonical_creator(sine_tangent), 1001)
        shifted = EnvelopeCurve(curve.ts, curve.points + (0.0, 0.1), curve.nus,
                                curve.b_values, curve.offsets)
        report = verify_envelope(shifted)
        assert not report.passed
        # the offset (0, 0.1) projects onto nu as 0.1 sin(theta) = 0.1/sqrt(cos^2 t + 1)
        expected = max(0.1 / math.sqrt(math.cos(p.t) ** 2 + 1.0) for p in curve.samples)
        assert report.max_membership_residual == pytest.approx(expected, abs=1e-12)
        assert 0.1 / math.sqrt(2.0) <= report.max_membership_residual <= 0.1 + 1e-12

    def test_still_family_user_envelope_passes(self, still_family):
        scan, singulars = scan_and_singulars(still_family, 1001)
        report = assess_creativity(scan, singulars)
        creator = build_creator(scan, report, P("sin(t)"))
        curve = sample_envelope(still_family, creator, 1001)
        for p in curve.samples:
            assert p.point == (0.0, math.sin(p.t))
        assert verify_envelope(curve).passed

    def test_too_few_samples(self, sine_tangent):
        curve = sample_envelope(sine_tangent, canonical_creator(sine_tangent), 4)
        with pytest.raises(TooFewSamplesError):
            verify_envelope(curve)

    def test_undefined_creator_propagates_offending_parameter(self, parallel_shift):
        from envlines import UndefinedCreatorError
        from envlines.analysis import _assemble_canonical
        scan, singulars = scan_and_singulars(parallel_shift, 1001)
        creator = _assemble_canonical(scan, singulars, [])
        with pytest.raises(UndefinedCreatorError) as err:
            sample_envelope(parallel_shift, creator, 5)
        assert -1.0 <= err.value.t <= 1.0

    def test_wrong_creator_breaks_tangency(self, rotating_pencil):
        # the pencil's creator is b = 0; with b = 1 in its place the tangency
        # defect is E'.nu = -theta', so the residual is bounded below by
        # min |theta'| over the interior
        wrong = CreatorFunction(rotating_pencil, 1001, 1.0, (), (), (), user_expr=P("1"))
        curve = sample_envelope(rotating_pencil, wrong, 201)
        report = verify_envelope(curve)
        assert not report.passed
        assert report.max_tangency_residual >= 1.0 * (1.0 - 1e-3)

    def test_tangency_bound_for_canonical_runs(
            self, sine_tangent, clairaut_parabola, unit_hedgehog):
        for family in (sine_tangent, clairaut_parabola, unit_hedgehog):
            curve = sample_envelope(family, canonical_creator(family), 4001)
            report = verify_envelope(curve)
            assert report.passed


class TestCahnHoffman:
    def test_hedgehog_creator_is_support_derivative(self):
        cases = [
            (P("1"), lambda t: 0.0),
            (P("sin(t)"), math.cos),
            (P("2 + cos(3*t)"), lambda t: -3.0 * math.sin(3.0 * t)),
        ]
        for a_expr, a_prime in cases:
            family = build_family_hedgehog(a_expr, (0.0, 2.0 * math.pi))
            creator = canonical_creator(family)
            for t in parameter_grid(family.domain, 1001):
                assert abs(creator(float(t)) - a_prime(float(t))) <= 1e-9

    def test_cosine_support_degenerates_to_point(self):
        family = build_family_hedgehog(P("cos(t)"), (0.0, 2.0 * math.pi))
        curve = sample_envelope(family, canonical_creator(family), 361)
        for p in curve.samples:
            assert abs(p.point[0] - 1.0) <= 1e-9 and abs(p.point[1]) <= 1e-9
