import json
import math
from dataclasses import replace

import numpy as np
import pytest

from envlines import (
    EnvelopeCurve,
    TooFewSamplesError,
    UserCreator,
    assess_creativity,
    build_creator,
    build_family_hedgehog,
    envelope_point,
    parse_expression,
    sample_envelope,
    verify_envelope,
)
from envlines.analysis import parameter_grid, scan_grid
from envlines.cli import main
from envlines.envelope import MEMBERSHIP_TOL
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
        for t, (x, y) in zip(curve.ts.tolist(), curve.points.tolist()):
            assert abs(x - t) <= 1e-6
            assert abs(y - math.sin(t)) <= 1e-6

    def test_clairaut_closed_form(self, clairaut_parabola):
        curve = sample_envelope(clairaut_parabola, canonical_creator(clairaut_parabola), 101)
        for t, (x, y) in zip(curve.ts.tolist(), curve.points.tolist()):
            assert abs(x - (-2.0 * t)) <= 1e-6
            assert abs(y - (-t * t)) <= 1e-6

    def test_unit_hedgehog_is_unit_circle(self, unit_hedgehog):
        curve = sample_envelope(unit_hedgehog, canonical_creator(unit_hedgehog), 361)
        for point in curve.points.tolist():
            assert abs(math.hypot(*point) - 1.0) <= 1e-9

    def test_samples_strictly_increasing(self, sine_tangent):
        curve = sample_envelope(sine_tangent, canonical_creator(sine_tangent), 64)
        ts = curve.ts.tolist()
        assert all(u < v for u, v in zip(ts, ts[1:]))


class TestVerifyEnvelope:
    def test_sine_tangent_passes(self, sine_tangent):
        curve = sample_envelope(sine_tangent, canonical_creator(sine_tangent), 4001)
        report = verify_envelope(curve)
        assert report.passed
        assert report.max_membership_residual <= 1e-12

    @pytest.mark.parametrize("scale", ["1", "1e6", "1e9"])
    def test_membership_tolerance_is_relative(self, capsys, scale):
        # a = s t^4 rescales the s = 1 envelope by s, and its rounding with it:
        # 1e6 once failed on a membership residual of 3.7e-9 > 1e-9
        argv = ["analyze", "--theta", "t^3", "--a", f"{scale}*t^4", "--domain", "-0.5:2"]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["creativity"]["verdict"] == "creative"
        assert doc["envelope"]["verification"]["pass"] is True

    def test_membership_tolerance_scales_with_the_curve(self, sine_tangent):
        curve = sample_envelope(sine_tangent, canonical_creator(sine_tangent), 1001)
        report = verify_envelope(curve)
        size = float(np.max(np.hypot(curve.points[:, 0], curve.points[:, 1])))
        assert report.membership_tol == pytest.approx(MEMBERSHIP_TOL * (1.0 + size), rel=1e-15)
        shifted = replace(curve, offsets=curve.offsets + 2.0 * report.membership_tol)
        failed = verify_envelope(shifted)
        assert failed.passed is False
        assert failed.failure == (f"membership residual {failed.max_membership_residual!r} "
                                  f"> {failed.membership_tol!r}")

    def test_an_infinite_tolerance_fails(self, sine_tangent):
        # |E| and |E'| overflow, so both bands are infinite: no residual passes them
        curve = sample_envelope(sine_tangent, canonical_creator(sine_tangent), 4001)
        huge = replace(curve, points=curve.points * 1e200, offsets=curve.offsets * 1e200)
        report = verify_envelope(huge)
        assert report.passed is False and math.isinf(report.tangency_tol)
        assert report.failure == "membership tolerance inf is not finite (overflow)"
        assert verify_envelope(curve).passed is True

    def test_corrupted_curve_fails_with_predicted_residual(self, sine_tangent):
        curve = sample_envelope(sine_tangent, canonical_creator(sine_tangent), 1001)
        shifted = EnvelopeCurve(curve.ts, curve.points + (0.0, 0.1), curve.nus,
                                curve.b_values, curve.offsets)
        report = verify_envelope(shifted)
        assert not report.passed
        # the offset (0, 0.1) projects onto nu as 0.1 sin(theta) = 0.1/sqrt(cos^2 t + 1)
        expected = max(0.1 / math.sqrt(math.cos(t) ** 2 + 1.0) for t in curve.ts.tolist())
        assert report.max_membership_residual == pytest.approx(expected, abs=1e-12)
        assert 0.1 / math.sqrt(2.0) <= report.max_membership_residual <= 0.1 + 1e-12

    def test_still_family_user_envelope_passes(self, still_family):
        scan, singulars = scan_and_singulars(still_family, 1001)
        report = assess_creativity(scan, singulars)
        creator = build_creator(scan, report, P("sin(t)"))
        curve = sample_envelope(still_family, creator, 1001)
        for t, (x, y) in zip(curve.ts.tolist(), curve.points.tolist()):
            assert (x, y) == (0.0, math.sin(t))
        assert verify_envelope(curve).passed

    def test_too_few_samples(self, sine_tangent):
        curve = sample_envelope(sine_tangent, canonical_creator(sine_tangent), 4)
        with pytest.raises(TooFewSamplesError):
            verify_envelope(curve)

    def test_repeated_parameter_is_rejected(self, sine_tangent):
        # a zero spacing would divide the finite differences by 0
        curve = sample_envelope(sine_tangent, canonical_creator(sine_tangent), 9)
        ts = curve.ts.copy()
        ts[4] = ts[3]
        with pytest.raises(ValueError, match="^envelope verification needs strictly "
                                             "increasing parameters$"):
            verify_envelope(replace(curve, ts=ts))

    def test_undefined_creator_propagates_offending_parameter(self, parallel_shift):
        from envlines import UndefinedCreatorError
        from envlines.analysis import CreatorFunction
        scan, singulars = scan_and_singulars(parallel_shift, 1001)
        creator = CreatorFunction(scan, singulars)
        with pytest.raises(UndefinedCreatorError) as err:
            sample_envelope(parallel_shift, creator, 5)
        assert -1.0 <= err.value.t <= 1.0

    def test_wrong_creator_breaks_tangency(self, rotating_pencil):
        # the pencil's creator is b = 0; with b = 1 in its place the tangency
        # defect is E'.nu = -theta', so the residual is bounded below by
        # min |theta'| over the interior
        wrong = UserCreator(scan_grid(rotating_pencil, 1001), P("1"))
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
        for x, y in curve.points.tolist():
            assert abs(x - 1.0) <= 1e-9 and abs(y) <= 1e-9
