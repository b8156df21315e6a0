import math
import random

import numpy as np
import pytest

from envlines import (
    DegenerateFamilyError,
    OutOfDomainError,
    build_family_clairaut,
    build_family_general,
    build_family_normalized,
    evaluate,
    line_at,
    parse_expression,
)
from conftest import sine_a_prime_reference, sine_theta_prime_reference

P = parse_expression

SQRT2 = math.sqrt(2.0)


class TestBuilders:
    def test_normalized_rotating_pencil(self, rotating_pencil):
        line = line_at(rotating_pencil, 0.5)
        assert line.nu == (pytest.approx(math.cos(0.5)), pytest.approx(math.sin(0.5)))
        assert line.offset == 0.0

    def test_normalized_parallel_lines(self, parallel_shift):
        line = line_at(parallel_shift, 0.25)
        assert line.nu == (1.0, 0.0)
        assert line.offset == 0.25  # the line X = t

    def test_normalized_quadratic_angle_singular_at_zero(self, quadratic_angle):
        assert quadratic_angle.derivative_jets(0.0, 3)[0].coeffs[0] == 0.0
        assert quadratic_angle.derivative_jets(0.5, 3)[0].coeffs[0] == pytest.approx(1.0)

    def test_general_matches_sine_tangent_normalization(self, sine_tangent):
        for t in (-2.3, 0.4, 1.9):
            r = math.sqrt(math.cos(t) ** 2 + 1.0)
            c, s, a = sine_tangent.coeff_jets(t, 0)
            assert c.value == pytest.approx(-math.cos(t) / r, abs=1e-14)
            assert s.value == pytest.approx(1.0 / r, abs=1e-14)
            assert a.value == pytest.approx((math.sin(t) - t * math.cos(t)) / r, abs=1e-13)

    def test_general_matches_evolute_normalization(self, sine_evolute):
        t = 0.7
        r = math.sqrt(1.0 + math.cos(t) ** 2)
        c, s, a = sine_evolute.coeff_jets(t, 0)
        assert c.value == pytest.approx(1.0 / r, abs=1e-14)
        assert s.value == pytest.approx(math.cos(t) / r, abs=1e-14)
        assert a.value == pytest.approx((t + math.cos(t) * math.sin(t)) / r, abs=1e-14)

    def test_general_degenerate_coefficients(self):
        with pytest.raises(DegenerateFamilyError) as err:
            build_family_general(P("0"), P("0"), P("1"), (-1.0, 1.0))
        assert err.value.t == -1.0  # first grid point

    def test_general_degeneracy_inside_domain(self):
        # A = t, B = t vanish together at t = 0
        with pytest.raises(DegenerateFamilyError):
            build_family_general(P("t"), P("t"), P("1"), (-1.0, 1.0))

    def test_clairaut_normalization(self, clairaut_parabola):
        line = line_at(clairaut_parabola, 1.0)
        assert line.nu == (pytest.approx(1.0 / SQRT2), pytest.approx(-1.0 / SQRT2))
        assert line.offset == pytest.approx(-1.0 / SQRT2)

    def test_clairaut_zero_intercept(self):
        family = build_family_clairaut(P("0"), (-2.0, 2.0))
        for t in (-1.5, 0.0, 1.0):
            assert line_at(family, t).offset == 0.0

    def test_clairaut_constant_g(self):
        family = build_family_clairaut(P("1"), (-2.0, 2.0))
        line = line_at(family, 0.0)
        assert line.nu == (0.0, -1.0)
        assert line.offset == -1.0  # the line Y = 1: (X, 1) . (0, -1) = -1

    def test_hedgehog_constant_support(self, unit_hedgehog):
        line = line_at(unit_hedgehog, math.pi)
        assert line.nu == (pytest.approx(-1.0), pytest.approx(math.sin(math.pi), abs=1e-15))
        assert line.offset == 1.0

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            build_family_normalized(P("t"), P("0"), (1.0, 1.0))

    def test_build_time_expression_domain_check(self):
        # log(t) has no order-6 jet at t <= 0; the build grid must catch it
        with pytest.raises(Exception) as err:
            build_family_normalized(P("t"), P("log(t)"), (-1.0, 1.0))
        assert "log" in str(err.value)


class TestOrderCap:
    @pytest.mark.parametrize("order", [7, -1])
    def test_coeff_jets_rejects_an_order_outside_the_jets(self, sine_tangent, order):
        # evaluate_jet alone checks the order: a float and an array get its message
        for t in (0.5, np.array([0.0, 0.5])):
            with pytest.raises(ValueError) as err:
                sine_tangent.coeff_jets(t, order)
            assert type(err.value) is ValueError
            assert str(err.value) == f"order must be in [0, 6], got {order}"


class TestLineAt:
    def test_sine_tangent_at_half_pi(self, sine_tangent):
        line = line_at(sine_tangent, math.pi / 2)
        assert line.nu[0] == pytest.approx(0.0, abs=1e-15)
        assert line.nu[1] == pytest.approx(1.0, abs=1e-15)
        assert line.offset == pytest.approx(1.0, abs=1e-15)

    def test_sine_tangent_at_zero(self, sine_tangent):
        line = line_at(sine_tangent, 0.0)
        assert line.nu == (pytest.approx(-1.0 / SQRT2), pytest.approx(1.0 / SQRT2))
        assert line.offset == 0.0

    def test_unit_norm(self, sine_tangent):
        for t in np.linspace(-10.0, 10.0, 257):
            nu = line_at(sine_tangent, float(t)).nu
            assert abs(nu[0] ** 2 + nu[1] ** 2 - 1.0) <= 1e-12

    def test_out_of_domain(self, sine_tangent):
        with pytest.raises(OutOfDomainError):
            line_at(sine_tangent, 10.5)


class TestGaussSample:
    def test_sine_tangent_theta_prime(self, sine_tangent):
        for t in (-3.0, -0.8, 0.3, 2.4):
            tp, _ = sine_tangent.derivative_jets(t, 3)
            assert tp.coeffs[0] == pytest.approx(sine_theta_prime_reference(t), abs=1e-13)

    def test_sine_tangent_a_prime(self, sine_tangent):
        for t in (-3.0, -0.8, 0.3, 2.4):
            _, ap = sine_tangent.derivative_jets(t, 3)
            assert ap.coeffs[0] == pytest.approx(sine_a_prime_reference(t), abs=1e-13)

    def test_hedgehog_unit_rotation_rate(self, unit_hedgehog):
        for t in (0.1, 2.0, 5.5):
            assert unit_hedgehog.derivative_jets(t, 3)[0].coeffs[0] == pytest.approx(1.0, abs=1e-12)

    def test_clairaut_rotation_rate(self, clairaut_parabola):
        # theta' = 1/(t^2+1) > 0: the Gauss map is nowhere singular
        for t in (-1.7, 0.0, 0.9):
            tp, _ = clairaut_parabola.derivative_jets(t, 3)
            assert tp.coeffs[0] == pytest.approx(1.0 / (t * t + 1.0), abs=1e-14)
            assert tp.coeffs[0] > 0.0

    def test_higher_derivatives_consistent(self, sine_tangent):
        # theta'' and theta''' against finite differences of theta'
        h = 1e-5
        for t in (0.4, 1.3):
            tpj, apj = sine_tangent.derivative_jets(t, 3)
            tp = lambda u: sine_tangent.derivative_jets(u, 3)[0].coeffs[0]
            assert tpj.coeffs[1] == pytest.approx((tp(t + h) - tp(t - h)) / (2 * h), abs=1e-7)
            ap = lambda u: sine_tangent.derivative_jets(u, 3)[1].coeffs[0]
            assert apj.coeffs[1] == pytest.approx((ap(t + h) - ap(t - h)) / (2 * h), abs=1e-7)


class TestProperties:
    def test_normalization_equivalence(self, sine_tangent):
        # random points on the original line A X + B Y + C = 0 satisfy the
        # normalized equation X c + Y s = a
        rng = random.Random(7)
        A, B, C = (P("-cos t"), P("1"), P("t*cos t - sin t"))
        for _ in range(100):
            t = rng.uniform(-10.0, 10.0)
            av, bv, cv = (evaluate(A, t), evaluate(B, t), evaluate(C, t))
            n2 = av * av + bv * bv
            base = (-cv * av / n2, -cv * bv / n2)
            sigma = rng.uniform(-20.0, 20.0)
            x, y = base[0] + sigma * bv, base[1] - sigma * av
            c, s, a = sine_tangent.coeff_jets(t, 0)
            assert abs(x * c.value + y * s.value - a.value) <= 1e-9 * (1.0 + abs(a.value))

    def test_theta_prime_matches_angle_rate(self, sine_tangent):
        h = 1e-5
        for t in (-2.0, 0.4, 1.1, 3.9):
            def angle(u):
                c, s, _ = sine_tangent.coeff_jets(u, 0)
                return math.atan2(s.value, c.value)
            lo, hi = angle(t - h), angle(t + h)
            assert abs(hi - lo) < 1.0  # nu stays in one half-plane
            rate = (hi - lo) / (2 * h)
            assert abs(sine_tangent.derivative_jets(t, 3)[0].coeffs[0] - rate) <= 1e-5

    def test_antipodal_general_form_flips_nu_and_a(self, sine_tangent):
        flipped = build_family_general(P("cos t"), P("-1"), P("-(t*cos t - sin t)"), (-10.0, 10.0))
        for t in (-1.2, 0.5, 2.8):
            a = line_at(sine_tangent, t)
            b = line_at(flipped, t)
            assert b.nu[0] == pytest.approx(-a.nu[0], abs=1e-14)
            assert b.nu[1] == pytest.approx(-a.nu[1], abs=1e-14)
            assert b.offset == pytest.approx(-a.offset, abs=1e-13)


class TestNoMemo:
    def test_family_holds_no_cache(self, sine_tangent):
        assert not any(hasattr(value, "cache_info") for value in vars(sine_tangent).values())

    def test_repeated_queries_recompute(self, monkeypatch):
        from envlines import family as family_module
        family = build_family_general(P("-cos t"), P("1"), P("t*cos t - sin t"))
        original = family_module.evaluate_jet
        calls = []

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(family_module, "evaluate_jet", counting)
        first = family.coeff_jets(0.5, 1)
        once = len(calls)
        second = family.coeff_jets(0.5, 1)
        # one program call per pass covers A, B and C
        assert once == 1 and len(calls) == 2 * once
        assert [j.coeffs for j in first] == [j.coeffs for j in second]
