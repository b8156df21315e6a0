import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from envlines import (
    ExpressionDomainError,
    ParseError,
    UnknownIdentifierError,
    evaluate,
    evaluate_jet,
    fd_derivative,
    parse_expression,
    unparse,
)
import jet_reference
from envlines.expr import Apply, BinOp, Const, JetProgram, Neg, Num, Pow, Var
from exprgen import gentle_expression, gentle_factor

P = parse_expression


class TestParse:
    def test_single_function_application(self):
        assert P("sin(t)") == Apply("sin", Var())

    def test_tangent_family_height_function(self):
        ast = P("(sin t - t*cos t)/sqrt(cos(t)^2+1)")
        assert isinstance(ast, BinOp) and ast.op == "/"
        assert ast.left == BinOp("-", Apply("sin", Var()), BinOp("*", Var(), Apply("cos", Var())))
        assert ast.right == Apply("sqrt", BinOp("+", Pow(Apply("cos", Var()), Num(2.0)), Num(1.0)))

    def test_truncated_input_reports_byte_offset(self):
        with pytest.raises(ParseError) as err:
            P("t +")
        assert err.value.offset == 3
        assert err.value.expected

    @pytest.mark.parametrize("deep", [
        "(" * 100 + "t" + ")" * 100,   # parentheses
        "-" * 100 + "t",               # unary minus
        "sin " * 100 + "t",            # function application
        "t^" * 100 + "1",              # powers
        "t+" * 100 + "t",              # a chain of binary operators
        "(" + "t-" * 60 + "t)" + "*t" * 60,  # a chain at the bottom of a chain
    ])
    def test_nesting_is_capped(self, deep):
        with pytest.raises(ParseError, match="nested more than 100 levels deep"):
            P(deep)

    @pytest.mark.parametrize("shallow", [
        "(" * 99 + "t" + ")" * 99, "-" * 99 + "t", "t+" * 99 + "t",
    ])
    def test_nesting_within_the_cap_parses(self, shallow):
        P(shallow)

    def test_unknown_identifier_is_named(self):
        with pytest.raises(UnknownIdentifierError) as err:
            P("2*foo(t)")
        assert err.value.name == "foo"

    def test_juxtaposed_argument_matches_parenthesized(self):
        assert P("sin t - t*cos t") == P("sin(t) - t*cos(t)")

    def test_whitespace_insensitive(self):
        assert P(" t +  1 ") == P("t+1")

    def test_power_binds_tighter_than_unary_minus(self):
        assert evaluate(P("-t^2"), 2.0) == -4.0

    def test_power_right_associative(self):
        assert evaluate(P("2^3^2"), 0.0) == 512.0

    def test_negative_exponent(self):
        assert evaluate(P("2^-2"), 0.0) == 0.25

    def test_constants(self):
        assert evaluate(P("pi"), 0.0) == math.pi
        assert evaluate(P("e"), 0.0) == math.e

    def test_scientific_literals(self):
        assert evaluate(P("1.5e-3 + .5"), 0.0) == pytest.approx(0.5015, abs=1e-15)

    def test_variable_exponent_rewritten_to_exp_log(self):
        assert P("t^t") == Apply("exp", BinOp("*", Var(), Apply("log", Var())))

    def test_empty_source_rejected(self):
        with pytest.raises(ParseError):
            P("   ")

    def test_unclosed_parenthesis(self):
        with pytest.raises(ParseError):
            P("sin(t")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError) as err:
            P("t 1")
        assert err.value.offset == 2


class TestEvaluateJet:
    def test_polynomial(self):
        assert evaluate_jet(P("t^2"), 3.0, 2).coeffs == (9.0, 6.0, 2.0)

    def test_sine_maclaurin(self):
        assert evaluate_jet(P("sin(t)"), 0.0, 3).coeffs == (0.0, 1.0, 0.0, -1.0)

    def test_tangent_family_height_derivative(self):
        # a'(t) = sin t (t + cos t sin t) / (cos^2 t + 1)^(3/2)
        jet = evaluate_jet(P("(sin t - t*cos t)/sqrt(cos(t)^2+1)"), 1.0, 1)
        closed = math.sin(1.0) * (1.0 + math.cos(1.0) * math.sin(1.0)) / (math.cos(1.0) ** 2 + 1.0) ** 1.5
        assert jet.coeffs[1] == pytest.approx(closed, rel=1e-12)

    def test_order_bounds(self):
        with pytest.raises(ValueError):
            evaluate_jet(P("t"), 0.0, 7)
        with pytest.raises(ValueError):
            evaluate_jet(P("t"), 0.0, -1)

    def test_integer_power_valid_for_negative_base(self):
        assert evaluate_jet(P("t^3"), -2.0, 1).coeffs == (-8.0, 12.0)

    def test_large_integer_powers_square(self):
        # beyond 64 factors the power squares, so t^(1e300) takes about 1,000 products
        assert evaluate_jet(P("t^65"), -0.5, 1).coeffs == (-0.5 ** 65, 65 * 0.5 ** 64)
        assert evaluate_jet(P("t^1000"), 1.0, 2).coeffs == (1.0, 1000.0, 999000.0)
        assert evaluate_jet(P("t^(1e300)"), 0.5, 1).coeffs == (0.0, 0.0)
        with pytest.raises(ExpressionDomainError):
            evaluate_jet(P("t^(1e300)"), 2.0, 0)

    def test_failing_constant_exponent_fails_on_every_pass(self):
        # the exponent is folded when the program compiles, unless it fails:
        # then each pass raises, naming its own parameter
        program = JetProgram((P("t^(1/0)"),))
        for t in (0.5, 0.25):
            with pytest.raises(ExpressionDomainError, match=f"'1.0/0.0' at t = {t!r}"):
                evaluate_jet(program, t, 0)
        with pytest.raises(ExpressionDomainError, match="at t = -1.0"):
            evaluate_jet(program, np.array([-1.0, 1.0]), 0)

    def test_real_power_needs_positive_base(self):
        with pytest.raises(ExpressionDomainError):
            evaluate_jet(P("t^0.5"), -1.0, 0)

    def test_log_domain_error_names_subexpression(self):
        with pytest.raises(ExpressionDomainError) as err:
            evaluate_jet(P("1 + log(t)"), -1.0, 0)
        assert err.value.subexpr == "log(t)"
        assert err.value.t == -1.0

    def test_division_by_zero(self):
        with pytest.raises(ExpressionDomainError) as err:
            evaluate_jet(P("1/(t-1)"), 1.0, 1)
        assert "division by zero" in str(err.value)

    def test_sqrt_of_negative(self):
        with pytest.raises(ExpressionDomainError):
            evaluate_jet(P("sqrt(t)"), -4.0, 0)

    def test_sqrt_derivative_at_zero(self):
        assert evaluate_jet(P("sqrt(t)"), 0.0, 0).coeffs == (0.0,)
        with pytest.raises(ExpressionDomainError):
            evaluate_jet(P("sqrt(t)"), 0.0, 1)

    def test_abs_value_and_derivative(self):
        assert evaluate_jet(P("abs(t)"), -2.0, 1).coeffs == (2.0, -1.0)
        assert evaluate_jet(P("abs(t)"), 0.0, 0).coeffs == (0.0,)
        with pytest.raises(ExpressionDomainError):
            evaluate_jet(P("abs(t)"), 0.0, 1)

    def test_atan_and_tan(self):
        jet = evaluate_jet(P("atan(t)"), 1.0, 2)
        assert jet.coeffs[0] == pytest.approx(math.pi / 4, rel=1e-15)
        assert jet.coeffs[1] == pytest.approx(0.5, rel=1e-14)
        assert jet.coeffs[2] == pytest.approx(-0.5, rel=1e-14)
        jet = evaluate_jet(P("tan(t)"), 0.3, 1)
        assert jet.coeffs[1] == pytest.approx(1.0 / math.cos(0.3) ** 2, rel=1e-14)


class TestFdDerivative:
    def test_cubic(self):
        assert fd_derivative(P("t^3"), 1.0, 1, 1e-4) == pytest.approx(3.0, abs=1e-6)

    def test_sinusoid_second_derivative(self):
        assert fd_derivative(P("sin(t)"), 0.7, 2, 1e-3) == pytest.approx(-math.sin(0.7), abs=1e-5)

    def test_exponential(self):
        assert fd_derivative(P("exp(t)"), 0.0, 1, 1e-4) == pytest.approx(1.0, abs=1e-7)

    def test_order_and_step_validation(self):
        with pytest.raises(ValueError):
            fd_derivative(P("t"), 0.0, 3, 1e-4)
        with pytest.raises(ValueError):
            fd_derivative(P("t"), 0.0, 1, 0.0)

    def test_stencil_leaving_domain(self):
        with pytest.raises(ExpressionDomainError):
            fd_derivative(P("log(t)"), 5e-6, 1, 1e-5)


# -- properties ---------------------------------------------------------------

_exponents = st.one_of(
    st.builds(Num, st.floats(min_value=0.0, max_value=4.0, allow_nan=False)),
    st.builds(Neg, st.builds(Num, st.just(2.0))),
    st.builds(Const, st.sampled_from(["pi", "e"])),
)

_leaves = st.one_of(
    st.builds(Num, st.floats(min_value=0.0, max_value=1e6, allow_nan=False)),
    st.just(Var()),
    st.builds(Const, st.sampled_from(["pi", "e"])),
)


def _compound(children):
    return st.one_of(
        st.builds(Neg, children),
        st.builds(lambda op, l, r: BinOp(op, l, r), st.sampled_from("+-*/"), children, children),
        st.builds(Apply, st.sampled_from(("sin", "cos", "tan", "atan", "exp", "log", "sqrt", "abs")), children),
        st.builds(Pow, children, _exponents),
    )


_asts = st.recursive(_leaves, _compound, max_leaves=25)


@given(_asts)
@settings(max_examples=300)
def test_parse_unparse_round_trip(ast):
    assert P(unparse(ast)) == ast


@given(st.integers(0, 2**31), st.floats(-2.0, 2.0))
@settings(max_examples=150)
def test_product_jet_equals_jet_product(seed, t):
    rng = random.Random(seed)
    u = P(gentle_expression(rng))
    v = P(gentle_expression(rng))
    product = evaluate_jet(BinOp("*", u, v), t, 4)
    assert product.coeffs == (evaluate_jet(u, t, 4) * evaluate_jet(v, t, 4)).coeffs


@given(st.integers(0, 2**31), st.floats(-1.5, 1.5))
@settings(max_examples=150)
def test_jet_first_derivative_matches_finite_differences(seed, t):
    expr = P(gentle_expression(random.Random(seed)))
    exact = evaluate_jet(expr, t, 1).coeffs[1]
    estimate = fd_derivative(expr, t, 1, 1e-5)
    assert abs(exact - estimate) <= 1e-6 * (1.0 + abs(exact))


@st.composite
def _shared_expressions(draw):
    """1 to 3 expressions over one pool: gentle factors, and sin, cos and tan
    of one argument, with a log of it and a sqrt of its negative, which leave
    their domains on opposite sides of its zeros."""
    rng = random.Random(draw(st.integers(0, 2**31)))
    arg = gentle_factor(rng)
    pool = [gentle_factor(rng) for _ in range(3)]
    pool += [f"{func}({arg})" for func in ("sin", "cos", "tan", "log")] + [f"sqrt(-({arg}))"]
    exprs = []
    for _ in range(draw(st.integers(1, 3))):
        source = draw(st.sampled_from(pool))
        for _ in range(draw(st.integers(0, 3))):
            source += draw(st.sampled_from("+-*/")) + draw(st.sampled_from(pool))
        exprs.append(P(source))
    return tuple(exprs)


_grid_points = st.lists(st.one_of(st.floats(-3.0, 3.0),
                                  st.sampled_from([0.0, 1.0, -1.0, 1.5707963267948966])),
                        min_size=1, max_size=12)


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


@given(_shared_expressions(), _grid_points, st.integers(0, 6))
@settings(max_examples=200, deadline=None)
def test_program_matches_the_recursive_evaluator(exprs, points, order):
    # the shared program against one recursive evaluation per expression, in
    # turn: the same jets bit for bit, or the same first domain error
    program = JetProgram(exprs)
    for t in (np.array(points), points[0]):
        try:
            expected = [jet_reference.evaluate_jet(expr, t, order) for expr in exprs]
        except ExpressionDomainError as err:
            with pytest.raises(ExpressionDomainError) as got:
                evaluate_jet(program, t, order)
            assert str(got.value) == str(err)
            continue
        jets = evaluate_jet(program, t, order)
        assert len(jets) == len(exprs)
        for jet, reference in zip(jets, expected):
            assert jet.order == order
            assert [_bits(c) for c in jet.coeffs] == [_bits(c) for c in reference.coeffs]


def test_shared_subexpressions_compile_once():
    # -cos t, 1 and t*cos t - sin t: t, one sine-cosine series, cos t, -cos t,
    # 1, t*cos t, sin t and the difference
    program = JetProgram((P("-cos t"), P("1"), P("t*cos t - sin t")))
    assert len(program._code) == 8


class TestJetType:
    def test_variable_jet_shape(self):
        from envlines.jets import Jet
        assert Jet.variable(2.5, 3).coeffs == (2.5, 1.0, 0.0, 0.0)
        assert Jet.variable(2.5, 0).coeffs == (2.5,)

    def test_mismatched_center_or_order_rejected(self):
        from envlines.jets import Jet
        with pytest.raises(ValueError):
            Jet.variable(0.0, 2) + Jet.variable(1.0, 2)
        with pytest.raises(ValueError):
            Jet.variable(0.0, 2) * Jet.variable(0.0, 3)

    def test_arithmetic_preserves_center_and_order(self):
        from envlines.jets import Jet
        u = Jet.variable(0.7, 4)
        v = u * u + 3.0 * u - 1.0 / (u + 2.0)
        assert v.center == 0.7 and v.order == 4

    def test_concurrent_evaluation_of_shared_ast(self):
        # ASTs are immutable and evaluation is pure; hammer one AST from
        # several threads and compare against the serial answer
        from concurrent.futures import ThreadPoolExecutor
        expr = P("sin(2*t)*(1 + t^2) - cos(t)/(2 + sin(t))")
        ts = [(-1.0 + 0.001 * i) for i in range(2000)]
        serial = [evaluate_jet(expr, t, 3).coeffs for t in ts]
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(lambda t: evaluate_jet(expr, t, 3).coeffs, ts))
        assert serial == threaded
