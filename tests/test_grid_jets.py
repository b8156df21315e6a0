"""The array path (one jet over a whole grid) against the float path, bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from envlines import (
    DegenerateFamilyError,
    ExpressionDomainError,
    build_family_general,
    evaluate_jet,
    parse_expression,
)
from envlines.expr import FUNCTIONS

P = parse_expression

_number = st.floats(0.05, 3.0).map(lambda x: format(x, ".3f"))
_leaf = st.one_of(st.just("t"), st.just("pi"), st.just("e"), _number)


def _extend(children):
    return st.one_of(
        st.tuples(st.sampled_from(FUNCTIONS), children).map(lambda p: f"{p[0]}({p[1]})"),
        st.tuples(children, st.sampled_from("+-*/"), children).map(
            lambda p: f"({p[0]}) {p[1]} ({p[2]})"),
        st.tuples(children, st.integers(-3, 4)).map(lambda p: f"({p[0]})^({p[1]})"),
        st.tuples(children, st.sampled_from(["0.5", "1.5", "-0.75", "2.25"])).map(
            lambda p: f"({p[0]})^{p[1]}"),
        children.map(lambda c: f"-({c})"),
    )


_subexpr = st.recursive(_leaf, _extend, max_leaves=6)
# zeros and poles of the generated functions often sit on these points
_special = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1.5707963267948966])
_points = st.lists(st.one_of(st.floats(-4.0, 4.0), _special), min_size=1, max_size=24)


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def _float_path(ast, ts, order):
    """Jets at each point in order, or the first error, as a loop would give."""
    try:
        return [evaluate_jet(ast, t, order) for t in ts], None
    except ExpressionDomainError as err:
        return None, err


@pytest.mark.parametrize("func", FUNCTIONS)
@settings(max_examples=60, deadline=None)
@given(inner=_subexpr, other=_subexpr, op=st.sampled_from("+-*/"), points=_points,
       order=st.integers(0, 6))
def test_array_jet_matches_float_jets_bit_for_bit(func, inner, other, op, points, order):
    ast = P(f"{func}({inner}) {op} ({other})")
    ts = np.array(points)
    scalar, scalar_err = _float_path(ast, ts.tolist(), order)
    try:
        grid = evaluate_jet(ast, ts, order)
    except ExpressionDomainError as err:
        assert scalar_err is not None, f"array path failed alone: {err}"
        assert (err.subexpr, err.t) == (scalar_err.subexpr, scalar_err.t)
        assert str(err) == str(scalar_err)
        return
    assert scalar_err is None, f"float path failed alone: {scalar_err}"
    assert grid.order == order
    for k in range(order + 1):
        assert _bits(grid.coeffs[k]) == _bits([jet.coeffs[k] for jet in scalar])


@settings(max_examples=40, deadline=None)
@given(points=_points, order=st.integers(0, 6))
def test_family_coeff_jets_match_float_path(sine_tangent, points, order):
    ts = np.array(points) * 2.5
    grid = sine_tangent.coeff_jets(ts, order)
    for i, t in enumerate(ts.tolist()):
        for g, s in zip(grid, sine_tangent.coeff_jets(t, order)):
            assert _bits([c[i] for c in g.coeffs]) == _bits(s.coeffs)


def test_degenerate_parameter_named_as_on_the_float_path():
    # A^2 + B^2 vanishes at t = 0.3, which the build grid misses
    family = build_family_general(P("t - 0.3"), P("0"), P("1"), (-1.0, 1.0))
    ts = np.array([0.1, 0.5, 0.3, 0.3000001, -0.2])
    with pytest.raises(DegenerateFamilyError) as grid_err:
        family.coeff_jets(ts, 1)
    with pytest.raises(DegenerateFamilyError) as float_err:
        for t in ts.tolist():
            family.coeff_jets(t, 1)
    assert grid_err.value.t == float_err.value.t == 0.3
    assert str(grid_err.value) == str(float_err.value)
