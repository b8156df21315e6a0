"""Families whose answers are known by construction, checked against the
mathematics rather than against an earlier version of the code.

theta = (t - s)^j and a = (beta0 + beta1 t)(t - s)^j - beta1 (t - s)^(j+1)/(j+1)
give a' = (beta0 + beta1 t) j (t - s)^(j-1) = (beta0 + beta1 t) theta', so the
Gauss map stalls to order j at s and the family is creative with the exact
creator b = beta0 + beta1 t."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from envlines import CREATIVE, analyze, build_family_normalized, parse_expression

_COEFFS = st.floats(-2.0, 2.0, allow_nan=False).map(lambda x: round(x, 3))


@given(j=st.sampled_from([2, 3, 4]), s=st.floats(-0.9, 0.9).map(lambda x: round(x, 4)),
       beta0=_COEFFS, beta1=_COEFFS)
@settings(max_examples=36, derandomize=True, deadline=None)
def test_stall_of_order_j_has_the_exact_creator(j, s, beta0, beta1):
    shift = f"(t - ({s!r}))"
    theta = f"{shift}^{j}"
    a = f"(({beta0!r}) + ({beta1!r})*t)*{shift}^{j} - ({beta1!r})*{shift}^{j + 1}/{j + 1}"
    family = build_family_normalized(parse_expression(theta), parse_expression(a), (-1.0, 1.0))
    run = analyze(family, 1001)
    assert run.creativity.verdict == CREATIVE, run.creativity.notes
    ts = np.linspace(-1.0, 1.0, 4001)
    assert np.max(np.abs(run.creator(ts) - (beta0 + beta1 * ts))) <= 1e-11
