"""The figure's robust frame: tail trimming by quantiles without np.quantile,
which would import numpy.ma."""

import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from envlines.svgplot import _quantile

_VALUES = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0, 1.0]),
                    st.floats(allow_nan=True, allow_infinity=True))


def _bits(x: float) -> bytes:
    return b"nan" if x != x else struct.pack("<d", x)


@given(arrays(np.float64, st.integers(21, 400), elements=_VALUES),
       st.one_of(st.sampled_from([0.02, 0.98]), st.floats(0.0, 1.0)))
@settings(max_examples=400, deadline=None)
def test_quantile_matches_numpy_bit_for_bit(values, q):
    with np.errstate(invalid="ignore"):  # numpy's own inf - inf on draws with infinities
        expected = float(np.quantile(values, q))
    assert _bits(_quantile(values.copy(), q)) == _bits(expected)


def test_quantile_leaves_its_input_alone():
    values = np.array([3.0, 1.0, 2.0] * 10)
    _quantile(values, 0.5)
    assert values.tolist() == [3.0, 1.0, 2.0] * 10
