"""The envelope on the verification grid reads the scan's points and runs in
blocks of ``envelope.BLOCK_POINTS``: the same bits, the same first error and
a working set that does not grow with the grid."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from envlines import (
    UndefinedCreatorError,
    assess_creativity,
    build_creator,
    build_family_normalized,
    envelope,
    find_gauss_singular_points,
    parse_expression,
    verification_n,
)
from envlines.analysis import scan_grid
from envlines.cli import _build_family, parse_cli
from envlines.envelope import sample_envelope, verify_envelope
from envlines.expr import ExpressionDomainError
from envelope_reference import sample_envelope_reference, verify_envelope_reference

CURVE_FIELDS = ("ts", "points", "nus", "b_values", "offsets")


def _example(k: int, grid_n: int, user_b: str | None = None):
    family = _build_family(parse_cli(["analyze", "--example", str(k)]))
    scan = scan_grid(family, grid_n)
    report = assess_creativity(scan, find_gauss_singular_points(scan))
    user = None if user_b is None else parse_expression(user_b)
    return family, scan, build_creator(scan, report, user)


def _outcome(sample, verify, *args):
    """The curve and its report, or the error, as one comparable value."""
    try:
        curve = sample(*args)
        return [getattr(curve, field) for field in CURVE_FIELDS], verify(curve)
    except (ValueError, ArithmeticError) as err:
        return type(err), str(err)


def _same(left, right) -> bool:
    if isinstance(left[0], list) and isinstance(right[0], list):
        return all(map(np.array_equal, left[0], right[0])) and left[1] == right[1]
    return left == right


# the creative examples with their canonical creator, and one user creator
@pytest.mark.parametrize("example, user_b", [(1, None), (2, None), (4, None), (5, None),
                                             (7, None), (2, "t")])
def test_blocks_match_the_whole_array_reference(monkeypatch, example, user_b):
    # a block of 7 puts a block edge, with its halo and the jets' pass
    # boundaries, every few samples
    for grid_n in (16, 257, 1001, 2000, 10001):
        family, scan, creator = _example(example, grid_n, user_b)
        for n in (grid_n, verification_n(grid_n)):
            expected = _outcome(sample_envelope_reference, verify_envelope_reference,
                                family, creator, n)
            for block in (envelope.BLOCK_POINTS, 7):
                with monkeypatch.context() as patch:
                    patch.setattr(envelope, "BLOCK_POINTS", block)
                    assert _same(_outcome(sample_envelope, verify_envelope,
                                          family, creator, n, scan), expected), (grid_n, n, block)


@pytest.mark.parametrize("n", [1001, 4001, 2000, 37])
def test_n_is_honoured_with_a_scan(sine_tangent, n):
    # the scan's grid, the verification grid over it, and two grids the scan
    # does not divide
    scan = scan_grid(sine_tangent, 1001)
    creator = build_creator(scan, assess_creativity(scan, find_gauss_singular_points(scan)),
                            None)
    with_scan = sample_envelope(sine_tangent, creator, n, scan)
    without = sample_envelope(sine_tangent, creator, n)
    assert with_scan.ts.size == n
    for field in CURVE_FIELDS:
        assert np.array_equal(getattr(with_scan, field), getattr(without, field)), field


class _StubCreator:
    """b = 0, except inf at the parameters ``infinite``; undefined in any
    block that holds one of the parameters ``undefined``."""

    def __init__(self, infinite=(), undefined=()):
        self.infinite, self.undefined = np.array(infinite), np.array(undefined)

    def on_grid(self, ts, tp=None, ap=None):
        hit = np.isin(ts, self.undefined)
        if hit.any():
            raise UndefinedCreatorError(float(ts[hit][0]))
        return np.where(np.isin(ts, self.infinite), np.inf, 0.0)


def _errors(family, creator, n, scan=None):
    """The error of the blocked run and of the whole-array reference."""
    with pytest.raises(Exception) as blocked:
        verify_envelope(sample_envelope(family, creator, n, scan))
    with pytest.raises(Exception) as whole:
        verify_envelope_reference(sample_envelope_reference(family, creator, n))
    assert (type(blocked.value), str(blocked.value)) == (type(whole.value), str(whole.value))
    return blocked.value


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(envelope, "BLOCK_POINTS", 7)


def test_a_jets_error_in_a_later_block_beats_an_undefined_creator(small_blocks):
    # sqrt's argument is negative only near t = 0.5125: between two of the
    # 81 analysis points, and at the 243rd of the 321 verification points
    family = build_family_normalized(parse_expression("t"),
                                     parse_expression("sqrt((t-0.5125)^2-1e-8)"), (-1.0, 1.0))
    scan = scan_grid(family, 81)
    ts = np.linspace(-1.0, 1.0, 321)
    err = _errors(family, _StubCreator(undefined=[ts[3]]), 321, scan)
    assert isinstance(err, ExpressionDomainError) and err.t == ts[242]


def test_an_undefined_creator_beats_a_non_finite_tangency(small_blocks, rotating_pencil):
    scan = scan_grid(rotating_pencil, 101)
    ts = np.linspace(-1.0, 1.0, 401)
    err = _errors(rotating_pencil, _StubCreator(infinite=[ts[10]], undefined=[ts[200]]), 401,
                  scan)
    assert isinstance(err, UndefinedCreatorError) and err.t == ts[200]


def test_the_first_non_finite_difference_is_named_across_a_block_edge(small_blocks,
                                                                       rotating_pencil):
    # E is infinite at the first sample of the second block, so the central
    # difference at the last sample of the first block, which reads it
    # through the halo, is the first that is not finite
    scan = scan_grid(rotating_pencil, 101)
    ts = np.linspace(-1.0, 1.0, 401)
    err = _errors(rotating_pencil, _StubCreator(infinite=[ts[7], ts[30]]), 401, scan)
    assert isinstance(err, ExpressionDomainError)
    assert (err.subexpr, err.t) == ("dE/dt", ts[6])


@pytest.mark.parametrize("at", [3, 20])
def test_a_nan_residual_propagates_as_one_max_would(small_blocks, sine_tangent, at):
    # NaN offsets in the first or a later block: the membership residual is
    # NaN, the check fails, and the tangency is what the reference reports
    scan = scan_grid(sine_tangent, 1001)
    creator = build_creator(scan, assess_creativity(scan, find_gauss_singular_points(scan)),
                            None)
    curve = sample_envelope(sine_tangent, creator, 41)
    offsets = curve.offsets.copy()
    offsets[at] = np.nan
    curve = replace(curve, offsets=offsets)
    blocked, whole = verify_envelope(curve), verify_envelope_reference(curve)
    assert np.isnan(blocked.max_membership_residual) and not blocked.passed
    assert replace(blocked, max_membership_residual=0.0) == \
        replace(whole, max_membership_residual=0.0)


def _working_set(grid_n: int) -> int:
    """Traced peak while sampling and verifying example 1's verification
    grid, less the bytes of the curve it returns."""
    family, scan, creator = _example(1, grid_n)
    tracemalloc.start()
    try:
        curve = sample_envelope(family, creator, verification_n(grid_n), scan)
        verify_envelope(curve)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - sum(getattr(curve, field).nbytes for field in CURVE_FIELDS)


def test_verification_working_set_does_not_grow_with_the_grid():
    # 120,000 more verification points: one more float array would add 0.96 MB
    assert _working_set(40001) - _working_set(10001) < 1_000_000
