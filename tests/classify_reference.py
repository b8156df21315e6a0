"""L'Hopital classification one singular parameter at a time, and the
record of a flat run one grid point at a time, on plain floats.  The array
code of ``analysis._classify_points`` and the flat records of
``find_gauss_singular_points`` must give exactly the same
``SingularPoint``s, field for field and bit for bit."""

import math

import numpy as np

from envlines.analysis import (
    _SCALE_GRID_N,
    EPS_CRE,
    EPS_SING,
    LHOPITAL_DEPTH,
    QUOTIENT_COND,
    SERIES_ORDER,
    SingularPoint,
    parameter_grid,
)
from envlines.jets import _div


def classify_reference(family, ts: np.ndarray, scale_theta: float) -> tuple[SingularPoint, ...]:
    grid = parameter_grid(family.domain, _SCALE_GRID_N)
    tpj, apj = family.derivative_jets(np.concatenate((grid, ts)), SERIES_ORDER)
    theta_derivs = np.array(tpj.coeffs)  # rows m = 0..5: theta^(m+1), a^(m+1)
    a_derivs = np.array(apj.coeffs)
    scales = [np.max(np.abs(derivs[:LHOPITAL_DEPTH, :_SCALE_GRID_N]), axis=1, keepdims=True)
              for derivs in (theta_derivs, a_derivs)]
    th_scales, a_scales = (np.where(v > 0.0, v, 1.0) for v in scales)
    theta_derivs, a_derivs = theta_derivs[:, _SCALE_GRID_N:], a_derivs[:, _SCALE_GRID_N:]
    nonzero = np.abs(theta_derivs[:LHOPITAL_DEPTH]) > EPS_SING * th_scales
    a_vanish = np.abs(a_derivs[:LHOPITAL_DEPTH]) <= EPS_CRE * a_scales
    half_gap = 0.5 * np.diff(ts, prepend=-np.inf, append=np.inf)  # to the neighbours
    cap = 0.25 * (family.domain[1] - family.domain[0])
    points = []
    for i, t0 in enumerate(ts.tolist()):
        order = int(np.argmax(nonzero[:, i])) + 1 if nonzero[:, i].any() else None
        resolvable = order is not None and bool(a_vanish[:order - 1, i].all())
        series, radius = (), 0.0
        if resolvable:
            # theta' and a' share the factor (t - t0)^k: cancel it and divide
            # the series, scaling term m by k!/m! (the leading one by 1)
            k = order - 1
            scale = [math.factorial(k) / math.factorial(m) for m in range(k, SERIES_ORDER)]
            th, a = ([v * f for v, f in zip(d[k:, i].tolist(), scale)]
                     for d in (theta_derivs, a_derivs))
            series = tuple(_div(a, th))
            # |theta'| ~ |theta^(k+1)| r^k / k! reaches the quotient band at r
            level = math.factorial(k) * QUOTIENT_COND * scale_theta / abs(th[0])
            radius = min(level ** (1.0 / k), cap, *half_gap[i:i + 2].tolist()) if k else 0.0
        points.append(SingularPoint(t0, order, float(a_derivs[0, i]), resolvable,
                                    series[0] if resolvable else None,
                                    bool(a_vanish[:, i].all()), series, radius))
    return tuple(points)


def assert_classified_as_reference(points, family, scale_theta: float) -> None:
    """``points`` from ``_classify_points`` equal the reference's at their
    parameters, every field bit for bit (repr tells -0.0 from 0.0 and an
    int from a numpy integer)."""
    ts = np.array([p.t for p in points])
    assert list(map(repr, points)) == list(map(repr, classify_reference(family, ts, scale_theta)))


def flat_record_reference(scan, start: int, end: int) -> SingularPoint:
    """The record of the flat run of grid points start..end: resolvable iff
    every |a'| on the run is inside the a'-band, at the run's midpoint then
    and at its first point of largest |a'| otherwise, with b's fill from the
    left neighbour, else the right one, else 0."""
    ts, tp, ap = scan.ts.tolist(), scan.theta_prime.tolist(), scan.a_prime.tolist()
    run = range(start, end + 1)
    worst = max(run, key=lambda i: abs(ap[i]))  # the first of equal maxima
    ok = all(abs(ap[i]) <= scan.a_band for i in run)
    if start > 0:
        fill = ap[start - 1] / tp[start - 1]
    elif end < len(ts) - 1:
        fill = ap[end + 1] / tp[end + 1]
    else:
        fill = 0.0
    return SingularPoint(0.5 * (ts[start] + ts[end]) if ok else ts[worst], None, ap[worst], ok,
                         fill if ok else None, span=(ts[start], ts[end]))


def assert_records_follow_the_rules(records, classified, scan) -> None:
    """The records of ``find_gauss_singular_points`` are, in order of t, one
    record per flat run, as the reference makes it, and the classified
    points outside every flat run, unchanged."""
    flats = [flat_record_reference(scan, start, end) for start, end in scan.flat_runs]
    isolated = [p for p in classified
                if not any(f.span[0] - 1e-12 <= p.t <= f.span[1] + 1e-12 for f in flats)]
    expected = sorted(flats + isolated, key=lambda p: p.t)
    assert list(map(repr, records)) == list(map(repr, expected))
