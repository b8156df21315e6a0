"""Slice-by-slice discriminant, as envlines built it before the slices became
columns: one ``SliceSolution`` per parameter, over the grid merged with the
refined singular parameters through a set and a sweep.  Away from the merge
rule (no singular parameter within 1e-12 (1 + |t|) of a grid point), the
columnar discriminant must give the same slices on the same bits."""

import numpy as np

from envlines.analysis import EPS_CRE, EPS_SING, first_order
from envlines.discriminant import EMPTY, POINT, WHOLE_LINE, SliceSolution
from envlines.family import LineCoefficients


def classify(ts, c, s, a, tp, ap, scale_theta, scale_a):
    point = np.abs(tp) > EPS_SING * scale_theta
    whole = ~point & (np.abs(ap) <= EPS_CRE * scale_a)
    q = ap[point] / tp[point]
    xs = np.full(ts.shape, np.nan)
    ys = np.full(ts.shape, np.nan)
    xs[point] = a[point] * c[point] - q * s[point]
    ys[point] = a[point] * s[point] + q * c[point]
    lines = {i: LineCoefficients((float(c[i]), float(s[i])), float(a[i]))
             for i in np.flatnonzero(whole).tolist()}
    slices = []
    for i, (t, is_point, x, y) in enumerate(zip(ts.tolist(), point.tolist(),
                                                xs.tolist(), ys.tolist())):
        if is_point:
            slices.append(SliceSolution(t, POINT, point=(x, y)))
        elif i in lines:
            slices.append(SliceSolution(t, WHOLE_LINE, line=lines[i]))
        else:
            slices.append(SliceSolution(t, EMPTY))
    return tuple(slices)


def slice_parameters(grid, singulars):
    merged = sorted(set(grid.tolist()) | set(p.t for p in singulars))
    out = [merged[0]]
    for t in merged[1:]:
        if t - out[-1] > 1e-12 * (1.0 + abs(t)):
            out.append(t)
        else:
            if any(abs(t - p.t) <= 1e-12 * (1.0 + abs(t)) for p in singulars):
                out[-1] = t
    return np.array(out)


def sample_discriminant(family, scan, singulars):
    """The slices at the merged parameters, all evaluated in one pass."""
    ts = slice_parameters(scan.ts, singulars)
    return classify(ts, *first_order(family, ts), scan.scale_theta, scan.scale_a)
