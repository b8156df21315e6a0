"""Envelope sampling and verification over the whole grid at once, with no
scan and no blocks.  ``sample_envelope`` and ``verify_envelope``, which read
the scan and run in blocks, must give exactly the same bits, and the same
errors."""

import numpy as np

from envlines.analysis import first_order, parameter_grid
from envlines.envelope import (
    MEMBERSHIP_TOL,
    TANGENCY_TOL,
    EnvelopeCurve,
    TooFewSamplesError,
    VerificationReport,
)
from envlines.expr import ExpressionDomainError


def sample_envelope_reference(family, creator, n: int) -> EnvelopeCurve:
    ts = parameter_grid(family.domain, n)
    c, s, a, tp, ap = first_order(family, ts)
    b = creator.on_grid(ts, tp, ap)
    points = np.column_stack((a * c - b * s, a * s + b * c))
    return EnvelopeCurve(ts, points, np.column_stack((c, s)), b, a)


def verify_envelope_reference(curve: EnvelopeCurve) -> VerificationReport:
    n = len(curve.ts)
    if n < 5:
        raise TooFewSamplesError(n)
    ts, pts, nus = curve.ts, curve.points, curve.nus
    if not np.all(np.diff(ts) > 0.0):
        raise ValueError("envelope verification needs strictly increasing parameters")

    membership = float(np.max(np.abs(np.einsum("ij,ij->i", pts, nus) - curve.offsets)))
    with np.errstate(all="ignore"):
        tol = MEMBERSHIP_TOL * (1.0 + float(np.max(np.hypot(pts[:, 0], pts[:, 1]))))

    deriv = np.empty_like(pts)
    with np.errstate(all="ignore"):
        deriv[1:-1] = (pts[2:] - pts[:-2]) / (ts[2:] - ts[:-2])[:, None]
        h0, h1 = ts[1] - ts[0], ts[-1] - ts[-2]
        deriv[0] = (-3.0 * pts[0] + 4.0 * pts[1] - pts[2]) / (2.0 * h0)
        deriv[-1] = (3.0 * pts[-1] - 4.0 * pts[-2] + pts[-3]) / (2.0 * h1)
        tangency = np.abs(np.einsum("ij,ij->i", deriv, nus))
        scale = TANGENCY_TOL * (1.0 + float(np.max(np.hypot(deriv[:, 0], deriv[:, 1]))))
    bad = np.flatnonzero(~np.isfinite(tangency))
    if bad.size:
        raise ExpressionDomainError("dE/dt", float(ts[bad[0]]),
                                    "the finite difference of the envelope is not finite (overflow)")
    tangency_ok = (float(np.max(tangency[1:-1])) <= scale
                   and float(max(tangency[0], tangency[-1])) <= 2.0 * scale)
    passed = bool(np.isfinite([tol, scale]).all() and membership <= tol and tangency_ok)
    return VerificationReport(n, float(np.max(tangency)), membership, passed, scale, tol)
