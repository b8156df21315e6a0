"""Envelope parametrization E(t) = a(t) nu(t) + b(t) J nu(t) and its verification.

J nu = (-sin theta, cos theta) is nu rotated a quarter turn, so membership
E . nu = a holds as an algebraic identity no matter what b is; tangency
E' . nu = 0 holds exactly when b is a genuine creator.  Verification
therefore differentiates the sampled curve by finite differences rather
than reusing the jets that produced it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import CreatorFunction, GridScan, first_order, parameter_grid
from .expr import ExpressionDomainError
from .family import LineFamily

MEMBERSHIP_TOL = 1e-9
TANGENCY_TOL = 1e-5  # scaled by (1 + max |E'|); doubled at the endpoints


class TooFewSamplesError(ValueError):
    def __init__(self, n: int):
        super().__init__(f"envelope verification needs at least 5 samples, got {n}")


@dataclass(frozen=True)
class EnvelopePoint:
    t: float
    point: tuple[float, float]
    nu: tuple[float, float]
    b_value: float


@dataclass(frozen=True, eq=False)
class EnvelopeCurve:
    """Envelope samples as arrays: parameters, points and normals (n x 2), b,
    and the offsets a of the lines they lie on."""

    ts: np.ndarray
    points: np.ndarray
    nus: np.ndarray
    b_values: np.ndarray
    offsets: np.ndarray


@dataclass(frozen=True)
class VerificationReport:
    n: int  # the number of samples checked
    max_tangency_residual: float
    max_membership_residual: float
    passed: bool
    tangency_tol: float  # TANGENCY_TOL * (1 + max |E'|), doubled at the endpoints

    @property
    def failure(self) -> str | None:
        """The first failed condition with its residual and tolerance."""
        if self.passed:
            return None
        if self.max_membership_residual > MEMBERSHIP_TOL:
            return f"membership residual {self.max_membership_residual!r} > {MEMBERSHIP_TOL}"
        return (f"tangency residual {self.max_tangency_residual!r} > {self.tangency_tol!r} "
                "(doubled at the endpoints)")


def envelope_point(family: LineFamily, creator: CreatorFunction, t: float) -> EnvelopePoint:
    """One point of the envelope at parameter t."""
    family.require_in_domain(t)
    points, nus, _, b = envelope_points(family, creator, np.array([float(t)]))
    return EnvelopePoint(float(t), tuple(points[0].tolist()), tuple(nus[0].tolist()), float(b[0]))


def envelope_points(family: LineFamily, creator: CreatorFunction, ts: np.ndarray,
                    scan: GridScan | None = None
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Points and normals (n x 2), offsets and creator values at the
    parameters ts, with the lines, theta' and a' read from ``scan`` (the scan
    at ts) or from one order-1 pass of the jets.  An error of the jets, then
    of the creator, names its first failing parameter."""
    if scan is not None:
        c, s, a, tp, ap = scan.c, scan.s, scan.a, scan.theta_prime, scan.a_prime
    else:
        c, s, a, tp, ap = first_order(family, ts)
    b = creator.on_grid(ts, tp, ap)
    points = np.column_stack((a * c - b * s, a * s + b * c))
    return points, np.column_stack((c, s)), a, b


def sample_envelope(family: LineFamily, creator: CreatorFunction, n: int,
                    scan: GridScan | None = None) -> EnvelopeCurve:
    """The envelope at n uniform parameters across the family's domain."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    ts = parameter_grid(family.domain, n) if scan is None else scan.ts
    points, nus, a, b = envelope_points(family, creator, ts, scan)
    return EnvelopeCurve(ts, points, nus, b, a)


def verify_envelope(curve: EnvelopeCurve) -> VerificationReport:
    """Check the defining conditions of an envelope on a sampled curve.

    Membership: max |E(t) . nu(t) - a(t)| over the samples, with a(t) the
    offsets the curve was sampled with.  Tangency: max |E'(t) . nu(t)| with
    E' from central differences (second-order one-sided stencils at the
    endpoints, where the tolerance doubles), on strictly increasing
    parameters.  A tangency past the float range is a domain error there.
    """
    n = len(curve.ts)
    if n < 5:
        raise TooFewSamplesError(n)
    ts, pts, nus = curve.ts, curve.points, curve.nus
    if not np.all(np.diff(ts) > 0.0):
        raise ValueError("envelope verification needs strictly increasing parameters")

    membership = float(np.max(np.abs(np.einsum("ij,ij->i", pts, nus) - curve.offsets)))

    deriv = np.empty_like(pts)
    # a tangency past the float range raises below; |E'|^2 past it, an infinite tolerance
    with np.errstate(all="ignore"):
        deriv[1:-1] = (pts[2:] - pts[:-2]) / (ts[2:] - ts[:-2])[:, None]
        h0, h1 = ts[1] - ts[0], ts[-1] - ts[-2]
        deriv[0] = (-3.0 * pts[0] + 4.0 * pts[1] - pts[2]) / (2.0 * h0)
        deriv[-1] = (3.0 * pts[-1] - 4.0 * pts[-2] + pts[-3]) / (2.0 * h1)
        tangency = np.abs(np.einsum("ij,ij->i", deriv, nus))
        scale = TANGENCY_TOL * (1.0 + float(np.max(np.linalg.norm(deriv, axis=1))))
    bad = np.flatnonzero(~np.isfinite(tangency))
    if bad.size:
        raise ExpressionDomainError("dE/dt", float(ts[bad[0]]),
                                    "the finite difference of the envelope is not finite (overflow)")
    tangency_ok = (float(np.max(tangency[1:-1])) <= scale
                   and float(max(tangency[0], tangency[-1])) <= 2.0 * scale)
    passed = membership <= MEMBERSHIP_TOL and tangency_ok
    return VerificationReport(n, float(np.max(tangency)), membership, passed, scale)
