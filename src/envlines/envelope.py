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

    @property
    def samples(self) -> tuple[EnvelopePoint, ...]:
        return tuple(
            EnvelopePoint(t, (x, y), (c, s), b)
            for t, (x, y), (c, s), b in zip(self.ts.tolist(), self.points.tolist(),
                                             self.nus.tolist(), self.b_values.tolist())
        )


@dataclass(frozen=True)
class VerificationReport:
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
    c, s, a = family.coeff_jets(t, 0)
    b = creator(float(t))
    x = a.value * c.value - b * s.value
    y = a.value * s.value + b * c.value
    return EnvelopePoint(float(t), (x, y), (c.value, s.value), b)


def envelope_points(family: LineFamily, creator: CreatorFunction, ts: np.ndarray,
                    scan: GridScan | None = None
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Points and normals (n x 2), offsets and creator values at the
    parameters ts, read from ``scan`` (the scan at ts) or from one pass of
    the jets: order 1 for a canonical creator, which reads theta' and a'
    from it, order 0 otherwise.  An error of the jets, then of the creator,
    names its first failing parameter."""
    canonical = creator.user_expr is None
    if scan is not None:
        c, s, a, tp, ap = scan.c, scan.s, scan.a, scan.theta_prime, scan.a_prime
    elif canonical:
        c, s, a, tp, ap = first_order(family, ts)
    else:
        c, s, a = (j.value for j in family.coeff_jets(ts, 0))
    b = creator.on_grid(ts, tp, ap) if canonical else creator(ts)
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
    endpoints, where the tolerance doubles).
    """
    n = len(curve.ts)
    if n < 5:
        raise TooFewSamplesError(n)
    ts, pts, nus = curve.ts, curve.points, curve.nus

    membership = float(np.max(np.abs(np.einsum("ij,ij->i", pts, nus) - curve.offsets)))

    deriv = np.empty_like(pts)
    deriv[1:-1] = (pts[2:] - pts[:-2]) / (ts[2:] - ts[:-2])[:, None]
    h0, h1 = ts[1] - ts[0], ts[-1] - ts[-2]
    deriv[0] = (-3.0 * pts[0] + 4.0 * pts[1] - pts[2]) / (2.0 * h0)
    deriv[-1] = (3.0 * pts[-1] - 4.0 * pts[-2] + pts[-3]) / (2.0 * h1)

    tangency = np.abs(np.einsum("ij,ij->i", deriv, nus))
    with np.errstate(all="ignore"):  # |E'|^2 past the float range: an infinite tolerance
        scale = TANGENCY_TOL * (1.0 + float(np.max(np.linalg.norm(deriv, axis=1))))
    tangency_ok = (float(np.max(tangency[1:-1])) <= scale
                   and float(max(tangency[0], tangency[-1])) <= 2.0 * scale)
    passed = membership <= MEMBERSHIP_TOL and tangency_ok
    return VerificationReport(float(np.max(tangency)), membership, passed, scale)
