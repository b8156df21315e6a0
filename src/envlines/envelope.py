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

MEMBERSHIP_TOL = 1e-9  # scaled by (1 + max |E|)
TANGENCY_TOL = 1e-5  # scaled by (1 + max |E'|); doubled at the endpoints
BLOCK_POINTS = 8192  # samples per pass of the grid-sized stages: bounds their temporaries
HALO = 1  # samples a difference reads past a block edge; the stencils assume 1


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
    passed: bool  # both residuals within their tolerances, and both tolerances finite
    tangency_tol: float  # TANGENCY_TOL * (1 + max |E'|), doubled at the endpoints
    membership_tol: float  # MEMBERSHIP_TOL * (1 + max |E|)

    @property
    def failure(self) -> str | None:
        """The first failed condition with its residual and tolerance."""
        if self.passed:
            return None
        for name, tol in (("membership", self.membership_tol), ("tangency", self.tangency_tol)):
            if not np.isfinite(tol):
                return f"{name} tolerance {tol!r} is not finite (overflow)"
        if self.max_membership_residual > self.membership_tol:
            return f"membership residual {self.max_membership_residual!r} > {self.membership_tol!r}"
        return (f"tangency residual {self.max_tangency_residual!r} > {self.tangency_tol!r} "
                "(doubled at the endpoints)")


def envelope_point(family: LineFamily, creator: CreatorFunction, t: float) -> EnvelopePoint:
    """One point of the envelope at parameter t."""
    family.require_in_domain(t)
    points, nus, _, b = envelope_points(family, creator, np.array([float(t)]))
    return EnvelopePoint(float(t), tuple(points[0].tolist()), tuple(nus[0].tolist()), float(b[0]))


def envelope_points(family: LineFamily, creator: CreatorFunction, ts: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Points and normals (n x 2), offsets and creator values at the
    parameters ts, from one order-1 pass of the jets.  An error of the jets,
    then of the creator, names its first failing parameter."""
    c, s, a, tp, ap = first_order(family, ts)
    b = creator.on_grid(ts, tp, ap)
    return _on_lines(c, s, a, b), np.column_stack((c, s)), a, b


def _on_lines(c, s, a, b) -> np.ndarray:
    """E = a nu + b J nu (n x 2) on the lines (c, s, a)."""
    return np.column_stack((a * c - b * s, a * s + b * c))


def _blocks(n: int):
    for lo in range(0, n, BLOCK_POINTS):
        yield lo, min(lo + BLOCK_POINTS, n)


def sample_envelope(family: LineFamily, creator: CreatorFunction, n: int,
                    scan: GridScan | None = None) -> EnvelopeCurve:
    """The envelope at n uniform parameters across the family's domain.

    Where every k-th parameter is a point of ``scan`` (bit for bit), the
    lines, theta' and a' there are read from it; the other parameters are
    evaluated in increasing order, in passes of at most ``BLOCK_POINTS``.
    Every pass of the jets runs before the creator, which then runs block by
    block, so the first error is the one a single pass over the grid meets."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    ts = parameter_grid(family.domain, n)
    nus, offsets, points, b = np.empty((n, 2)), np.empty(n), np.empty((n, 2)), np.empty(n)
    columns = (nus[:, 0], nus[:, 1], offsets, points[:, 0], points[:, 1])  # c, s, a, theta', a'
    k = 0 if scan is None else (n - 1) // (scan.grid_n - 1)
    k = k if k and np.array_equal(ts[::k], scan.ts) else 0  # every k-th parameter the scan's
    scanned = (scan.c, scan.s, scan.a, scan.theta_prime, scan.a_prime) if k else ()
    for column, values in zip(columns, scanned):
        column[::k] = values
    for lo, hi in _blocks(n):
        i = np.arange(lo, hi)
        i = i[i % k != 0] if k else i
        if i.size:
            for column, values in zip(columns, first_order(family, ts[i])):
                column[i] = values
    for lo, hi in _blocks(n):  # points holds theta' and a' until E replaces them
        b[lo:hi] = creator.on_grid(ts[lo:hi], points[lo:hi, 0], points[lo:hi, 1])
        points[lo:hi] = _on_lines(nus[lo:hi, 0], nus[lo:hi, 1], offsets[lo:hi], b[lo:hi])
    return EnvelopeCurve(ts, points, nus, b, offsets)


def verify_envelope(curve: EnvelopeCurve) -> VerificationReport:
    """Check the defining conditions of an envelope on a sampled curve.

    Membership: max |E(t) . nu(t) - a(t)| over the samples, with a(t) the
    offsets the curve was sampled with, against a tolerance relative to
    max |E|.  Tangency: max |E'(t) . nu(t)| with
    E' from central differences (second-order one-sided stencils at the
    endpoints, where the tolerance doubles), on strictly increasing
    parameters.  A tangency past the float range is a domain error there.
    Both run over blocks of ``BLOCK_POINTS`` samples; a difference reads
    ``HALO`` samples past each edge of its block.
    """
    n = len(curve.ts)
    if n < 5:
        raise TooFewSamplesError(n)
    ts, pts, nus = curve.ts, curve.points, curve.nus
    if not np.all(ts[1:] > ts[:-1]):
        raise ValueError("envelope verification needs strictly increasing parameters")

    membership, inner, edges, size, speed = [], [], [], [], []  # the maxima of each block
    # a tangency past the float range raises below; |E|^2 or |E'|^2 past it, an infinite tolerance
    with np.errstate(all="ignore"):
        first = (-3.0 * pts[0] + 4.0 * pts[1] - pts[2]) / (2.0 * (ts[1] - ts[0]))
        last = (3.0 * pts[-1] - 4.0 * pts[-2] + pts[-3]) / (2.0 * (ts[-1] - ts[-2]))
        for lo, hi in _blocks(n):
            membership.append(np.max(np.abs(
                np.einsum("ij,ij->i", pts[lo:hi], nus[lo:hi]) - curve.offsets[lo:hi])))
            size.append(np.max(np.einsum("ij,ij->i", pts[lo:hi], pts[lo:hi])))  # |E|^2
            i0, i1 = max(lo, HALO), min(hi, n - HALO)  # the points with a central difference
            ahead, behind = slice(i0 + HALO, i1 + HALO), slice(i0 - HALO, i1 - HALO)
            i0, i1 = i0 - lo, i1 - lo  # within the block, whose other points are ends
            deriv = np.empty((hi - lo, 2))
            deriv[i0:i1] = (pts[ahead] - pts[behind]) / (ts[ahead] - ts[behind])[:, None]
            deriv[:i0], deriv[i1:] = first, last
            tangency = np.abs(np.einsum("ij,ij->i", deriv, nus[lo:hi]))
            bad = np.flatnonzero(~np.isfinite(tangency))
            if bad.size:
                raise ExpressionDomainError(
                    "dE/dt", float(ts[lo + bad[0]]),
                    "the finite difference of the envelope is not finite (overflow)")
            inner.append(np.max(tangency[i0:i1], initial=0.0))
            edges.append(np.max(np.r_[tangency[:i0], tangency[i1:]], initial=0.0))
            speed.append(np.max(np.linalg.norm(deriv, axis=1)))
        scale = TANGENCY_TOL * (1.0 + float(np.max(speed)))
        tol = MEMBERSHIP_TOL * (1.0 + float(np.sqrt(np.max(size))))
    membership, inner, edges = (float(np.max(maxima)) for maxima in (membership, inner, edges))
    passed = bool(np.isfinite([tol, scale]).all()  # an infinite band checks nothing
                  and membership <= tol and inner <= scale and edges <= 2.0 * scale)
    return VerificationReport(n, max(inner, edges), membership, passed, scale, tol)
