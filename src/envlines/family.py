"""Straight line families t -> {(X, Y) : X cos(theta(t)) + Y sin(theta(t)) = a(t)}.

Four input modes build the same normalized object: the unit normal
nu(t) = (c(t), s(t)) and the signed offset a(t), each available as a jet of
any order up to ``jets.MAX_ORDER``.  The rotation angle itself is never
materialized; every downstream formula needs only (c, s) and derivatives of
theta, and the rotation rate comes branch-free from theta' = c s' - s c'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import jets
from .expr import ExpressionAst, ExpressionDomainError, JetProgram, evaluate_jet, unparse
from .jets import Jet, JetDomainError, any_point, differentiate, truncate

DEFAULT_DOMAIN = (-10.0, 10.0)
EPS_DEGENERATE = 1e-12  # threshold on A^2 + B^2 below which no line is defined
UNIT_TOL = 1e-12
_BUILD_GRID_N = 257

_Recipe = Callable[..., tuple[Jet, Jet, Jet]]  # (t, order, *source jets) -> (c, s, a)


class DegenerateFamilyError(ExpressionDomainError):
    """A^2 + B^2 fell below the degeneracy threshold at some parameter: a
    domain error of ``A^2 + B^2`` with a message of its own."""

    def __init__(self, t: float, value: float):
        ValueError.__init__(
            self,
            f"degenerate line coefficients at t = {t!r}: A^2 + B^2 = {value!r} <= {EPS_DEGENERATE}"
        )
        self.subexpr, self.t = "A^2 + B^2", t


class OutOfDomainError(ValueError):
    def __init__(self, t: float, domain: tuple[float, float]):
        self.t = t
        super().__init__(f"parameter t = {t!r} outside domain [{domain[0]}, {domain[1]}]")


@dataclass(frozen=True)
class LineCoefficients:
    """One line of the family: {(X, Y) : X*nu_x + Y*nu_y = offset}, |nu| = 1."""

    nu: tuple[float, float]
    offset: float


class LineFamily:
    """Immutable normalized family; all evaluation goes through its jets.

    Each ``coeff_jets`` pass runs the source expressions' ``JetProgram``,
    compiled once with the recipe as its finish, over a whole grid at a
    time.  Nothing is memoized, so memory grows with the grid, not with the
    queries.
    """

    def __init__(self, mode: str, domain: tuple[float, float],
                 source_exprs: dict[str, ExpressionAst], recipe: _Recipe):
        lo, hi = float(domain[0]), float(domain[1])
        if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
            raise ValueError(f"domain must be a non-degenerate interval, got [{lo}, {hi}]")
        self.mode = mode
        self.domain = (lo, hi)
        self.source_exprs = dict(source_exprs)
        self._program = JetProgram(tuple(self.source_exprs.values()), recipe)

    def __repr__(self) -> str:
        exprs = ", ".join(f"{k}={unparse(v)!r}" for k, v in self.source_exprs.items())
        return f"LineFamily(mode={self.mode!r}, domain={self.domain}, {exprs})"

    def contains(self, t: float) -> bool:
        lo, hi = self.domain
        slack = 1e-12 * (1.0 + abs(t))
        return lo - slack <= t <= hi + slack

    def require_in_domain(self, t: float) -> None:
        if not self.contains(t):
            raise OutOfDomainError(t, self.domain)

    def coeff_jets(self, t, order: int) -> tuple[Jet, Jet, Jet]:
        """Jets of (cos theta, sin theta, a) at t; order <= jets.MAX_ORDER.

        ``t`` is a float, or a 1-d array of parameters for jets over the whole
        grid; a domain error then names the first failing parameter, as a
        loop over the grid would.
        """
        return evaluate_jet(self._program, t, order)

    def derivative_jets(self, t, order: int) -> tuple[Jet, Jet]:
        """Jets of theta' = c s' - s c' and of a', both of order ``order - 1``,
        from one evaluation of the coefficient jets of order ``order``."""
        c, s, a = self.coeff_jets(t, order)
        k = order - 1
        with np.errstate(all="ignore"):
            theta_prime = truncate(c, k) * differentiate(s) - truncate(s, k) * differentiate(c)
        return theta_prime, differentiate(a)


def _validated(family: LineFamily) -> LineFamily:
    lo, hi = family.domain
    step = (hi - lo) / (_BUILD_GRID_N - 1)
    ts = lo + np.arange(_BUILD_GRID_N) * step
    c, s, _ = family.coeff_jets(ts, jets.MAX_ORDER)
    unit_defect = np.abs(c.value * c.value + s.value * s.value - 1.0)
    bad = np.flatnonzero(unit_defect > UNIT_TOL)
    if bad.size:
        t, defect = float(ts[bad[0]]), float(unit_defect[bad[0]])
        raise ExpressionDomainError("c^2 + s^2", t, f"the Gauss map left the unit circle "
                                                     f"(|c^2 + s^2 - 1| = {defect!r})")
    return family


def build_family_normalized(theta: ExpressionAst, a: ExpressionAst,
                            domain: tuple[float, float] = DEFAULT_DOMAIN) -> LineFamily:
    """Family given directly by a rotation angle theta(t) and offset a(t)."""

    def recipe(t, order: int, th: Jet, ja: Jet) -> tuple[Jet, Jet, Jet]:
        s, c = jets.sincos(th)
        return c, s, ja

    return _validated(LineFamily("normalized", domain, {"theta": theta, "a": a}, recipe))


def build_family_general(A: ExpressionAst, B: ExpressionAst, C: ExpressionAst,
                         domain: tuple[float, float] = DEFAULT_DOMAIN) -> LineFamily:
    """Family from a general defining equation A(t) X + B(t) Y + C(t) = 0.

    Normalizes to c = A/r, s = B/r, a = -C/r with r = sqrt(A^2 + B^2); the
    formula is continuous in t wherever A^2 + B^2 > 0, so the normal never
    flips sign between neighboring parameters.
    """

    def recipe(t, order: int, ja: Jet, jb: Jet, jc: Jet) -> tuple[Jet, Jet, Jet]:
        n2 = ja * ja + jb * jb
        if any_point(n2.value <= EPS_DEGENERATE):
            raise DegenerateFamilyError(t, n2.value)
        try:
            jets.require_finite(n2)
        except JetDomainError as err:
            raise ExpressionDomainError("A^2 + B^2", t, str(err)) from err
        r = jets.sqrt(n2)
        return ja / r, jb / r, -jc / r

    return _validated(LineFamily("general", domain, {"A": A, "B": B, "C": C}, recipe))


def build_family_clairaut(g: ExpressionAst,
                          domain: tuple[float, float] = DEFAULT_DOMAIN) -> LineFamily:
    """Family of general solutions Y = t X + g(t) of a Clairaut equation."""

    def recipe(t, order: int, jg: Jet) -> tuple[Jet, Jet, Jet]:
        v = Jet.variable(t, order)
        r = jets.sqrt(v * v + 1.0)
        one = Jet.constant(1.0, t, order)
        return v / r, -(one / r), -(jg / r)

    return _validated(LineFamily("clairaut", domain, {"g": g}, recipe))


def build_family_hedgehog(a: ExpressionAst,
                          domain: tuple[float, float] = DEFAULT_DOMAIN) -> LineFamily:
    """Support-function family: theta(t) = t with offset a(t)."""

    def recipe(t, order: int, ja: Jet) -> tuple[Jet, Jet, Jet]:
        s, c = jets.sincos(Jet.variable(t, order))
        return c, s, ja

    return _validated(LineFamily("hedgehog", domain, {"a": a}, recipe))


def line_at(family: LineFamily, t: float) -> LineCoefficients:
    """The line of the family at parameter t."""
    family.require_in_domain(t)
    c, s, a = family.coeff_jets(t, 0)
    return LineCoefficients((c.value, s.value), a.value)

