"""Gauss-map singularities, the creativity and uniqueness verdicts, and the
construction of the creator function b with a'(t) = b(t) theta'(t).

The underlying conditions are exact-zero conditions on smooth functions; a
numerical tool can only certify tolerance-banded versions of them on a
finite grid.  All verdicts produced here are therefore labeled with the
grid and tolerances used.  Zero tests are banded relative to the largest
magnitude each quantity attains on the grid, so the verdicts are invariant
under rescaling the input family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .expr import ExpressionAst, ExpressionDomainError, JetProgram, evaluate_jet, unparse
from .family import DegenerateFamilyError, LineFamily
from .jets import _div

EPS_SING = 1e-9       # |theta'| band for "singular point of the Gauss map"
EPS_CRE = 1e-7        # |a^(j)| band for "derivative vanishes"
EPS_STAR = 1e-6       # normalized residual bound for a' = b theta'
QUOTIENT_COND = 1e-6  # |theta'| level at which the quotient a'/theta' is trusted
LHOPITAL_DEPTH = 4
SERIES_ORDER = 6      # jet order of the classification pass, which gives b's series
ROOT_WIDTH = 1e-12
LOOKAHEAD_POINTS = 128  # refinement pass size: 1 parameter costs about what 100 do
MIN_GRID_N = 16
FLAT_LABEL = "flat-to-order-4"

CREATIVE = "creative"
NOT_CREATIVE = "not_creative"
INCONCLUSIVE = "inconclusive"
UNIQUE = "unique"
NON_UNIQUE = "non_unique"


class UndefinedCreatorError(ValueError):
    """The creator has no value at (or too near) an unresolved singular point."""

    def __init__(self, t: float):
        self.t = t
        super().__init__(f"creator undefined at t = {t!r}")


class InvalidCreatorError(ValueError):
    """A user-supplied creator violates a' = b theta' on the grid."""

    def __init__(self, t: float, residual: float):
        self.t = t
        self.residual = residual
        super().__init__(
            f"user creator violates a' = b*theta' at t = {t!r} "
            f"(normalized residual {residual!r} > {EPS_STAR})"
        )


@dataclass(frozen=True)
class SingularPoint:
    """A parameter where the Gauss map stalls, with its local resolution data.

    ``theta_derivative_order`` is the smallest j >= 1 with theta^(j) != 0
    (None when theta' is flat through order 4).  ``b_limit`` is the
    L'Hopital value a^(j)/theta^(j) when the point is resolvable.
    ``a_flat`` is set by the L'Hopital classification when a' vanishes
    through order 4 there as well.  A resolvable point carries b's Taylor
    coefficients b^(i)(t0)/i! (``series``, from ``b_limit`` on) and the
    ``radius`` within which the creator evaluates them.
    """

    t: float
    theta_derivative_order: int | None
    a_prime_at: float
    resolvable: bool
    b_limit: float | None
    a_flat: bool = False
    series: tuple[float, ...] = ()
    radius: float = 0.0


@dataclass(frozen=True)
class UniquenessVerdict:
    verdict: str
    flat_intervals: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class CreativityReport:
    verdict: str
    witnesses: tuple[SingularPoint, ...]
    creator: "CreatorFunction | None"
    notes: str


def parameter_grid(domain: tuple[float, float], n: int) -> np.ndarray:
    return np.linspace(domain[0], domain[1], n)


@dataclass(frozen=True, eq=False)
class GridScan:
    """The run's analysis grid after one order-1 pass of the coefficient jets:
    the lines (c, s, a), theta' and a' at every grid parameter, the
    quantities that enter the tolerance bands, and the grid decisions every
    stage reads.  ``scan_grid`` makes it once per run; each stage takes it
    as its only grid."""

    family: LineFamily
    ts: np.ndarray
    c: np.ndarray
    s: np.ndarray
    a: np.ndarray
    theta_prime: np.ndarray
    a_prime: np.ndarray
    scale_theta: float
    scale_a: float
    cell: float        # nominal cell (domain length / grid_n), used in tolerances
    delta_flat: float  # minimum span of a run of singular cells to call it flat
    runs: tuple[tuple[int, int], ...]       # maximal index runs [start, end] of banded theta'
    flat_runs: tuple[tuple[int, int], ...]  # the runs that span at least delta_flat

    @property
    def grid_n(self) -> int:
        return self.ts.size


def scan_grid(family: LineFamily, grid_n: int) -> GridScan:
    """The scan of ``family`` on its n-point analysis grid, with the runs of
    grid points where |theta'| sits inside the singularity band."""
    if grid_n < MIN_GRID_N:
        raise ValueError(f"grid_n must be >= {MIN_GRID_N}, got {grid_n}")
    ts = parameter_grid(family.domain, grid_n)
    c, s, a, tp, ap = first_order(family, ts)
    scale_theta = float(np.max(np.abs(tp))) or 1.0
    scale_a = float(np.max(np.abs(ap))) or 1.0
    cell = (family.domain[1] - family.domain[0]) / grid_n
    delta_flat = cell * max(3.0, grid_n / 100.0)
    edges = np.flatnonzero(np.diff(np.abs(tp) <= EPS_SING * scale_theta,
                                   prepend=False, append=False))
    runs = tuple(zip(edges[0::2].tolist(), (edges[1::2] - 1).tolist()))
    flat_runs = tuple(run for run in runs
                      if ts[run[1]] - ts[run[0]] >= delta_flat * (1.0 - 1e-9))
    return GridScan(family, ts, c, s, a, tp, ap, scale_theta, scale_a, cell, delta_flat,
                    runs, flat_runs)


def first_order(family: LineFamily, t):
    """c, s, a, theta' and a' at t (a float or an array of parameters), from
    one order-1 evaluation of the coefficient jets."""
    c, s, a = family.coeff_jets(t, 1)
    theta_prime = c.coeffs[0] * s.coeffs[1] - s.coeffs[0] * c.coeffs[1]
    return c.value, s.value, a.value, theta_prime, a.coeffs[1]


def _first_derivatives(family: LineFamily, t):
    """theta' and a' at t, a float or an array of parameters."""
    return first_order(family, t)[3:]


def grid_profile(scan: GridScan) -> dict[str, float]:
    """Grid-derived quantities entering the tolerance bands (for reporting)."""
    return {
        "scale_theta": scan.scale_theta,
        "scale_a": scan.scale_a,
        "cell": scan.cell,
        "delta_flat": scan.delta_flat,
    }


# -- root refinement ---------------------------------------------------------

def _tree(lo: np.ndarray, hi: np.ndarray, depth: int, ternary: bool) -> list[np.ndarray]:
    """The points a step places in each row's [lo, hi] (the midpoint, or the
    two trisection points) and in the first ``depth`` levels below it, one
    array (rows x nodes) per kind of point.  Node j of level l is column
    2^l - 1 + j; its children are nodes j (toward lo) and j + 2^l."""
    a, b, levels = lo[:, None], hi[:, None], []
    for _ in range(depth if lo.size else 0):
        if ternary:
            third = (b - a) / 3.0
            m1, m2 = a + third, b - third
        else:
            m1 = m2 = 0.5 * (a + b)
        levels.append((m1, m2) if ternary else (m1,))
        a, b = np.concatenate((a, m1), axis=1), np.concatenate((m2, b), axis=1)
    return [np.concatenate(kind, axis=1) for kind in zip(*levels)]


def _refine(family: LineFamily, lo: np.ndarray, hi: np.ndarray, f_lo: np.ndarray,
            dip_lo: np.ndarray, dip_hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bisect every bracket [lo, hi] of a sign change of theta' (f_lo is
    theta' at lo) to ROOT_WIDTH and ternary-search every [dip_lo, dip_hi] for
    the minimum of |theta'| to ROOT_WIDTH/10; the roots and the minimizers.
    A row also retires when a step leaves its bracket's width unchanged: one
    ulp can exceed the stopping width, and such a bracket never changes again.

    All rows advance in lock-step.  Each array pass evaluates the first
    levels of every open row's search tree, as many as fit in
    LOOKAHEAD_POINTS parameters (at least one), and the rows then walk them
    with the rules of one step.  The points are computed as a step computes
    them and the array jets round like the float jets, so each row ends on
    the bits of a loop over the rows.  A domain error, perhaps off every
    row's path, runs the refinement again one level per pass; if that fails
    too, the bisections and then the searches are replayed one at a time in
    order, so the error names the parameter such a loop meets first."""

    def run(lo, hi, f_lo, dip_lo, dip_hi, budget):
        lo, hi, f_lo = np.concatenate((lo, dip_lo)), np.concatenate((hi, dip_hi)), f_lo.copy()
        k = f_lo.size
        bis = np.flatnonzero(hi[:k] - lo[:k] > ROOT_WIDTH)
        ter = k + np.flatnonzero(hi[k:] - lo[k:] > ROOT_WIDTH * 0.1)
        while bis.size or ter.size:
            depth = max(1, (budget // (bis.size + 2 * ter.size) + 1).bit_length() - 1)
            points = np.concatenate(_tree(lo[bis], hi[bis], depth, False)
                                    + _tree(lo[ter], hi[ter], depth, True))
            f = _first_derivatives(family, points.ravel())[0].reshape(points.shape)
            nb, nt = bis.size, ter.size
            row, node = np.arange(nb), np.zeros(nb, dtype=int)
            for level in range(depth):
                if not bis.size:
                    break
                mid, f_mid, width = points[row, node], f[row, node], hi[bis] - lo[bis]
                left = (f_lo[bis] < 0.0) != (f_mid < 0.0)
                hi[bis[left]] = mid[left]
                lo[bis[~left]], f_lo[bis[~left]] = mid[~left], f_mid[~left]
                exact = f_mid == 0.0  # the midpoint is the root: close the bracket on it
                lo[bis[exact]] = hi[bis[exact]] = mid[exact]
                new = hi[bis] - lo[bis]
                keep = (new > ROOT_WIDTH) & (new != width)
                bis, row, node = bis[keep], row[keep], (node + (1 << level) + (~left << level))[keep]
            row, node = np.arange(nb, nb + nt), np.zeros(nt, dtype=int)
            for level in range(depth):
                if not ter.size:
                    break
                width = hi[ter] - lo[ter]
                left = np.abs(f[row, node]) <= np.abs(f[row + nt, node])
                hi[ter[left]] = points[row + nt, node][left]
                lo[ter[~left]] = points[row, node][~left]
                new = hi[ter] - lo[ter]
                keep = (new > ROOT_WIDTH * 0.1) & (new != width)
                ter, row, node = ter[keep], row[keep], (node + (1 << level) + (~left << level))[keep]
        t = 0.5 * (lo + hi)
        return t[:k], t[k:]

    for budget in (LOOKAHEAD_POINTS, 0):
        try:
            return run(lo, hi, f_lo, dip_lo, dip_hi, budget)
        except (ExpressionDomainError, DegenerateFamilyError):
            if budget:
                continue  # the failing point may lie off every row's path
            none = np.empty(0)
            for i in range(lo.size):
                run(lo[i:i + 1], hi[i:i + 1], f_lo[i:i + 1], none, none, 0)
            for i in range(dip_lo.size):
                run(none, none, none, dip_lo[i:i + 1], dip_hi[i:i + 1], 0)
            raise


# -- point classification -----------------------------------------------------

_SCALE_GRID_N = 129


def _classify_points(family: LineFamily, ts: np.ndarray,
                     scale_theta: float) -> tuple[SingularPoint, ...]:
    """L'Hopital classification of every singular parameter in ts at once,
    with b's series and its radius at each resolvable one.

    The zero tests read theta^(j) and a^(j), j = 1..4, banded by their
    maxima on a coarse grid as the first-order scales band the singularity
    test; one order-6 pass evaluates the coarse grid and ts for both.  All
    points are decided at once, one ``_div`` per order, on a loop's bits."""
    grid = parameter_grid(family.domain, _SCALE_GRID_N)
    tpj, apj = family.derivative_jets(np.concatenate((grid, ts)), SERIES_ORDER)
    theta_derivs = np.array(tpj.coeffs)  # rows m = 0..5: theta^(m+1), a^(m+1)
    a_derivs = np.array(apj.coeffs)
    scales = [np.max(np.abs(derivs[:LHOPITAL_DEPTH, :_SCALE_GRID_N]), axis=1, keepdims=True)
              for derivs in (theta_derivs, a_derivs)]
    th_scales, a_scales = (np.where(v > 0.0, v, 1.0) for v in scales)
    theta_derivs, a_derivs = theta_derivs[:, _SCALE_GRID_N:], a_derivs[:, _SCALE_GRID_N:]
    nonzero = np.abs(theta_derivs[:LHOPITAL_DEPTH]) > EPS_SING * th_scales
    # row m: a^(1..m+1) all vanish; a point of order k + 1 needs row k - 1
    a_held = np.logical_and.accumulate(
        np.abs(a_derivs[:LHOPITAL_DEPTH]) <= EPS_CRE * a_scales, axis=0)
    ks = np.argmax(nonzero, axis=0)  # order k + 1: theta^(k+1) is the first outside its band
    found = nonzero.any(axis=0)
    resolvable = found & ((ks == 0) | a_held[np.maximum(ks - 1, 0), np.arange(ts.size)])
    half_gap = 0.5 * np.diff(ts, prepend=-np.inf, append=np.inf)  # to the neighbours
    cap = 0.25 * (family.domain[1] - family.domain[0])
    series, radius = [()] * ts.size, [0.0] * ts.size
    for k in set(ks[resolvable].tolist()):  # the orders present, at most LHOPITAL_DEPTH
        cols = np.flatnonzero(resolvable & (ks == k))
        # theta' and a' share the factor (t - t0)^k: cancel it and divide
        # the series, scaling term m by k!/m! (the leading one by 1)
        scale = [math.factorial(k) / math.factorial(m) for m in range(k, SERIES_ORDER)]
        th, a = ([row * f for row, f in zip(d[k:, cols], scale)]
                 for d in (theta_derivs, a_derivs))
        with np.errstate(all="ignore"):  # overflow gives inf, as on floats
            b = np.array(_div(a, th)).T.tolist()
            # |theta'| ~ |theta^(k+1)| r^k / k! reaches the quotient band at r
            level = math.factorial(k) * QUOTIENT_COND * scale_theta / np.abs(th[0])
        for i, coeffs, lv, lo, hi in zip(cols.tolist(), b, level.tolist(),
                                         half_gap[cols].tolist(), half_gap[cols + 1].tolist()):
            # Python's pow: numpy's can differ from it in the last ulp
            series[i], radius[i] = tuple(coeffs), min(lv ** (1.0 / k), cap, lo, hi) if k else 0.0
    return tuple(SingularPoint(t0, k + 1 if has else None, ap, ok, s[0] if ok else None, flat, s, r)
                 for t0, has, k, ap, ok, flat, s, r in zip(
                     ts.tolist(), found.tolist(), ks.tolist(), a_derivs[0].tolist(),
                     resolvable.tolist(), a_held[-1].tolist(), series, radius))


# -- singular point search -----------------------------------------------------

_TANGENTIAL_TRIGGER = 1e-3  # relative |theta'| level that prompts a local minimization


def find_gauss_singular_points(scan: GridScan) -> tuple[SingularPoint, ...]:
    """Locate and classify the parameters where theta' vanishes.

    Sign changes of theta' are refined by bisection to width 1e-12;
    grid points inside the singularity band are flagged directly, and
    tangential roots (no sign change) are caught by minimizing |theta'|
    over the bracketing cells.  A run of banded points long enough to
    count as a flat interval is reported as one point at its midpoint.
    """
    family, ts, tp = scan.family, scan.ts, scan.theta_prime
    band = EPS_SING * scan.scale_theta
    w = np.abs(tp)

    sign_change = tp[:-1] * tp[1:] < 0.0
    brackets = np.flatnonzero(sign_change)  # cells [i, i + 1] to bisect

    # one ternary search per non-flat run of banded points, then one per
    # tangential dip, kept when its minimum falls inside the band
    flat_mids = [float(0.5 * (ts[start] + ts[end])) for start, end in scan.flat_runs]
    run_lo, run_hi = [], []
    for start, end in scan.runs:
        if (start, end) in scan.flat_runs:
            continue
        best = start + int(np.argmin(np.abs(tp[start:end + 1])))
        run_lo.append(ts[max(best - 1, 0)])
        run_hi.append(ts[min(best + 1, ts.size - 1)])
    trigger = _TANGENTIAL_TRIGGER * scan.scale_theta
    inner = w[1:-1]
    dips = (~(inner <= band) & ~(inner > trigger) & (inner <= w[:-2]) & (inner < w[2:])
            & ~sign_change[:-1] & ~sign_change[1:])  # sign changes are handled above
    i = np.flatnonzero(dips) + 1
    found, t_min = _refine(family, ts[brackets], ts[brackets + 1], tp[brackets],
                           np.concatenate((run_lo, ts[i - 1])),
                           np.concatenate((run_hi, ts[i + 1])))
    # one pass for |theta'| at every candidate: the minimizers, then the rest
    # in order, so a domain error names the parameter a scan in that order meets
    every = np.concatenate((t_min, np.sort(np.concatenate((found, flat_mids)))))
    size = np.abs(_first_derivatives(family, every)[0]) if every.size else every
    keep = np.ones(every.size, dtype=bool)
    keep[len(run_lo):t_min.size] = size[len(run_lo):t_min.size] <= band  # dips that touch the band
    order = np.argsort(every[keep], kind="stable")
    candidates, size = every[keep][order].tolist(), size[keep][order].tolist()

    merge_radius = 0.5 * (family.domain[1] - family.domain[0]) / (ts.size - 1)
    accepted: list[int] = []  # indices into candidates
    for k, t0 in enumerate(candidates):
        if accepted and t0 - candidates[accepted[-1]] <= merge_radius:
            if size[k] < size[accepted[-1]]:
                accepted[-1] = k
            continue
        accepted.append(k)

    return _classify_points(family, np.array(candidates)[accepted], scan.scale_theta)


# -- uniqueness ----------------------------------------------------------------

def assess_uniqueness(scan: GridScan) -> UniquenessVerdict:
    """Uniqueness verdict: unique iff regular points are dense at grid resolution."""
    if all(start == end for start, end in scan.runs):  # no two banded neighbours
        return UniquenessVerdict(UNIQUE, ())
    if scan.flat_runs:
        return UniquenessVerdict(NON_UNIQUE, tuple(
            (float(scan.ts[start]), float(scan.ts[end])) for start, end in scan.flat_runs))
    return UniquenessVerdict(INCONCLUSIVE, ())


# -- creator --------------------------------------------------------------------

class CreatorFunction:
    """Evaluation recipe for b(t): the plain quotient a'/theta' away from
    singular parameters, b's Taylor series near resolved ones, constant
    fills on flat intervals, or a validated user expression overriding
    everything."""

    def __init__(self, family: LineFamily, grid_n: int, scale_theta: float,
                 resolved: tuple[SingularPoint, ...],
                 unresolved_ts: tuple[float, ...],
                 flat_intervals: tuple[tuple[float, float, float], ...],
                 user_expr: ExpressionAst | None = None):
        self.family = family
        self.grid_n = grid_n
        self.scale_theta = scale_theta
        self.resolved = resolved            # sorted by t, each with its series and radius
        self.unresolved_ts = unresolved_ts
        self.flat_intervals = flat_intervals  # (lo, hi, fill value)
        self.user_expr = user_expr
        self._user_program = JetProgram((user_expr,)) if user_expr is not None else None

    @property
    def kind(self) -> str:
        return "user" if self.user_expr is not None else "canonical"

    def __call__(self, t):
        """b at t, a float or a 1-d array of parameters in the family's domain."""
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        lo, hi = self.family.domain
        for u in ts[(ts < lo) | (ts > hi)].tolist():
            self.family.require_in_domain(u)  # the first past the slack raises
        if self.user_expr is not None:
            return evaluate_jet(self._user_program, t, 0)[0].value
        b = self.on_grid(ts, *_first_derivatives(self.family, ts))
        return b if isinstance(t, np.ndarray) else float(b[0])

    def on_grid(self, ts: np.ndarray, tp: np.ndarray, ap: np.ndarray) -> np.ndarray:
        """b at the parameters ts, where theta' and a' are tp and ap.

        Each parameter takes the first that applies of: the fill of the
        first flat interval holding it; within the radius of the nearest
        resolved point, b's series there; the plain quotient where theta' is
        outside the band; the fill of the nearest flat interval within one
        cell (flat bounds are grid-resolution).  The first parameter left
        over raises."""
        if self.user_expr is not None:
            return self(ts)
        b = np.empty(ts.shape)
        todo = np.ones(ts.shape, dtype=bool)
        for lo, hi, fill in self.flat_intervals:
            inside = todo & (lo - 1e-12 <= ts) & (ts <= hi + 1e-12)
            b[inside] = fill
            todo &= ~inside
        with np.errstate(all="ignore"):  # an infinite b fails the star-residual check
            if self.resolved:
                t0, radius, series = (np.array(column) for column in zip(*(
                    (p.t, p.radius, p.series + (0.0,) * (SERIES_ORDER - len(p.series)))
                    for p in self.resolved)))  # series rows padded with zeros
                j = np.searchsorted(t0, ts)
                near = (np.maximum(j - 1, 0), np.minimum(j, t0.size - 1))  # centres either side
                d = [np.abs(ts - t0[k]) for k in near]
                inside = [dk <= radius[k] for dk, k in zip(d, near)]
                right = inside[1] & ~(inside[0] & (d[0] <= d[1]))  # the left centre wins a tie
                zone = todo & (inside[0] | inside[1])
                k = np.where(right, near[1], near[0])[zone]
                dt, value = ts[zone] - t0[k], np.zeros(k.size)
                for coeff in series[k].T[::-1]:  # Horner, from the highest term
                    value = value * dt + coeff
                b[zone] = value
                todo &= ~zone
            plain = todo & (np.abs(tp) > EPS_SING * self.scale_theta)
            b[plain] = ap[plain] / tp[plain]
            todo &= ~plain
        if todo.any() and self.flat_intervals:
            lo, hi, fill = (np.array(column)[:, None] for column in zip(*self.flat_intervals))
            gap = np.maximum(np.maximum(lo - ts[todo], ts[todo] - hi), 0.0)
            cell = (self.family.domain[1] - self.family.domain[0]) / (self.grid_n - 1)
            near = gap.min(axis=0) <= cell
            extend = np.flatnonzero(todo)[near]
            b[extend] = fill[np.argmin(gap, axis=0)[near], 0]  # the first nearest interval
            todo[extend] = False
        if todo.any():
            t = float(ts[np.argmax(todo)])
            bad = min(self.unresolved_ts, key=lambda t0: abs(t - t0), default=t)
            raise UndefinedCreatorError(float(bad))
        return b

    def __repr__(self) -> str:
        if self.user_expr is not None:
            return f"CreatorFunction(user {unparse(self.user_expr)!r})"
        return (f"CreatorFunction(canonical, {len(self.resolved)} resolved singular, "
                f"{len(self.flat_intervals)} flat)")


def _flat_fills(scan: GridScan) -> list[tuple[float, float, float]]:
    """Constant fill per flat run, extended from the nearest non-flat boundary."""
    fills: list[tuple[float, float, float]] = []
    for start, end in scan.flat_runs:
        if start > 0:
            i = start - 1  # prefer the left boundary
        elif end < len(scan.ts) - 1:
            i = end + 1
        else:
            i = None  # the whole domain is flat: any creator works, use 0
        fill = 0.0 if i is None else float(scan.a_prime[i] / scan.theta_prime[i])
        fills.append((float(scan.ts[start]), float(scan.ts[end]), fill))
    return fills


def _assemble_canonical(scan: GridScan, isolated: tuple[SingularPoint, ...],
                        fills: list[tuple[float, float, float]]) -> CreatorFunction:
    return CreatorFunction(scan.family, scan.grid_n, scan.scale_theta,
                           tuple(p for p in isolated if p.resolvable),
                           tuple(p.t for p in isolated if not p.resolvable), tuple(fills))


def _star_residuals(creator: CreatorFunction, ts: np.ndarray, tp: np.ndarray,
                    ap: np.ndarray) -> np.ndarray:
    """Normalized residuals of a' = b theta' at ts, where theta' and a' are tp and ap."""
    return np.abs(ap - creator.on_grid(ts, tp, ap) * tp) / (1.0 + np.abs(ap))


def star_residual(family: LineFamily, creator: CreatorFunction,
                  ts: np.ndarray) -> tuple[float, float]:
    """Max normalized residual of a' = b theta' over ts, with its location."""
    res = _star_residuals(creator, ts, *_first_derivatives(family, ts))
    worst = int(np.argmax(res))
    return float(res[worst]), float(ts[worst])


# -- creativity -----------------------------------------------------------------

_LEADS = {
    CREATIVE: "an envelope exists (the family is creative)",
    NOT_CREATIVE: "no envelope exists (the family is not creative)",
    INCONCLUSIVE: "envelope existence undecided at this grid and tolerance",
}


def assess_creativity(scan: GridScan,
                      singulars: tuple[SingularPoint, ...]) -> CreativityReport:
    """Creativity verdict with witnesses and, when creative, the canonical
    creator; ``singulars`` are ``find_gauss_singular_points(scan)``."""
    flat_runs, fills = scan.flat_runs, _flat_fills(scan)
    notes: list[str] = []
    fatal = False
    undecided = False

    witnesses: list[SingularPoint] = []
    for (start, end), (lo, hi, fill) in zip(flat_runs, fills):
        segment = np.abs(scan.a_prime[start:end + 1])
        worst = start + int(np.argmax(segment))
        a_ok = bool(segment[worst - start] <= EPS_CRE * scan.scale_a)
        witnesses.append(SingularPoint(
            t=float(0.5 * (lo + hi) if a_ok else scan.ts[worst]),
            theta_derivative_order=None,
            a_prime_at=float(scan.a_prime[worst]),
            resolvable=a_ok,
            b_limit=fill if a_ok else None,
        ))
        if not a_ok:
            fatal = True
            notes.append(
                f"theta' vanishes on [{lo!r}, {hi!r}] "
                f"but a' does not (|a'| = {float(segment[worst - start])!r} "
                f"at t = {float(scan.ts[worst])!r})"
            )

    def in_flat(t: float) -> bool:
        return any(lo - 1e-12 <= t <= hi + 1e-12 for lo, hi, _ in fills)

    isolated = tuple(p for p in singulars if not in_flat(p.t))
    for point in isolated:
        witnesses.append(point)
        if point.resolvable:
            continue
        if point.theta_derivative_order is None and point.a_flat:
            undecided = True
            notes.append(
                f"theta' and a' both vanish through order {LHOPITAL_DEPTH} at t = {point.t!r}; "
                "smoothness of b cannot be decided at this depth"
            )
        else:
            fatal = True
            notes.append(
                f"a' vanishes to lower order than theta' at t = {point.t!r} "
                "(the quotient a'/theta' diverges)"
            )

    creator = None
    if fatal:
        verdict = NOT_CREATIVE
    elif undecided:
        verdict = INCONCLUSIVE
    else:
        verdict = CREATIVE
        creator = _assemble_canonical(scan, isolated, fills)
        miss = None
        try:
            res = _star_residuals(creator, scan.ts, scan.theta_prime, scan.a_prime)
        except UndefinedCreatorError as err:
            miss = f"assembled creator is undefined at t = {err.t!r}"
        else:
            worst = int(np.argmax(res))
            if res[worst] > EPS_STAR:
                miss = (f"assembled creator misses the defining relation at "
                        f"t = {float(scan.ts[worst])!r} "
                        f"(normalized residual {float(res[worst])!r} > {EPS_STAR})")
        if miss is not None:
            verdict = INCONCLUSIVE
            creator = None
            notes.append(miss)
        elif flat_runs:
            notes.append(
                f"creator under-determined on {len(flat_runs)} flat interval(s); "
                "canonical constant fill applied (any smooth b works there)"
            )

    lo, hi = scan.family.domain
    notes.append(
        f"certified at grid_n = {scan.grid_n} on [{lo}, {hi}] "
        f"with eps_sing = {EPS_SING}, eps_cre = {EPS_CRE}, eps_star = {EPS_STAR}, "
        f"L'Hopital depth {LHOPITAL_DEPTH}"
    )
    witnesses.sort(key=lambda p: p.t)
    return CreativityReport(verdict, tuple(witnesses), creator,
                            "; ".join([_LEADS[verdict]] + notes))


def mark_unverified(report: CreativityReport, failure: str) -> CreativityReport:
    """A creative report downgraded to inconclusive: the envelope its creator
    gives failed verification, so the verdict cannot stand."""
    body = report.notes.removeprefix(_LEADS[report.verdict])
    return replace(report, verdict=INCONCLUSIVE, creator=None,
                   notes=f"{_LEADS[INCONCLUSIVE]}{body}; {failure}")


def build_creator(scan: GridScan, report: CreativityReport,
                  user_b: ExpressionAst | None = None) -> CreatorFunction:
    """The canonical creator from the scan's report, or a user override
    validated on the scan."""
    if report.verdict != CREATIVE:
        raise ValueError(f"cannot build a creator for a {report.verdict} family")
    assert report.creator is not None
    if user_b is None:
        return report.creator
    creator = CreatorFunction(scan.family, scan.grid_n, scan.scale_theta, (), (), (),
                              user_expr=user_b)
    ts, tp, ap = scan.ts, scan.theta_prime, scan.a_prime
    try:
        res = _star_residuals(creator, ts, tp, ap)
    except ExpressionDomainError as err:
        # b leaves its domain at err.t: the relation is checked up to there
        keep = ts < err.t
        ts, tp, ap = ts[keep], tp[keep], ap[keep]
        res = _star_residuals(creator, ts, tp, ap)
        if not np.any(res > EPS_STAR):
            raise
    bad = np.flatnonzero(res > EPS_STAR)
    if bad.size:
        raise InvalidCreatorError(float(ts[bad[0]]), float(res[bad[0]]))
    return creator
