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
from .jets import MAX_ORDER, _div

EPS_SING = 1e-9       # |theta'| band for "singular point of the Gauss map"
EPS_CRE = 1e-7        # |a^(j)| band for "derivative vanishes"
EPS_STAR = 1e-6       # normalized residual bound for a' = b theta'
QUOTIENT_COND = 1e-6  # |theta'| level at which the quotient a'/theta' is trusted
LHOPITAL_DEPTH = 4
SERIES_ORDER = MAX_ORDER  # jet order of the classification pass, which gives b's series
ROOT_WIDTH = 1e-12
PASS_POINTS = 4096  # parameters a refinement pass evaluates at most; its fixed cost is that of ~700
_LOG2_3_2 = math.log2(1.5)  # bits of bracket width a ternary step removes: it keeps 2/3
MIN_GRID_N = 16
FLAT_LABEL = f"flat-to-order-{LHOPITAL_DEPTH}"

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
    """The one record of a stall of the Gauss map, with its resolution data.

    At an isolated stall, ``theta_derivative_order`` is the smallest j >= 1
    with theta^(j) != 0 (None when theta' is flat through order 4), and
    ``b_limit`` is the L'Hopital value a^(j)/theta^(j) when the point is
    resolvable; ``a_flat`` is set when a' vanishes through order 4 as well.
    A resolvable one carries b's Taylor coefficients b^(i)(t0)/i! (``series``,
    from ``b_limit`` on) and the ``radius`` within which the creator uses them.
    A flat run (``span`` = its ends) is resolvable when a' stays in its band
    there; ``a_prime_at`` is a' where |a'| peaks on the run, which is ``t``
    unless the run resolves (then ``t`` is its midpoint and ``b_limit`` b's fill).
    """

    t: float
    theta_derivative_order: int | None
    a_prime_at: float
    resolvable: bool
    b_limit: float | None
    a_flat: bool = False
    series: tuple[float, ...] = ()
    radius: float = 0.0
    span: tuple[float, float] | None = None


@dataclass(frozen=True)
class UniquenessVerdict:
    verdict: str
    flat_intervals: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class CreativityReport:
    verdict: str
    creator: "CreatorFunction | None"
    notes: str


def parameter_grid(domain: tuple[float, float], n: int) -> np.ndarray:
    return np.linspace(domain[0], domain[1], n)


@dataclass(frozen=True, eq=False)
class GridScan:
    """The run's analysis grid after one order-1 pass of the coefficient jets:
    the lines (c, s, a), theta' and a' at every grid parameter, the two
    tolerance bands and the scales they come from, and the grid decisions
    every stage reads.  ``scan_grid`` makes it once per run; each stage
    takes it as its only grid."""

    family: LineFamily
    ts: np.ndarray
    c: np.ndarray
    s: np.ndarray
    a: np.ndarray
    theta_prime: np.ndarray
    a_prime: np.ndarray
    scale_theta: float
    scale_a: float
    band: float        # |theta'| <= band is singular (EPS_SING relative to scale_theta)
    a_band: float      # |a'| <= a_band vanishes (EPS_CRE relative to scale_a)
    step: float        # spacing of the grid points (domain length / (grid_n - 1))
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
    band, a_band = EPS_SING * scale_theta, EPS_CRE * scale_a
    step = (family.domain[1] - family.domain[0]) / (grid_n - 1)
    # a flat run spans at least max(3, n/100) nominal cells (domain length / n)
    delta_flat = (family.domain[1] - family.domain[0]) / grid_n * max(3.0, grid_n / 100.0)
    edges = np.flatnonzero(np.diff(np.abs(tp) <= band, prepend=False, append=False))
    runs = tuple(zip(edges[0::2].tolist(), (edges[1::2] - 1).tolist()))
    flat_runs = tuple(run for run in runs
                      if ts[run[1]] - ts[run[0]] >= delta_flat * (1.0 - 1e-9))
    return GridScan(family, ts, c, s, a, tp, ap, scale_theta, scale_a, band, a_band, step,
                    delta_flat, runs, flat_runs)


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
        "delta_flat": scan.delta_flat,
    }


# -- root refinement ---------------------------------------------------------

def _aim(t: np.ndarray, f: np.ndarray, ternary: bool) -> np.ndarray:
    """Where the models of theta' through each row's latest points t (oldest
    first, theta' there f) put the point its search ends on: the root of the
    secant through the last two for a bisection; for a ternary search, the
    root of the parabola through all three that is nearest the last point,
    or its vertex where it has no root.  NaN where a model is degenerate."""
    (t0, t1, t2), (f0, f1, f2) = t.T, f.T
    with np.errstate(all="ignore"):
        d2 = (f2 - f1) / (t2 - t1)
        if not ternary:
            return t2 - f2 / d2
        c = (d2 - (f1 - f0) / (t1 - t0)) / (t2 - t0)
        slope = d2 + c * (t2 - t1)  # the parabola is f2 + slope u + c u^2, u = t - t2
        disc = slope * slope - 4.0 * c * f2
        return t2 + np.where(disc >= 0.0, -2.0 * f2 / (slope + np.copysign(np.sqrt(disc), slope)),
                             -0.5 * slope / c)


def _fit(depth: np.ndarray, points: np.ndarray) -> np.ndarray:
    """The depths of a pass's rows (``points`` parameters a level) cut to the
    largest common cap that keeps the pass within PASS_POINTS parameters;
    where not even one level each fits, the first rows that fit take one
    level and the others wait for a later pass."""
    if depth @ points <= PASS_POINTS:
        return depth
    weight = np.bincount(depth, weights=points)
    levels = np.arange(weight.size)
    cost = np.cumsum(weight * levels) + levels * (weight.sum() - np.cumsum(weight))
    cap = int(np.searchsorted(cost, PASS_POINTS, side="right")) - 1
    return np.minimum(depth, cap) if cap else (np.cumsum(points) <= PASS_POINTS).astype(int)


def _path(lo: np.ndarray, hi: np.ndarray, aim: np.ndarray, depth: int,
          ternary: bool) -> list[np.ndarray]:
    """The first ``depth`` levels of the path each row's steps take if every
    outcome is the predicted one, toward lo where ``aim`` is at or below the
    bracket's midpoint: arrays (levels x rows) of the brackets, the first
    points a step places in them, the predictions and the second points.
    The points are the midpoint (twice), or the two trisection points, each
    computed as a step computes it."""
    levels = []
    for _ in range(depth):
        mid = 0.5 * (lo + hi)
        if ternary:
            third = (hi - lo) / 3.0
            m1, m2 = lo + third, hi - third
        else:
            m1 = m2 = mid
        toward_lo = aim <= mid
        levels.append((lo, hi, m1, toward_lo, m2) if ternary else (lo, hi, m1, toward_lo))
        lo, hi = np.where(toward_lo, lo, m1), np.where(toward_lo, m2, hi)
    path = [np.array(column) for column in zip(*levels)]
    return path if ternary else path + [path[2]]


def _walk(path: list[np.ndarray], f1: np.ndarray, f2: np.ndarray, depth: np.ndarray,
          negative: np.ndarray, stop: np.ndarray, ternary: bool) -> tuple[np.ndarray, ...]:
    """The rules of a step applied along each row's path, where theta' is f1
    and f2 at its points: each row stops after a level that retires it or
    whose outcome was not the predicted one, or after its last level.  The
    level it stopped at, its bracket then, whether it retired, and whether
    its whole path held."""
    lo, hi, m1, toward_lo, m2 = path
    if ternary:
        left = np.abs(f1) <= np.abs(f2)
        new_lo, new_hi = np.where(left, lo, m1), np.where(left, m2, hi)
    else:
        left = negative != (f1 < 0.0)
        exact = f1 == 0.0  # the midpoint is the root: close the bracket on it
        new_lo, new_hi = np.where(left & ~exact, lo, m1), np.where(left | exact, m1, hi)
    width = new_hi - new_lo
    retired = (width <= stop) | (width == hi - lo)
    held = left == toward_lo
    last = np.argmax(~held | retired | (np.arange(len(lo))[:, None] == depth - 1), axis=0)
    i = np.arange(depth.size)
    return (last, new_lo[last, i], new_hi[last, i], retired[last, i],
            held[last, i] & (last == depth - 1))


def _refine(family: LineFamily, lo: np.ndarray, hi: np.ndarray, f_lo: np.ndarray,
            f_hi: np.ndarray, dips: np.ndarray, f_dips: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray]:
    """Bisect every bracket [lo, hi] of a sign change of theta' (f_lo and
    f_hi are theta' at its ends) to ROOT_WIDTH, and ternary-search every dip
    (t0, t1, t2), a row of ``dips`` with theta' there in ``f_dips``, over
    [t0, t2] for the minimum of |theta'| to ROOT_WIDTH/10; the roots and the
    minimizers.  A row also retires when a step leaves its bracket's width
    unchanged: one ulp can exceed the stopping width, and such a bracket
    never changes again.

    All rows advance in lock-step.  Each row keeps a model of theta' through
    its latest points (``_aim``), seeded with the points it is given.  A pass
    lays out, for each open row, the path its steps take if every outcome is
    the one the model predicts (``_path``), and evaluates every path in one
    array pass.  A path is 10 levels deep at first and twice the levels
    walked after a pass whose whole path held, cut to the levels the row has
    left and to PASS_POINTS parameters a pass (``_fit``).  Each row then
    applies the rules of a step level by level (``_walk``).  The model only
    sets how far a pass gets: the points are computed as a step computes
    them and the array jets round like the float jets, so each row ends on
    the bits of a loop over the rows.  A domain error, perhaps off every
    row's true path, runs the refinement again one level per pass; if that
    fails too, the rows are replayed one at a time, bisections first, so the
    error names the parameter such a loop meets first."""
    k = lo.size
    rows = (np.concatenate((lo, dips[:, 0])), np.concatenate((hi, dips[:, 2])),
            np.concatenate((np.stack((lo, lo, hi), axis=1), dips)),  # the model's points
            np.concatenate((np.stack((f_lo, f_lo, f_hi), axis=1), f_dips)),
            np.arange(k + len(dips)) >= k,  # a ternary search
            np.concatenate((f_lo < 0.0, np.zeros(len(dips), dtype=bool))))  # f < 0 at lo

    def run(which, deep):
        a, b, t, f, ter, neg = (column[which] for column in rows)
        stop = np.where(ter, ROOT_WIDTH * 0.1, ROOT_WIDTH)
        depth = np.full(which.size, 10 if deep else 1)
        live = b - a > stop
        while live.any():
            r = np.flatnonzero(live)
            levels = np.ceil(np.log2((b[r] - a[r]) / stop[r]) / np.where(ter[r], _LOG2_3_2, 1.0))
            d = _fit(np.minimum(depth[r], levels).astype(int), ter[r] + 1)
            kinds = []  # (rows, depths, path, levels on the path) of each kind of row
            for ternary in (False, True):
                mask = (d > 0) & (ter[r] == ternary)
                s, ds = r[mask], d[mask]
                if s.size:
                    path = _path(a[s], b[s], _aim(t[s], f[s], ternary), ds.max(), ternary)
                    kinds.append((s, ds, path, np.arange(ds.max())[:, None] < ds, ternary))
            points = [path[j][on] for _, _, path, on, ternary in kinds
                      for j in ((2, 4) if ternary else (2,))]
            values = iter(np.split(_first_derivatives(family, np.concatenate(points))[0],
                                   np.cumsum([p.size for p in points[:-1]])))
            for s, ds, path, on, ternary in kinds:
                f1 = np.zeros(on.shape)
                f1[on] = next(values)
                f2 = f1
                if ternary:
                    f2 = np.zeros(on.shape)
                    f2[on] = next(values)
                last, a[s], b[s], retired, whole = _walk(path, f1, f2, ds, neg[s], stop[s], ternary)
                live[s[retired]] = False
                depth[s[whole]] = ds[whole] * (2 if deep else 1)
                # the model's new points: the last three on the true path
                i = np.arange(s.size)
                for model, p1, p2 in ((t, path[2], path[4]), (f, f1, f2)):
                    prev = np.where(last > 0, p2[last - 1, i], model[s, 2])
                    model[s] = np.stack((prev, p1[last, i] if ternary else prev, p2[last, i]),
                                        axis=1)
        return 0.5 * (a + b)

    every = np.arange(k + len(dips))
    for deep in (True, False):
        try:
            t = run(every, deep)
            return t[:k], t[k:]
        except (ExpressionDomainError, DegenerateFamilyError):
            if deep:
                continue  # the failing point may lie off every row's true path
            for i in every:
                run(every[i:i + 1], False)
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
    over the bracketing cells.  Each stall gets one record, in order of t:
    L'Hopital classifies the isolated points, and a run of banded points
    long enough to count as a flat interval gets the record of
    ``_flat_record`` in place of the points inside it (its midpoint still
    bounds the series radii of its neighbours).
    """
    family, ts, tp, band = scan.family, scan.ts, scan.theta_prime, scan.band
    w = np.abs(tp)

    with np.errstate(over="ignore"):  # an infinite product keeps its sign
        sign_change = tp[:-1] * tp[1:] < 0.0
    brackets = np.flatnonzero(sign_change)  # cells [i, i + 1] to bisect

    # one ternary search per non-flat run of banded points, then one per
    # tangential dip, kept when its minimum falls inside the band
    flat_mids = [float(0.5 * (ts[start] + ts[end])) for start, end in scan.flat_runs]
    runs = [start + int(np.argmin(np.abs(tp[start:end + 1])))  # each run's least |theta'|
            for start, end in scan.runs if (start, end) not in scan.flat_runs]
    trigger = _TANGENTIAL_TRIGGER * scan.scale_theta
    inner = w[1:-1]
    dips = (~(inner <= band) & ~(inner > trigger) & (inner <= w[:-2]) & (inner < w[2:])
            & ~sign_change[:-1] & ~sign_change[1:])  # sign changes are handled above
    i = np.concatenate((np.array(runs, dtype=int), np.flatnonzero(dips) + 1))
    i = np.stack((np.maximum(i - 1, 0), i, np.minimum(i + 1, ts.size - 1)), axis=1)
    found, t_min = _refine(family, ts[brackets], ts[brackets + 1], tp[brackets],
                           tp[brackets + 1], ts[i], tp[i])
    # one pass for |theta'| at every candidate: the minimizers, then the rest
    # in order, so a domain error names the parameter a scan in that order meets
    every = np.concatenate((t_min, np.sort(np.concatenate((found, flat_mids)))))
    size = np.abs(_first_derivatives(family, every)[0]) if every.size else every
    keep = np.ones(every.size, dtype=bool)
    keep[len(runs):t_min.size] = size[len(runs):t_min.size] <= band  # dips that touch the band
    order = np.argsort(every[keep], kind="stable")
    candidates, size = every[keep][order].tolist(), size[keep][order].tolist()

    merge_radius = 0.5 * scan.step
    accepted: list[int] = []  # indices into candidates
    for k, t0 in enumerate(candidates):
        if accepted and t0 - candidates[accepted[-1]] <= merge_radius:
            if size[k] < size[accepted[-1]]:
                accepted[-1] = k
            continue
        accepted.append(k)

    points = _classify_points(family, np.array(candidates)[accepted], scan.scale_theta)
    flats = [_flat_record(scan, start, end) for start, end in scan.flat_runs]
    isolated = [p for p in points  # the points inside a flat run are that run's
                if not any(f.span[0] - 1e-12 <= p.t <= f.span[1] + 1e-12 for f in flats)]
    return tuple(sorted(flats + isolated, key=lambda p: p.t))


def _flat_record(scan: GridScan, start: int, end: int) -> SingularPoint:
    """The record of the flat run of grid points start..end: the a'-band
    test over the run, and b's constant fill, taken from the nearest
    non-flat neighbour (the left one first; 0 when the whole domain is flat)."""
    i = start - 1 if start > 0 else end + 1 if end < scan.grid_n - 1 else None
    fill = 0.0 if i is None else float(scan.a_prime[i] / scan.theta_prime[i])
    lo, hi = float(scan.ts[start]), float(scan.ts[end])
    worst = start + int(np.argmax(np.abs(scan.a_prime[start:end + 1])))
    ok = bool(abs(scan.a_prime[worst]) <= scan.a_band)
    return SingularPoint(0.5 * (lo + hi) if ok else float(scan.ts[worst]), None,
                         float(scan.a_prime[worst]), ok, fill if ok else None, span=(lo, hi))


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
    """Evaluation recipe for b(t) on the run's scan from the resolvable records
    of ``find_gauss_singular_points(scan)``: the plain quotient a'/theta' away
    from singular parameters, b's Taylor series near resolved isolated ones,
    and constant fills on resolved flat runs; b is undefined at the others.
    ``UserCreator`` evaluates a validated user expression instead."""

    kind = "canonical"

    def __init__(self, scan: GridScan, singulars: tuple[SingularPoint, ...]):
        self.scan = scan
        ok = [p for p in singulars if p.resolvable]
        self.resolved = tuple(p for p in ok if p.span is None)  # sorted by t, with their series
        self.flat_intervals = tuple((*p.span, p.b_limit) for p in ok
                                    if p.span is not None)  # (lo, hi, fill value)

    def __call__(self, t):
        """b at t, a float or a 1-d array of parameters in the family's domain."""
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        family = self.scan.family
        lo, hi = family.domain
        for u in ts[(ts < lo) | (ts > hi)].tolist():
            family.require_in_domain(u)  # the first past the slack raises
        b = self.on_grid(ts)
        return b if isinstance(t, np.ndarray) else float(b[0])

    def on_grid(self, ts: np.ndarray, tp=None, ap=None) -> np.ndarray:
        """b at the parameters ts, where theta' and a' are tp and ap, by default the jets'.

        Each parameter takes the first that applies of: the fill of the
        first flat interval holding it; within the radius of the nearest
        resolved point, b's series there; the plain quotient where theta' is
        outside the band; the fill of the nearest flat interval within one
        grid step (flat bounds are grid-resolution).  The first parameter
        left over raises."""
        if tp is None:
            tp, ap = _first_derivatives(self.scan.family, ts)
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
            plain = todo & (np.abs(tp) > self.scan.band)
            b[plain] = ap[plain] / tp[plain]
            todo &= ~plain
        if todo.any() and self.flat_intervals:
            lo, hi, fill = (np.array(column)[:, None] for column in zip(*self.flat_intervals))
            gap = np.maximum(np.maximum(lo - ts[todo], ts[todo] - hi), 0.0)
            near = gap.min(axis=0) <= self.scan.step
            extend = np.flatnonzero(todo)[near]
            b[extend] = fill[np.argmin(gap, axis=0)[near], 0]  # the first nearest interval
            todo[extend] = False
        if todo.any():
            raise UndefinedCreatorError(float(ts[np.argmax(todo)]))
        return b

    def __repr__(self) -> str:
        return (f"CreatorFunction(canonical, {len(self.resolved)} resolved singular, "
                f"{len(self.flat_intervals)} flat)")


class UserCreator(CreatorFunction):
    """A user expression for b, which ``build_creator`` validates on the scan."""

    kind = "user"

    def __init__(self, scan: GridScan, expr: ExpressionAst):
        super().__init__(scan, ())
        self.expr = expr
        self._program = JetProgram((expr,))

    def on_grid(self, ts: np.ndarray, tp=None, ap=None) -> np.ndarray:
        """The expression at the parameters ts; theta' and a' play no part."""
        return evaluate_jet(self._program, ts, 0)[0].value

    def __repr__(self) -> str:
        return f"UserCreator({unparse(self.expr)!r})"


def _star_residuals(creator: CreatorFunction, ts: np.ndarray, tp: np.ndarray,
                    ap: np.ndarray) -> np.ndarray:
    """Normalized residuals of a' = b theta' at ts, where theta' and a' are tp and ap."""
    return np.abs(ap - creator.on_grid(ts, tp, ap) * tp) / (1.0 + np.abs(ap))


# -- creativity -----------------------------------------------------------------

_LEADS = {
    CREATIVE: "an envelope exists (the family is creative)",
    NOT_CREATIVE: "no envelope exists (the family is not creative)",
    INCONCLUSIVE: "envelope existence undecided at this grid and tolerance",
}


def assess_creativity(scan: GridScan,
                      singulars: tuple[SingularPoint, ...]) -> CreativityReport:
    """Creativity verdict and, when creative, the canonical creator, from one
    walk over the records ``singulars`` = ``find_gauss_singular_points(scan)``."""
    notes: list[str] = []
    fatal = undecided = False
    for point in singulars:
        if point.resolvable:
            continue
        if point.span is not None:
            fatal = True
            notes.append(
                f"theta' vanishes on [{point.span[0]!r}, {point.span[1]!r}] "
                f"but a' does not (|a'| = {abs(point.a_prime_at)!r} at t = {point.t!r})"
            )
        elif point.theta_derivative_order is None and point.a_flat:
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
        creator = CreatorFunction(scan, singulars)
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
        elif creator.flat_intervals:
            notes.append(
                f"creator under-determined on {len(creator.flat_intervals)} flat interval(s); "
                "canonical constant fill applied (any smooth b works there)"
            )

    lo, hi = scan.family.domain
    notes.append(
        f"certified at grid_n = {scan.grid_n} on [{lo}, {hi}] "
        f"with eps_sing = {EPS_SING}, eps_cre = {EPS_CRE}, eps_star = {EPS_STAR}, "
        f"L'Hopital depth {LHOPITAL_DEPTH}"
    )
    return CreativityReport(verdict, creator,
                            "; ".join([_LEADS[verdict]] + notes))


def mark_unverified(report: CreativityReport, failure: str) -> CreativityReport:
    """A creative report downgraded to inconclusive: the envelope its creator
    gives failed verification, so the verdict cannot stand."""
    body = report.notes.removeprefix(_LEADS[report.verdict])
    return replace(report, verdict=INCONCLUSIVE, creator=None,
                   notes=f"{_LEADS[INCONCLUSIVE]}{body}; {failure}")


def build_creator(scan: GridScan, report: CreativityReport,
                  user_b: ExpressionAst | None = None) -> CreatorFunction:
    """The canonical creator from the scan's report, or a ``UserCreator``
    for ``user_b`` validated on the scan."""
    if report.verdict != CREATIVE:
        raise ValueError(f"cannot build a creator for a {report.verdict} family")
    assert report.creator is not None
    if user_b is None:
        return report.creator
    creator = UserCreator(scan, user_b)
    ts, tp, ap = scan.ts, scan.theta_prime, scan.a_prime
    try:
        res = _star_residuals(creator, ts, tp, ap)
    except ExpressionDomainError as err:
        # b leaves its domain at err.t: the relation is checked up to there
        keep = ts < err.t
        if not keep.any():  # at the first grid point, with nothing before it
            raise
        ts, tp, ap = ts[keep], tp[keep], ap[keep]
        res = _star_residuals(creator, ts, tp, ap)
        if not np.any(res > EPS_STAR):
            raise
    bad = np.flatnonzero(res > EPS_STAR)
    if bad.size:
        raise InvalidCreatorError(float(ts[bad[0]]), float(res[bad[0]]))
    return creator
