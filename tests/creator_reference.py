"""The creator at one parameter on plain floats: b's series within the
radius of the nearest resolved point, the quotient a'/theta' elsewhere.  The
array code of ``CreatorFunction.on_grid`` must give exactly the same bits,
and the same errors."""

from envlines.analysis import EPS_SING, UndefinedCreatorError, _first_derivatives


def creator_reference(creator, t: float) -> float:
    """b(t) for a canonical ``CreatorFunction``, one parameter at a time."""
    for lo, hi, fill in creator.flat_intervals:
        if lo - 1e-12 <= t <= hi + 1e-12:
            return fill
    nearest = None
    for point in creator.resolved:
        d = abs(t - point.t)
        if d <= point.radius and (nearest is None or d < abs(t - nearest.t)):
            nearest = point
    if nearest is not None:
        b = 0.0
        for coeff in reversed(nearest.series):  # Horner, from the highest term
            b = b * (t - nearest.t) + coeff
        return b
    scan = creator.scan
    tp, ap = _first_derivatives(scan.family, t)
    if abs(tp) > EPS_SING * scan.scale_theta:
        return ap / tp
    # theta' is banded here but t missed every recorded zone: extend the
    # nearest fill across one grid step before declaring the creator undefined
    if creator.flat_intervals:
        lo, hi, fill = min(creator.flat_intervals,
                           key=lambda iv: max(iv[0] - t, t - iv[1], 0.0))
        if max(lo - t, t - hi, 0.0) <= scan.step:
            return fill
    raise UndefinedCreatorError(float(t))
