"""Bracket-by-bracket root refinement on plain floats, as envlines ran it
before the brackets advanced in lock-step.  The lock-step code must end
every bracket on exactly the same bits.

A bracket also stops when a step leaves its width unchanged: where one ulp
exceeds the stopping width, the midpoint or a trisection point rounds to an
end, and the bracket would never change again."""

from envlines.analysis import ROOT_WIDTH, _first_derivatives


def theta_prime(family, t: float) -> float:
    return _first_derivatives(family, t)[0]


def bisect_root(family, lo: float, hi: float, f_lo: float) -> float:
    width = None
    while hi - lo > ROOT_WIDTH and hi - lo != width:
        width = hi - lo
        mid = 0.5 * (lo + hi)
        f_mid = theta_prime(family, mid)
        if f_mid == 0.0:
            return mid
        if (f_lo < 0.0) != (f_mid < 0.0):
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def minimize_abs(family, lo: float, hi: float) -> float:
    """Ternary search for the minimizer of |theta'| on [lo, hi]."""
    width = None
    while hi - lo > ROOT_WIDTH * 0.1 and hi - lo != width:
        width = hi - lo
        third = (hi - lo) / 3.0
        m1, m2 = lo + third, hi - third
        if abs(theta_prime(family, m1)) <= abs(theta_prime(family, m2)):
            hi = m2
        else:
            lo = m1
    return 0.5 * (lo + hi)
