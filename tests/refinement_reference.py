"""Bracket-by-bracket root refinement on plain floats, as envlines ran it
before the brackets advanced in lock-step.  The lock-step code must end
every bracket on exactly the same bits."""

from envlines.analysis import ROOT_WIDTH, _first_derivatives


def theta_prime(family, t: float) -> float:
    return _first_derivatives(family, t)[0]


def bisect_root(family, lo: float, hi: float, f_lo: float) -> float:
    while hi - lo > ROOT_WIDTH:
        mid = 0.5 * (lo + hi)
        f_mid = theta_prime(family, mid)
        if f_mid == 0.0:
            return mid
        if (f_lo < 0.0) != (f_mid < 0.0):
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def minimize_abs(family, lo: float, hi: float) -> tuple[float, float]:
    """Ternary search for the minimum of |theta'| on [lo, hi]."""
    while hi - lo > ROOT_WIDTH * 0.1:
        third = (hi - lo) / 3.0
        m1, m2 = lo + third, hi - third
        if abs(theta_prime(family, m1)) <= abs(theta_prime(family, m2)):
            hi = m2
        else:
            lo = m1
    t = 0.5 * (lo + hi)
    return t, abs(theta_prime(family, t))
