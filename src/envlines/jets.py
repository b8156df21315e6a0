"""Truncated Taylor (jet) arithmetic for scalar functions of one variable.

A jet carries the value and the first k derivatives of a function at a
point.  Arithmetic and the elementary functions propagate derivatives
through the standard truncated-series recurrences, so derivatives come out
exact (to rounding) with no step sizes to tune.

The center of a jet is either one float or a 1-d numpy array of points, in
which case every coefficient is an array over those points and one pass of
the recurrences evaluates the whole grid (Taylor propagation on coefficient
arrays).  Both cases run the same code and round identically element by
element: the recurrences use only + - * /, sums accumulate left to right
from 0.0, and every transcendental goes through ``math`` (numpy's own
kernels differ from libm in the last ulp on some inputs and CPUs).  The
square root, correctly rounded in both, takes ``np.sqrt`` on arrays.

Internally the recurrences run on normalized Taylor coefficients
u_k = f^(k)/k!; the public ``Jet.coeffs`` tuple holds plain derivative
values [f, f', f'', ...].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAX_ORDER = 6

_FACT = tuple(float(math.factorial(k)) for k in range(MAX_ORDER + 1))
_MAX_PRODUCTS = 64  # integer powers up to this many factors multiply one at a time


class JetDomainError(ValueError):
    """An elementary operation left its real domain (log of <= 0, overflow, etc.)."""


@dataclass(frozen=True)
class Jet:
    """Derivative values [f(t), f'(t), ..., f^(k)(t)] of a function at ``center``.

    ``center`` is a float, or a 1-d array of points with array coefficients.
    """

    center: float | np.ndarray
    coeffs: tuple

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def value(self):
        return self.coeffs[0]

    @staticmethod
    def constant(value: float, center, order: int) -> "Jet":
        if isinstance(center, np.ndarray):
            zeros = np.zeros(center.shape)
            return Jet(center, (np.full(center.shape, float(value)),) + (zeros,) * order)
        return Jet(center, (float(value),) + (0.0,) * order)

    @staticmethod
    def variable(center, order: int) -> "Jet":
        # the identity function t -> t: value center, slope 1, rest 0
        if isinstance(center, np.ndarray):
            rest = (np.ones(center.shape),) + (np.zeros(center.shape),) * (order - 1)
            return Jet(center, (center,) + rest[:order])
        if order == 0:
            return Jet(center, (float(center),))
        return Jet(center, (float(center), 1.0) + (0.0,) * (order - 1))

    def _coerce(self, other) -> "Jet":
        if isinstance(other, Jet):
            if other.order != self.order or (other.center is not self.center
                                             and not _same_center(other.center, self.center)):
                raise ValueError(
                    "jet arithmetic requires equal center and order: "
                    f"({self.center}, {self.order}) vs ({other.center}, {other.order})"
                )
            return other
        return Jet.constant(float(other), self.center, self.order)

    def __add__(self, other) -> "Jet":
        o = self._coerce(other)
        return Jet(self.center, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __sub__(self, other) -> "Jet":
        o = self._coerce(other)
        return Jet(self.center, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other) -> "Jet":
        return self._coerce(other).__sub__(self)

    def __neg__(self) -> "Jet":
        return Jet(self.center, tuple(-a for a in self.coeffs))

    def __mul__(self, other) -> "Jet":
        o = self._coerce(other)
        return _wrap(self, _mul(_taylor(self), _taylor(o)))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Jet":
        o = self._coerce(other)
        return _wrap(self, _div(_taylor(self), _taylor(o)))

    def __rtruediv__(self, other) -> "Jet":
        return self._coerce(other).__truediv__(self)


def _same_center(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return a == b


# 0! = 1! = 1: scaling the first two coefficients would change no bit

def _taylor(j: Jet) -> list:
    c = j.coeffs
    return [*c[:2], *[c[k] / _FACT[k] for k in range(2, len(c))]]


def _wrap(like: Jet, taylor: list) -> Jet:
    return Jet(like.center,
               (*taylor[:2], *[taylor[k] * _FACT[k] for k in range(2, len(taylor))]))


# -- helpers shared by the float and the array path ---------------------------

def any_point(condition) -> bool:
    """Whether a comparison holds at the point, or anywhere on the grid."""
    if isinstance(condition, np.ndarray):
        return bool(condition.any())
    return condition


def _elementwise(f, x):
    """The ``math`` function f at a float, or at each element of an array or list."""
    try:
        if isinstance(x, np.ndarray):
            x = x.tolist()
        if isinstance(x, list):
            return np.fromiter(map(f, x), float, count=len(x))
        return f(x)
    except OverflowError as err:
        raise JetDomainError(f"{f.__name__} overflows") from err


def require_finite(j: Jet) -> Jet:
    """``j`` itself, unless a value or derivative overflowed to inf or nan."""
    if isinstance(j.center, np.ndarray):
        finite = all(np.isfinite(c).all() for c in j.coeffs)
    else:
        finite = all(map(math.isfinite, j.coeffs))
    if not finite:
        raise JetDomainError("non-finite value or derivative (overflow)")
    return j


# -- recurrences on normalized Taylor coefficients -----------------------
#
# Every sum is an explicit left-to-right accumulation from 0.0: sum() of
# floats is compensated from Python 3.12 on and would round unlike arrays.

def _mul(u: list, v: list) -> list:
    w = []
    for k in range(len(u)):
        acc = 0.0
        for j in range(k + 1):
            acc = acc + u[j] * v[k - j]
        w.append(acc)
    return w


def _div(u: list, v: list) -> list:
    if any_point(v[0] == 0.0):
        raise JetDomainError("division by zero")
    w: list = []
    for k in range(len(u)):
        acc = 0.0
        for j in range(k):
            acc = acc + w[j] * v[k - j]
        w.append((u[k] - acc) / v[0])
    return w


def _exp(u: list) -> list:
    w = [_elementwise(math.exp, u[0])]
    for k in range(1, len(u)):
        acc = 0.0
        for j in range(1, k + 1):
            acc = acc + j * u[j] * w[k - j]
        w.append(acc / k)
    return w


def _log(u: list) -> list:
    if any_point(u[0] <= 0.0):
        raise JetDomainError(f"log of non-positive value {u[0]!r}")
    w = [_elementwise(math.log, u[0])]
    for k in range(1, len(u)):
        acc = 0.0
        for j in range(1, k):
            acc = acc + j * w[j] * u[k - j]
        w.append((u[k] - acc / k) / u[0])
    return w


def _sincos(u: list) -> tuple[list, list]:
    x = u[0].tolist() if isinstance(u[0], np.ndarray) else u[0]  # one list for both sweeps
    s = [_elementwise(math.sin, x)]
    c = [_elementwise(math.cos, x)]
    for k in range(1, len(u)):
        acc_s = acc_c = 0.0
        for j in range(1, k + 1):
            acc_s = acc_s + j * u[j] * c[k - j]
            acc_c = acc_c + j * u[j] * s[k - j]
        s.append(acc_s / k)
        c.append(-acc_c / k)
    return s, c


def _sqrt(u: list) -> list:
    if any_point(u[0] < 0.0):
        raise JetDomainError(f"sqrt of negative value {u[0]!r}")
    if len(u) > 1 and any_point(u[0] == 0.0):
        raise JetDomainError("derivative of sqrt at zero")
    # sqrt is correctly rounded (IEEE 754), so numpy's kernel gives libm's
    # bits; + 0.0 turns sqrt(-0.0) = -0.0 into 0.0
    w = [(np.sqrt(u[0]) if isinstance(u[0], np.ndarray) else math.sqrt(u[0])) + 0.0]
    for k in range(1, len(u)):
        acc = 0.0
        for j in range(1, k):
            acc = acc + w[j] * w[k - j]
        w.append((u[k] - acc) / (2.0 * w[0]))
    return w


def _atan(u: list) -> list:
    n = len(u)
    w = [_elementwise(math.atan, u[0])]
    if n == 1:
        return w
    # integrate w' = u' / (1 + u^2) term by term
    du = [(j + 1) * u[j + 1] for j in range(n - 1)]
    usq = _mul(u, u)[: n - 1]
    den = [1.0 + usq[0]] + usq[1:]
    q = _div(du, den)
    for k in range(1, n):
        w.append(q[k - 1] / k)
    return w


# -- elementary functions on jets -----------------------------------------

def sincos_series(j: Jet) -> tuple[list, list]:
    """The series of sin j and cos j from one recurrence, which sin, cos and
    tan of j share."""
    return _sincos(_taylor(j))


def sin(j: Jet, series: tuple[list, list]) -> Jet:
    return _wrap(j, series[0])


def cos(j: Jet, series: tuple[list, list]) -> Jet:
    return _wrap(j, series[1])


def tan(j: Jet, series: tuple[list, list]) -> Jet:
    s, c = series
    if any_point(c[0] == 0.0):
        raise JetDomainError("tan undefined where cos vanishes")
    return _wrap(j, _div(s, c))


def sincos(j: Jet) -> tuple[Jet, Jet]:
    series = sincos_series(j)  # one recurrence for both
    return sin(j, series), cos(j, series)


def atan(j: Jet) -> Jet:
    return _wrap(j, _atan(_taylor(j)))


def exp(j: Jet) -> Jet:
    return _wrap(j, _exp(_taylor(j)))


def log(j: Jet) -> Jet:
    return _wrap(j, _log(_taylor(j)))


def sqrt(j: Jet) -> Jet:
    return _wrap(j, _sqrt(_taylor(j)))


def absolute(j: Jet) -> Jet:
    # smooth germ away from zeros of the argument; no one-sided derivatives
    if j.order > 0 and any_point(j.value == 0.0):
        raise JetDomainError("derivative of abs at zero")
    negative = j.value < 0.0
    if isinstance(negative, np.ndarray):
        sign = np.where(negative, -1.0, 1.0)
    else:
        sign = -1.0 if negative else 1.0
    return Jet(j.center, (abs(j.value),) + tuple(sign * c for c in j.coeffs[1:]))


def powi(j: Jet, n: int) -> Jet:
    """Integer power by repeated multiplication (valid for any base).  Above
    _MAX_PRODUCTS, squarings first halve n, so the time grows with log n."""
    if n == 0:
        return Jet.constant(1.0, j.center, j.order)
    if n < 0:
        return Jet.constant(1.0, j.center, j.order) / powi(j, -n)
    odd = None  # the product of the odd factors split off by the squarings
    while n > _MAX_PRODUCTS:
        if n % 2:
            odd = j if odd is None else odd * j
        j, n = j * j, n // 2
    result = j
    for _ in range(n - 1):
        result = result * j
    return result if odd is None else odd * result


def powr(j: Jet, r: float) -> Jet:
    """Real power via exp(r * log(base)); requires a positive base."""
    if any_point(j.value <= 0.0):
        raise JetDomainError(f"real power of non-positive base {j.value!r}")
    return _wrap(j, _exp([r * a for a in _log(_taylor(j))]))


def differentiate(j: Jet) -> Jet:
    """Jet of f' from the jet of f (order drops by one)."""
    if j.order == 0:
        raise ValueError("cannot differentiate an order-0 jet")
    return Jet(j.center, j.coeffs[1:])


def truncate(j: Jet, order: int) -> Jet:
    if order > j.order:
        raise ValueError(f"cannot extend a jet of order {j.order} to {order}")
    return Jet(j.center, j.coeffs[: order + 1])
