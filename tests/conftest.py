import math

import pytest

from envlines import (
    build_family_clairaut,
    build_family_general,
    build_family_hedgehog,
    build_family_normalized,
    find_gauss_singular_points,
    parse_expression,
)
from envlines.analysis import scan_grid

P = parse_expression


@pytest.fixture(scope="session")
def sine_tangent():
    """Tangent lines of Y = sin X in general form; envelope is the sine curve."""
    return build_family_general(P("-cos t"), P("1"), P("t*cos t - sin t"), (-10.0, 10.0))


@pytest.fixture(scope="session")
def sine_evolute():
    """Normal lines of Y = sin X; creates no envelope."""
    return build_family_general(P("1"), P("cos t"), P("-t - cos t*sin t"), (-10.0, 10.0))


@pytest.fixture(scope="session")
def still_family():
    """theta = a = 0: one fixed line, any smooth b is a creator."""
    return build_family_normalized(P("0"), P("0"), (-1.0, 1.0))


@pytest.fixture(scope="session")
def parallel_shift():
    """theta = 0, a = t: translating parallel lines, never creative."""
    return build_family_normalized(P("0"), P("t"), (-1.0, 1.0))


@pytest.fixture(scope="session")
def rotating_pencil():
    """theta = t, a = 0: lines through the origin, non-singular Gauss map."""
    return build_family_normalized(P("t"), P("0"), (-1.0, 1.0))


@pytest.fixture(scope="session")
def quadratic_angle():
    """theta = t^2, a = 0: singular Gauss map at 0, still creative."""
    return build_family_normalized(P("t^2"), P("0"), (-1.0, 1.0))


@pytest.fixture(scope="session")
def clairaut_parabola():
    """Clairaut lines Y = t X + t^2; singular solution is Y = -X^2/4."""
    return build_family_clairaut(P("t^2"), (-2.0, 2.0))


@pytest.fixture(scope="session")
def unit_hedgehog():
    """Support function 1: envelope is the unit circle."""
    return build_family_hedgehog(P("1"), (0.0, 2.0 * math.pi))


def scan_and_singulars(family, grid_n):
    """The scan of ``family`` at grid_n and its singular points: the inputs of
    the creativity, creator and discriminant stages, staged as ``analyze``
    stages them."""
    scan = scan_grid(family, grid_n)
    return scan, find_gauss_singular_points(scan)


def sine_b_reference(t: float) -> float:
    # closed-form creator of the sine-tangent family
    return -(t + math.cos(t) * math.sin(t)) / math.sqrt(math.cos(t) ** 2 + 1.0)


def sine_theta_prime_reference(t: float) -> float:
    return -math.sin(t) / (math.cos(t) ** 2 + 1.0)


def sine_a_prime_reference(t: float) -> float:
    return math.sin(t) * (t + math.cos(t) * math.sin(t)) / (math.cos(t) ** 2 + 1.0) ** 1.5
