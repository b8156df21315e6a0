"""Random polynomial/trigonometric expression sources for oracle tests.

Shapes are kept gentle on purpose (degree <= 6, linear trig arguments,
coefficients <= 2) so that the finite-difference oracle's truncation error
stays far inside the comparison tolerance.
"""

import random


def gentle_factor(rng: random.Random) -> str:
    def coeff() -> str:
        return format(rng.uniform(0.2, 2.0), ".3f")

    kind = rng.randrange(5)
    if kind == 0:
        return f"{coeff()}*t^{rng.choice((2, 3))}"
    if kind == 1:
        return f"sin({coeff()}*t)"
    if kind == 2:
        return f"cos({coeff()}*t)"
    if kind == 3:
        return f"({coeff()} + {coeff()}*t)^{rng.choice((2, 3))}"
    return f"{coeff()}*t"


def gentle_expression(rng: random.Random) -> str:
    def term() -> str:
        if rng.random() < 0.4:
            return gentle_factor(rng) + "*" + gentle_factor(rng)
        return gentle_factor(rng)

    parts = [term() for _ in range(rng.randrange(1, 4))]
    source = parts[0]
    for part in parts[1:]:
        source += rng.choice((" + ", " - ")) + part
    return source
