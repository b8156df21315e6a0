"""The benchmark workloads: fixed closed-form families, no random input.

Each operation is the argv a user would type after ``envlines``, the exit
code it must end with, and the check its standard output must pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import checks

DEFAULT_GRID_N = 1001  # the CLI default; run.py clears ENVELOPE_GRID_N
SINE_TANGENT = ["--A", "-cos t", "--B", "1", "--C", "t*cos t - sin t"]
SINE_EVOLUTE = ["--A", "1", "--B", "cos t", "--C", "-t - cos t*sin t"]
DEFAULT_DOMAIN = (-10.0, 10.0)


@dataclass(frozen=True)
class Operation:
    argv: tuple[str, ...]
    exit_code: int
    check: Callable[[str, object], list[str]]  # (stdout, schema validator) -> problems

    @property
    def grid_n(self) -> int:
        if "--grid-n" in self.argv:
            return int(self.argv[self.argv.index("--grid-n") + 1])
        return DEFAULT_GRID_N


def _analyze(argv: list[str], case: checks.AnalyzeCase) -> Operation:
    return Operation(("analyze", *argv), case.exit_code,
                     lambda text, validator: checks.check_analyze(text, case, validator))


def _worked_examples() -> list[Operation]:
    ops = [_analyze(["--example", str(k)], case) for k, case in checks.EXAMPLES.items()]
    ops += [
        Operation(("envelope", *SINE_TANGENT, "--format", "csv"), 0,
                  lambda text, _: checks.check_envelope_csv(text, DEFAULT_DOMAIN,
                                                            DEFAULT_GRID_N)),
        Operation(("discriminant", *SINE_TANGENT, "--format", "csv"), 0,
                  lambda text, _: checks.check_discriminant_csv(text, DEFAULT_DOMAIN)),
        Operation(("compare", *SINE_TANGENT), 0,
                  lambda text, _: checks.check_compare(text, DEFAULT_DOMAIN)),
        Operation(("plot", *SINE_TANGENT), 0, lambda text, _: checks.check_svg(text)),
    ]
    return ops


WORKLOADS: dict[str, list[Operation]] = {
    "worked-examples": _worked_examples(),
    "sine-tangent-fine": [
        _analyze(["--example", "1", "--grid-n", "10001"], checks.EXAMPLES[1]),
    ],
    "sine-evolute-wide": [
        _analyze([*SINE_EVOLUTE, "--domain", "-1000:1000", "--grid-n", "10001"],
                 checks.EXAMPLES[6]),
    ],
}
