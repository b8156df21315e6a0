"""Envelopes of straight line families in the plane.

Decide whether a one-parameter family of lines X cos(theta(t)) +
Y sin(theta(t)) = a(t) creates an envelope, construct the creator function
b with a' = b theta', parametrize the envelope exactly as
a nu + b J nu, and contrast the result with the classical discriminant
method (solve G = dG/dt = 0), which gains whole spurious lines wherever
the Gauss map t -> nu(t) is singular.  ``analyze`` runs that chain.
"""

__version__ = "0.1.0"

from dataclasses import dataclass as _dataclass, replace as _replace
from types import ModuleType as _ModuleType

import numpy as np

from . import analysis, discriminant
from .analysis import (
    CREATIVE,
    INCONCLUSIVE,
    NON_UNIQUE,
    NOT_CREATIVE,
    UNIQUE,
    CreativityReport,
    CreatorFunction,
    InvalidCreatorError,
    SingularPoint,
    UndefinedCreatorError,
    UniquenessVerdict,
    assess_creativity,
    assess_uniqueness,
    build_creator,
    find_gauss_singular_points,
    scan_grid,
)
from .discriminant import (
    ComparisonReport,
    DiscriminantSet,
    SliceSolution,
    compare_methods,
    sample_discriminant,
)
from .envelope import (
    EnvelopeCurve,
    EnvelopePoint,
    TooFewSamplesError,
    VerificationReport,
    envelope_point,
    sample_envelope,
    verify_envelope,
)
from .expr import (
    ExpressionDomainError,
    ParseError,
    UnknownIdentifierError,
    evaluate,
    evaluate_jet,
    fd_derivative,
    parse_expression,
    unparse,
)
from .family import (
    DegenerateFamilyError,
    GaussDerivativeSample,
    LineCoefficients,
    LineFamily,
    OutOfDomainError,
    build_family_clairaut,
    build_family_general,
    build_family_hedgehog,
    build_family_normalized,
    gauss_sample,
    line_at,
)
from .jets import Jet, JetDomainError

# verification differentiates by finite differences; it samples four times
# the analysis grid, never coarser than at the default grid, so that the h^2
# truncation error sits inside the tangency band
_VERIFY_FLOOR_N = 1001


@_dataclass(frozen=True, eq=False)
class Analysis:
    """Everything one run concluded, built from one scan of the analysis grid;
    the document, the CSV and JSON exports and the figure are views of it.
    A creative run whose envelope fails verification is ``inconclusive``; it
    keeps its creator, envelope and failed check as evidence, unless the
    creator has no value somewhere on the verification grid."""

    family: LineFamily
    scan: analysis.GridScan
    singulars: tuple[SingularPoint, ...]
    creativity: CreativityReport
    uniqueness: UniquenessVerdict
    creator: CreatorFunction | None
    envelope: EnvelopeCurve | None
    verification: dict | None
    discriminant: DiscriminantSet
    comparison: dict | None

    def slice_at(self, t: float) -> SliceSolution:
        """The t-slice of the discriminant set, classified with the run's scales."""
        self.family.require_in_domain(t)
        ts = np.array([float(t)])
        return discriminant._classify(ts, *analysis.first_order(self.family, ts),
                                      self.scan.scale_theta, self.scan.scale_a).slices[0]


def analyze(family: LineFamily, grid_n: int, user_b: str | None = None) -> Analysis:
    """Decide creativity and uniqueness of ``family`` on its grid_n-point grid,
    build the creator (``user_b``, parsed only for a creative family, when
    given), sample and verify the envelope, and compare it with the
    discriminant.  A failed verification makes the verdict inconclusive."""
    scan = scan_grid(family, grid_n)
    singulars = find_gauss_singular_points(scan)
    report = assess_creativity(scan, singulars)
    result = Analysis(family, scan, singulars, report, assess_uniqueness(scan),
                      None, None, None, sample_discriminant(scan, singulars), None)
    if report.verdict != CREATIVE:
        return result
    creator = build_creator(scan, report, parse_expression(user_b) if user_b else None)
    curve = sample_envelope(family, creator, grid_n, scan)
    fine_n = 4 * (max(grid_n, _VERIFY_FLOOR_N) - 1) + 1
    try:
        check = verify_envelope(sample_envelope(family, creator, fine_n))
    except UndefinedCreatorError as err:  # at a stall of the Gauss map the grid missed
        return _replace(result, creativity=analysis.mark_unverified(
            report, f"envelope verification failed at n = {fine_n}: {err}"))
    result = _replace(result, creator=creator, envelope=curve, verification={
        "n": fine_n,
        "max_membership_residual": check.max_membership_residual,
        "max_tangency_residual": check.max_tangency_residual,
        "pass": check.passed,
    })
    if not check.passed:
        return _replace(result, creativity=analysis.mark_unverified(
            report, f"envelope verification failed at n = {fine_n}: {check.failure}"))
    comparison = compare_methods(creator, result.discriminant, curve)
    return _replace(result, comparison={
        "widespread_ok": comparison.widespread_ok,
        "failure_ts": list(comparison.failure_ts),
        "narrative": comparison.narrative,
    })


# the public API is every name imported or defined above
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
