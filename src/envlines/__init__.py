"""Envelopes of straight line families in the plane.

Decide whether a one-parameter family of lines X cos(theta(t)) +
Y sin(theta(t)) = a(t) creates an envelope, construct the creator function
b with a' = b theta', parametrize the envelope exactly as
a nu + b J nu, and contrast the result with the classical discriminant
method (solve G = dG/dt = 0), which gains whole spurious lines wherever
the Gauss map t -> nu(t) is singular.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

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
    creator_at,
    find_gauss_singular_points,
)
from .discriminant import (
    ComparisonReport,
    DiscriminantSet,
    SliceSolution,
    compare_methods,
    discriminant_at,
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

# the public API is every name imported above
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
