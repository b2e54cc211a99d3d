"""Exact point counts and existence certificates for multigraded hypersurfaces.

Submodules
----------
* ``ff``      — finite fields GF(p^f) with canonical moduli and log tables
* ``fan``     — simplicial fans, Cox multigradings, exceptional sets
* ``poly``    — exact multivariate polynomials, gradings, parsing/printing
* ``quintic`` — quintic 3-folds with a triple line and their strict transforms
* ``count``   — exhaustive counting kernel and congruence checks
* ``chow``    — rational Chow-ring quotients and the existence certificate
* ``cli``     — the ``toricount`` command-line tool
* ``rng``     — deterministic seedable generator used for all randomness
"""

from .chow import (
    ChowRingSpec,
    TsenCertificate,
    hyperplane_class,
    is_zero,
    tsen_certificate,
)
from .count import (
    CongruenceReport,
    affine_count,
    check_ax,
    check_cw,
    check_esnault,
    exceptional_on_hypersurface,
    toric_count_orbits,
    toric_count_quotient,
)
from .fan import Fan, GradingData, Space, builtin, grading_from_fan, make_fan
from .ff import FieldElement, FieldSpec, make_field, parse_field_name, power_sum
from .poly import MultiPoly, ax_exponent, multidegree, parse, print_poly
from .quintic import QuinticInstance, random_instance, strict_transform

__version__ = "0.1.0"

__all__ = [
    "ChowRingSpec",
    "CongruenceReport",
    "Fan",
    "FieldElement",
    "FieldSpec",
    "GradingData",
    "MultiPoly",
    "QuinticInstance",
    "Space",
    "TsenCertificate",
    "affine_count",
    "ax_exponent",
    "builtin",
    "check_ax",
    "check_cw",
    "check_esnault",
    "exceptional_on_hypersurface",
    "grading_from_fan",
    "hyperplane_class",
    "is_zero",
    "make_fan",
    "make_field",
    "multidegree",
    "parse",
    "parse_field_name",
    "power_sum",
    "print_poly",
    "random_instance",
    "strict_transform",
    "toric_count_orbits",
    "toric_count_quotient",
    "tsen_certificate",
    "__version__",
]
