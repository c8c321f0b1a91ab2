"""Four-vector block parameterization of 4x4 complex matrices.

A 4x4 complex matrix is split into four 2x2 blocks, each written as
c0*I + v.sigma over the Pauli matrices, giving four complex 4-vectors
k, m, l, n (upper-left, lower-right, lower-left, upper-right).  The
package provides the parameterization itself, the matrix product expressed
directly on the parameters, a catalog of 39 degenerate families and 16
rank-3 variants closed under multiplication, a classifier and a randomized
verification suite, plus a CLI (``kmln``) wrapping all of it.
"""

from kmln.classify import ClassReport, classify
from kmln.core import (
    TOL_FLOOR,
    AssembleOverflowError,
    ComposeOverflowError,
    ParamSet,
    assemble,
    compose,
    det_block,
    disassemble,
    identity_params,
    is_real_conditions,
    numeric_rank,
    param_norm,
    random_params,
    random_real_params,
    zero_params,
)
from kmln.documents import (
    Document,
    DocumentError,
    format_document,
    parse_document,
)
from kmln.families import (
    FAMILIES,
    FAMILY_TAGS,
    GROUP_TAGS,
    RANK_TWO_TAGS,
    ClosureReport,
    ClosureViolation,
    Family,
    FamilyInstance,
    Membership,
    MissingConstantError,
    UnknownTagError,
    ZeroConstantError,
    closure_check,
    construct,
    descriptor,
    instance_params,
    membership,
    rank1_restrict,
    rank_profile,
    sample_constants,
    sample_instance,
)
from kmln.harness import Finding, FindingsReport, SuiteConfig, run_suite
from kmln.variants import (
    VARIANT_IDS,
    constraint_residual,
    construct_variant,
    matching_variants,
    parse_variant,
    sample_variant,
    variant_constraints,
    variant_membership,
    variant_name,
)

__version__ = "0.1.0"

__all__ = [
    "TOL_FLOOR",
    "AssembleOverflowError",
    "ComposeOverflowError",
    "ParamSet",
    "assemble",
    "compose",
    "det_block",
    "disassemble",
    "identity_params",
    "is_real_conditions",
    "numeric_rank",
    "param_norm",
    "random_params",
    "random_real_params",
    "zero_params",
    "Family",
    "FamilyInstance",
    "Membership",
    "ClosureReport",
    "ClosureViolation",
    "UnknownTagError",
    "MissingConstantError",
    "ZeroConstantError",
    "FAMILIES",
    "FAMILY_TAGS",
    "RANK_TWO_TAGS",
    "GROUP_TAGS",
    "descriptor",
    "construct",
    "membership",
    "sample_constants",
    "sample_instance",
    "instance_params",
    "rank1_restrict",
    "closure_check",
    "rank_profile",
    "VARIANT_IDS",
    "variant_name",
    "parse_variant",
    "variant_constraints",
    "constraint_residual",
    "construct_variant",
    "variant_membership",
    "matching_variants",
    "sample_variant",
    "ClassReport",
    "classify",
    "SuiteConfig",
    "Finding",
    "FindingsReport",
    "run_suite",
    "Document",
    "DocumentError",
    "parse_document",
    "format_document",
]
