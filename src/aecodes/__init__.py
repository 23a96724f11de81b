"""Construction and exact verification of absorption-emission quantum codes."""

from .exactnum import RadicalSum, SqrtRational
from .combinatorics import (
    binom,
    check_corollary_B3,
    check_identity_B2,
    check_lemma_B1,
    check_lemma_B4,
    f_coeff,
)
from .angular import HalfInt, cg_transition, clebsch_gordan_t, wigner_D
from .codes import (
    CodeBasis,
    CodeKind,
    GmdeParams,
    construct_ae_gmde,
    construct_pi_gmde,
    fixtures,
    map_e,
    map_f,
    map_h,
)
from .errors import ErrorOp, ErrorSet, build_ae_error_set, build_spin_error_set
from .klverify import (
    ConditionReport,
    KLReport,
    check_conditions,
    check_kl_correct,
    check_kl_detect,
    cross_validate,
)
from .search import SearchResult, SearchSpec, enumerate_and_search, solve_staggered
from .covariance import (
    CovarianceReport,
    GroupSpec,
    binary_dihedral_group,
    binary_icosahedral_group,
    binary_octahedral_group,
    check_covariance,
    logical_action,
)

__version__ = "0.1.0"

__all__ = [
    "RadicalSum",
    "SqrtRational",
    "binom",
    "check_corollary_B3",
    "check_identity_B2",
    "check_lemma_B1",
    "check_lemma_B4",
    "f_coeff",
    "HalfInt",
    "cg_transition",
    "clebsch_gordan_t",
    "wigner_D",
    "CodeBasis",
    "CodeKind",
    "GmdeParams",
    "construct_ae_gmde",
    "construct_pi_gmde",
    "fixtures",
    "map_e",
    "map_f",
    "map_h",
    "ErrorOp",
    "ErrorSet",
    "build_ae_error_set",
    "build_spin_error_set",
    "ConditionReport",
    "KLReport",
    "check_conditions",
    "check_kl_correct",
    "check_kl_detect",
    "cross_validate",
    "SearchResult",
    "SearchSpec",
    "enumerate_and_search",
    "solve_staggered",
    "CovarianceReport",
    "GroupSpec",
    "binary_dihedral_group",
    "binary_icosahedral_group",
    "binary_octahedral_group",
    "check_covariance",
    "logical_action",
]
