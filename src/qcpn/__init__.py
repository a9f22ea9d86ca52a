"""Exact K-theory computations for quantum projective spaces.

The package has two halves that meet in the test suite:

* a commutative side (``rings``, ``kclasses``, ``pairing``, ``corep``,
  ``basis``) computing in the truncated polynomial model of K-theory,
  with exact integer linear algebra for the basis certificates;
* a noncommutative side (``sphere``, ``ncparse``) normal-ordering words
  in the quantum sphere coordinate algebra over ``Z[q, q^-1]``.

Everything is exact; no floating point anywhere.
"""

from .rings import (
    LaurentQ,
    NotInvertibleError,
    TruncatedPoly,
    TruncationMismatchError,
)
from .kclasses import KClass, euler_class, line_class, restrict
from .pairing import PairingVector, index_pairing, pairing_matrix, pairing_vector
from .corep import (
    WeightVector,
    associated_class,
    fundamental_decomposition,
    fundamental_weights,
    satisfies_determinant_condition,
)
from .basis import (
    BasisCertificate,
    UnimodularityError,
    basis_class,
    basis_class_closed_form,
    basis_matrix,
    certify_basis,
    expand_in_basis,
    nesting_check,
    unimodular_inverse,
)
from .sphere import (
    ALL_RULES,
    Generator,
    NCPoly,
    ReductionReport,
    StepBudgetExceeded,
    defining_relations,
    exhaustive_pair_check,
    fuzz_confluence,
    normal_form,
    project_to_s3,
    sphere_sum,
    verify_defining_relations,
)
from .ncparse import NCSyntaxError, parse_expr

__version__ = "0.1.0"

__all__ = [
    "ALL_RULES",
    "BasisCertificate",
    "Generator",
    "KClass",
    "LaurentQ",
    "NCPoly",
    "NCSyntaxError",
    "NotInvertibleError",
    "PairingVector",
    "ReductionReport",
    "StepBudgetExceeded",
    "TruncatedPoly",
    "TruncationMismatchError",
    "UnimodularityError",
    "WeightVector",
    "associated_class",
    "basis_class",
    "basis_class_closed_form",
    "basis_matrix",
    "certify_basis",
    "defining_relations",
    "euler_class",
    "exhaustive_pair_check",
    "expand_in_basis",
    "fundamental_decomposition",
    "fundamental_weights",
    "fuzz_confluence",
    "index_pairing",
    "line_class",
    "nesting_check",
    "normal_form",
    "pairing_matrix",
    "pairing_vector",
    "parse_expr",
    "project_to_s3",
    "restrict",
    "satisfies_determinant_condition",
    "sphere_sum",
    "unimodular_inverse",
    "verify_defining_relations",
    "__version__",
]
