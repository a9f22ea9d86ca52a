"""Exact K-theory computations for quantum projective spaces.

The package has two halves that meet in the test suite:

* a commutative side (``rings``, ``kclasses``, ``pairing``, ``corep``,
  ``basis``) computing in the truncated polynomial model of K-theory,
  with exact integer linear algebra for the basis certificates;
* a noncommutative side (``sphere``, ``ncparse``) normal-ordering words
  in the quantum sphere coordinate algebra over ``Z[q, q^-1]``.

Everything is exact; no floating point anywhere.

``import qcpn`` loads no submodule.  Each public name below loads the
module that defines it on first access (PEP 562), so a program, and each
CLI command, compiles and runs only the modules it uses: ``kbasis`` loads
``basis``, ``corep``, ``kclasses`` and ``rings``; ``nc`` commands load
``sphere`` and ``rings``, and ``nc reduce`` and ``nc degree`` ``ncparse``
as well.  ``from qcpn import *`` loads every module.
"""

from importlib import import_module

__version__ = "0.1.0"

_PUBLIC = {
    "rings": ("LaurentQ", "NotInvertibleError", "TruncatedPoly", "TruncationMismatchError"),
    "kclasses": ("KClass", "line_class", "restrict"),
    "pairing": ("index_pairing", "pairing_matrix", "pairing_vector"),
    "corep": (
        "associated_class",
        "fundamental_decomposition",
        "fundamental_weights",
        "satisfies_determinant_condition",
    ),
    "basis": (
        "BasisCertificate",
        "UnimodularityError",
        "basis_class",
        "basis_class_closed_form",
        "basis_matrix",
        "certify_basis",
        "nesting_check",
        "unimodular_inverse",
    ),
    "sphere": (
        "ALL_RULES",
        "Generator",
        "NCPoly",
        "ReductionReport",
        "StepBudgetExceeded",
        "defining_relations",
        "exhaustive_pair_check",
        "fuzz_confluence",
        "normal_form",
        "project_to_s3",
        "sphere_sum",
        "verify_defining_relations",
    ),
    "ncparse": ("NCSyntaxError", "parse_expr"),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_MODULE_OF) + ["__version__"]


def __getattr__(name: str):
    if name in _PUBLIC:  # ``qcpn.sphere`` without ``import qcpn.sphere``
        return import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(globals().keys() | _MODULE_OF.keys())
