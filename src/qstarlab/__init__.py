"""Numerical laboratory for extending *-representations of dense
*-algebras by closure: GNS construction, closable sesquilinear forms, and
operator-topology closures, exercised on function, matrix and CCR models
at truncation scale."""

from .algebra import (AlgebraElement, DimensionMismatchError, MissingUnitError,
                      NonPositiveStateError, StarAlgebra, State,
                      cyclic_group_algebra, evaluate_state, matrix_unit_algebra,
                      multiply, normalized_trace_state, scalar_algebra, star)
from .forms import (FormContext, ProbeFamily, b_shifted_form,
                    check_ips_conditions, check_lemma24, closability_probe,
                    form_from_state, star_form)
from .gns import GNSRep, build_gram, gns_construct, verify_gns
from .topologies import (BoundedSet, ExtensionResult, TruncatedOperator,
                         TruncatedTriple, closability_check, extend_by_closure,
                         quasi_algebra_closure_test, seminorm,
                         strongstar_hilbert_seminorm)

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement", "BoundedSet", "DimensionMismatchError", "ExtensionResult",
    "FormContext", "GNSRep", "MissingUnitError", "NonPositiveStateError",
    "ProbeFamily", "StarAlgebra", "State",
    "TruncatedOperator", "TruncatedTriple", "b_shifted_form", "build_gram",
    "check_ips_conditions", "check_lemma24", "closability_check",
    "closability_probe", "cyclic_group_algebra", "evaluate_state",
    "extend_by_closure", "form_from_state", "gns_construct",
    "matrix_unit_algebra", "multiply", "normalized_trace_state",
    "quasi_algebra_closure_test", "scalar_algebra", "seminorm", "star",
    "star_form", "strongstar_hilbert_seminorm", "verify_gns",
]
