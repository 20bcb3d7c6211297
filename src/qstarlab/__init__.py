"""Numerical laboratory for extending *-representations of dense
*-algebras by closure: GNS construction, closable sesquilinear forms, and
operator-topology closures, exercised on function, matrix and CCR models
at truncation scale."""

from .algebra import (DimensionMismatchError, MissingUnitError,
                      NonPositiveStateError, StarAlgebra, State,
                      cyclic_group_algebra, evaluate_state, matrix_unit_algebra,
                      multiply, normalized_trace_state, scalar_algebra, star)
from .forms import (FormContext, ProbeFamily, ScaledFamily, b_shifted_form,
                    check_ips_conditions, check_lemma24, closability_probe,
                    form_from_state, star_form)
from .gns import GNSRep, gns_construct, verify_gns
from .topologies import (BoundedSet, ExtensionResult, Suite,
                         TruncatedOperator, closability_check,
                         extend_by_closure, quasi_algebra_closure_test,
                         seminorm)

__version__ = "0.1.0"

__all__ = [
    "BoundedSet", "DimensionMismatchError", "ExtensionResult",
    "FormContext", "GNSRep", "MissingUnitError", "NonPositiveStateError",
    "ProbeFamily", "ScaledFamily", "StarAlgebra", "State", "Suite",
    "TruncatedOperator", "b_shifted_form", "check_ips_conditions", "check_lemma24", "closability_check",
    "closability_probe", "cyclic_group_algebra", "evaluate_state",
    "extend_by_closure", "form_from_state", "gns_construct",
    "matrix_unit_algebra", "multiply", "normalized_trace_state",
    "quasi_algebra_closure_test", "scalar_algebra", "seminorm", "star",
    "star_form", "verify_gns",
]
