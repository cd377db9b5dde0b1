"""Exact compilation of continuous-variable quadrature-monomial gates.

Compiles e^{itH}, with H a product of position/momentum powers, into the
universal set {Fourier, e^{itX}, e^{itX²}, e^{itX³}, e^{iτX_jX_k}} through
exact operator identities, plus symbolic/numeric verifiers and Trotter and
group-commutator baselines for comparison.
"""

from .algebra import (Basis, NOPoly, NonTerminatingSeries, adjoint_series,
                      commutator, max_coeff_diff, poly_mul)
from .baseline import (commutator_approx, commutator_repeats,
                       estimate_commutator_count, target_from_poly,
                       trotter_suzuki)
from .circuit import Gate, GateSeq, heisenberg_conjugate
from .circuit_tools import (DecompReport, SchemaViolation, count_gates,
                            deserialize, optimize, serialize, serialize_json)
from .decompose import (EligibilityVerdict, Ineligible, TargetGate,
                        check_eligibility, compile, solve_pascal_coeffs)
from .verify import (DimensionTooLarge, FockContext, fock_matrices,
                     heisenberg_action, verify_numeric, verify_symbolic)

__version__ = "0.1.0"

__all__ = [
    "Basis", "NOPoly", "NonTerminatingSeries", "adjoint_series",
    "commutator", "max_coeff_diff", "poly_mul",
    "commutator_approx", "commutator_repeats", "estimate_commutator_count",
    "target_from_poly", "trotter_suzuki",
    "Gate", "GateSeq", "heisenberg_conjugate",
    "DecompReport", "SchemaViolation", "count_gates", "deserialize",
    "optimize", "serialize", "serialize_json",
    "EligibilityVerdict", "Ineligible", "TargetGate", "check_eligibility",
    "compile", "solve_pascal_coeffs",
    "DimensionTooLarge", "FockContext", "fock_matrices", "heisenberg_action",
    "verify_numeric", "verify_symbolic",
]
