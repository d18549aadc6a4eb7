"""Synthesis of logical Clifford operators on stabilizer codes.

Logical action is specified as images of the code's stabilizer generators and
logical Paulis; solutions are found as binary symplectic matrices, factored
into elementary symplectic transformations, and emitted as H/P/CZ/CNOT
circuits with an exact Pauli sign correction.
"""

from __future__ import annotations

from .circuit import (Circuit, Gate, circuit, depth, gate, parse,
                      save_circuit_text, serialize)
from .codes import (CssSpec, StabilizerCode, css_build, derive_logical_z,
                    load_code, logical_x_gamma, logical_z_gamma, make_code,
                    save_code, stab_gamma, validate_code)
from .decompose import (ElementaryFactor, decompose, expand, f_aq, f_gk,
                        f_omega, f_tr, factor_to_gates, factors_to_circuit)
from .gf2core import (InfeasibleError, ParseError, SingularMatrixError,
                      asbits, gram, invert, is_symplectic, load_matrix_text,
                      lu_decompose, mul, nullspace, omega, rank, rref,
                      save_matrix_text, solve_linear, sp_group_order,
                      symplectic_gram_schmidt, symplectic_inner)
from .pauli import (PauliOperator, commutes, dense, from_gamma, from_label,
                    gamma, identity, multiply, pauli_d, pauli_e, to_label)
from .sympsolve import (SymplecticSystem, enumerate_all, find_symplectic,
                        iter_all, map_vector, transvection_matrix)
from .synth import (CliffordSpec, SynthesisResult, build_system, fix_signs,
                    load_spec, normalizer_to_centralizer, realize, save_spec,
                    solution_count, synthesize)
from .verify import (ConjugationReport, ReportRow, conjugate, conjugate_many,
                     dense_unitary, expected_images, induced_symplectic,
                     prepare_css_state, verify_solution)

__version__ = "0.1.0"

__all__ = [
    "Circuit", "Gate", "circuit", "depth", "gate", "parse",
    "save_circuit_text", "serialize",
    "CssSpec", "StabilizerCode", "css_build", "derive_logical_z", "load_code",
    "logical_x_gamma", "logical_z_gamma", "make_code", "save_code",
    "stab_gamma", "validate_code",
    "ElementaryFactor", "decompose", "expand", "f_aq", "f_gk", "f_omega",
    "f_tr", "factor_to_gates", "factors_to_circuit",
    "InfeasibleError", "ParseError", "SingularMatrixError", "asbits",
    "gram", "invert", "is_symplectic", "load_matrix_text", "lu_decompose",
    "mul", "nullspace", "omega", "rank", "rref", "save_matrix_text",
    "solve_linear", "sp_group_order",
    "symplectic_gram_schmidt", "symplectic_inner",
    "PauliOperator", "commutes", "dense", "from_gamma", "from_label", "gamma",
    "identity", "multiply", "pauli_d", "pauli_e", "to_label",
    "SymplecticSystem", "enumerate_all", "find_symplectic", "iter_all",
    "map_vector", "transvection_matrix",
    "CliffordSpec", "SynthesisResult", "build_system", "fix_signs",
    "load_spec", "normalizer_to_centralizer", "realize", "save_spec",
    "solution_count", "synthesize",
    "ConjugationReport", "ReportRow", "conjugate", "conjugate_many",
    "dense_unitary", "expected_images", "induced_symplectic",
    "prepare_css_state", "verify_solution",
    "__version__",
]
