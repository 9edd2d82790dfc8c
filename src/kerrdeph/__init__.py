"""Dephasing channel of a Kerr-type oscillator: kernels, Kraus forms,
a brute-force dilation oracle, and quantum-capacity optimization.

The channel suppresses Fock off-diagonals through an analytic kernel
K_{n,m}; everything closed-form here is cross-checked against direct
matrix-exponential evolution of the system-environment dilation.
"""

from .algebra import (ChannelParams, TruncatedOperator, build_annihilator,
                      build_creator, build_k0, deformation_factor,
                      hamiltonian_identity_residual, max_dimension)
from .capacity import (CapacityResult, CapacityRow, EnergyConstraint,
                       capacity_sweep, coherent_information, energy,
                       exhaustive_capacity, fock_menu, optimize_capacity,
                       shannon_entropy, two_level_eigenvalues,
                       von_neumann_entropy, write_capacity_csv)
from .channel import (DensityMatrix, KrausSet, apply, coherent_input_output,
                      complementary_apply, complementary_spectrum,
                      gaussian_decomposition, kraus_set,
                      phase_covariance_residual,
                      verify_gaussian_decomposition)
from .errors import (ConvergenceError, DimensionError, DivergenceError,
                     DomainError, InvalidStateError, SingularityError,
                     TruncationError)
from .kernel import (CoherentVector, KernelMatrix, amplitude_table,
                     coherent_vector, kernel_entry, kernel_map, kernel_matrix,
                     mu, overlap_closed_form, overlap_series, tau,
                     write_kernel_map_csv)
from .oracle import (EvolveResult, OracleKernelValue, UnitaryDilation,
                     build_unitary, displacement_apply, evolve_and_trace,
                     evolve_and_trace_system, kernel_oracle,
                     kernel_oracle_table)
from .validate import ValidationReport, run_validation

__version__ = "0.1.0"

__all__ = [
    "ChannelParams", "TruncatedOperator", "build_annihilator", "build_creator",
    "build_k0", "deformation_factor", "hamiltonian_identity_residual",
    "max_dimension",
    "CapacityResult", "CapacityRow", "EnergyConstraint", "capacity_sweep",
    "coherent_information", "energy", "exhaustive_capacity", "fock_menu",
    "optimize_capacity", "shannon_entropy", "two_level_eigenvalues",
    "von_neumann_entropy", "write_capacity_csv",
    "DensityMatrix", "KrausSet", "apply", "coherent_input_output",
    "complementary_apply", "complementary_spectrum", "gaussian_decomposition",
    "kraus_set", "phase_covariance_residual", "verify_gaussian_decomposition",
    "ConvergenceError", "DimensionError", "DivergenceError", "DomainError",
    "InvalidStateError", "SingularityError", "TruncationError",
    "CoherentVector", "KernelMatrix", "amplitude_table", "coherent_vector",
    "kernel_entry", "kernel_map", "kernel_matrix", "mu", "overlap_closed_form",
    "overlap_series", "tau", "write_kernel_map_csv",
    "EvolveResult", "OracleKernelValue", "UnitaryDilation", "build_unitary",
    "displacement_apply", "evolve_and_trace", "evolve_and_trace_system",
    "kernel_oracle", "kernel_oracle_table",
    "ValidationReport", "run_validation",
]
