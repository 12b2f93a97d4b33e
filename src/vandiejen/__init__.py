"""Numerics for a two-parameter hyperbolic integrable many-body system:
Lax matrices, spectral duality, projection-method dynamics, factorized
scattering, Poisson-bracket certification, and matrix-flow eigenvalue
asymptotics.
"""
from .phase_space import Coupling, PhasePoint, PhaseSpaceError, VandiejenError, sample, validate
from .lax import LaxBundle, commutation_residual, f_vector, lax_matrix, trace_power_observable, u_coeff, z_coeff
from .duality import DualFrame, dual_frame, dual_lax, dual_z_closed_form, duality_map, minor_identity_residuals
from .dynamics import TrajectorySample, projection_flow, rk_flow, vector_field
from .scattering import AsymptoticData, ResidualTrace, asymptotic_data, delta_shift, residual_trace, scattering_map, wave_map
from .brackets import canonicity_suite, antisymplectic_check, flow_symplectic_check, poisson_bracket
from .asymptotics import FlowSpec, alpha_coeffs, flow_eigenvalues, m_coeffs, p_coeffs, sample_spec, verify_theorem_exponential, verify_theorem_linear

__version__ = "0.1.0"

__all__ = [
    "Coupling", "PhasePoint", "PhaseSpaceError", "VandiejenError", "sample", "validate",
    "LaxBundle", "commutation_residual", "f_vector", "lax_matrix",
    "trace_power_observable", "u_coeff", "z_coeff",
    "DualFrame", "dual_frame", "dual_lax", "dual_z_closed_form", "duality_map",
    "minor_identity_residuals",
    "TrajectorySample", "projection_flow", "rk_flow", "vector_field",
    "AsymptoticData", "ResidualTrace", "asymptotic_data", "delta_shift",
    "residual_trace", "scattering_map", "wave_map",
    "canonicity_suite", "antisymplectic_check", "flow_symplectic_check", "poisson_bracket",
    "FlowSpec", "alpha_coeffs", "flow_eigenvalues", "m_coeffs", "p_coeffs",
    "sample_spec", "verify_theorem_exponential", "verify_theorem_linear",
]
