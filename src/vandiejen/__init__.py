"""Numerics for a two-parameter hyperbolic integrable many-body system:
Lax matrices, spectral duality, projection-method dynamics, factorized
scattering, Poisson-bracket certification, and matrix-flow eigenvalue
asymptotics.
"""
from .phase_space import Coupling, PhasePoint, PhaseSpaceError, VandiejenError, sample
from .lax import LaxBundle, lax_matrix
from .duality import DualFrame, dual_frame, minor_identity_residuals
from .dynamics import TrajectorySample, projection_flow, rk_flow, vector_field
from .scattering import AsymptoticData, asymptotic_data, scattering_map
from .brackets import poisson_brackets, symplectic_residuals
from .asymptotics import FlowSpec, alpha_coeffs, flow_eigenvalues, p_coeffs, sample_spec, verify_theorem_exponential, verify_theorem_linear

__version__ = "0.1.0"

__all__ = [
    "Coupling", "PhasePoint", "PhaseSpaceError", "VandiejenError", "sample",
    "LaxBundle", "lax_matrix",
    "DualFrame", "dual_frame", "minor_identity_residuals",
    "TrajectorySample", "projection_flow", "rk_flow", "vector_field",
    "AsymptoticData", "asymptotic_data", "scattering_map",
    "poisson_brackets", "symplectic_residuals",
    "FlowSpec", "alpha_coeffs", "flow_eigenvalues", "p_coeffs",
    "sample_spec", "verify_theorem_exponential", "verify_theorem_linear",
]
