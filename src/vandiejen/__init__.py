"""Numerics for a two-parameter hyperbolic integrable many-body system:
Lax matrices, spectral duality, projection-method dynamics, factorized
scattering, Poisson-bracket certification, and matrix-flow eigenvalue
asymptotics.

The namespace is lazy (PEP 562): each name of ``__all__`` is looked up in its
defining submodule at each access, and the first access imports that
submodule.  So ``import vandiejen.cli`` compiles and runs only the modules the
command it runs needs, and ``vandiejen.sample is vandiejen.phase_space.sample``.
"""
import importlib as _importlib

__version__ = "0.1.0"

# each exported name's defining submodule
_SOURCES = {
    "phase_space": ("Coupling", "PhasePoint", "PhaseSpaceError", "VandiejenError", "sample"),
    "lax": ("LaxBundle", "lax_matrix"),
    "duality": ("DualFrame", "dual_frame", "minor_identity_residuals"),
    "dynamics": ("projection_flow", "rk_flow", "vector_field"),
    "scattering": ("AsymptoticData", "asymptotic_data", "scattering_map"),
    "brackets": ("poisson_brackets", "symplectic_residuals"),
    "asymptotics": (
        "FlowSpec", "alpha_coeffs", "exponential_summary", "flow_eigenvalues", "gamma_coeffs",
        "linear_summary", "sample_spec",
    ),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
