"""Lax-matrix data built at a phase point: coefficients z/u, vector F, matrix L, energy.

The matrix is assembled verbatim from its entrywise definition; Hermiticity,
unit determinant, positive definiteness, and the commutation relation are then
independent cross-checks of correctness rather than imposed structure.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .phase_space import Coupling, PhasePoint, PhaseSpaceError, VandiejenError, require_valid

COORD_CAP = 300.0
DEGENERACY_TOL = 1e-12


class LaxError(VandiejenError):
    pass


def _check_inputs(p: PhasePoint, g: Coupling):
    require_valid(p)
    if not g.in_base_class():
        raise PhaseSpaceError(
            f"coupling (mu={g.mu}, nu={g.nu}) outside the base class (sin too small)"
        )
    if np.abs(p.xi).max() > COORD_CAP or np.abs(p.eta).max() > COORD_CAP:
        raise LaxError(f"coordinates exceed the overflow cap {COORD_CAP}")


def conjugation_matrix(n: int) -> np.ndarray:
    """The symmetric block matrix C = [[0, I], [I, 0]] of size 2n."""
    c = np.zeros((2 * n, 2 * n))
    c[:n, n:] = np.eye(n)
    c[n:, :n] = np.eye(n)
    return c


def z_coeff(p: PhasePoint, g: Coupling, a: int) -> complex:
    """Coefficient z_a: the signed hyperbolic product over all pairings with a."""
    _check_inputs(p, g)
    if not 0 <= a < p.n:
        raise LaxError(f"index {a} out of range for n={p.n}")
    return complex(_kernels.z_coeffs(p.xi, g.mu, g.nu)[a])


def u_coeff(p: PhasePoint, g: Coupling, a: int) -> float:
    """Coefficient u_a via the square-root product form (equals |z_a|)."""
    _check_inputs(p, g)
    if not 0 <= a < p.n:
        raise LaxError(f"index {a} out of range for n={p.n}")
    return float(_kernels.u_coeffs(p.xi, g.mu, g.nu)[a])


def _energy(eta: np.ndarray, u: np.ndarray) -> float:
    return float(np.cosh(eta) @ u)


def energy(p: PhasePoint, g: Coupling) -> float:
    """The Hamiltonian H = sum_a cosh(eta_a) u_a."""
    return _energy(p.eta, _kernels.u_coeffs(p.xi, g.mu, g.nu))


def _f_vector(eta: np.ndarray, z: np.ndarray, u: np.ndarray) -> np.ndarray:
    top = np.exp(eta / 2.0) * np.sqrt(u)
    bot = np.exp(-eta / 2.0) * z.conj() / np.sqrt(u)
    return np.concatenate([top.astype(complex), bot])


def f_vector(p: PhasePoint, g: Coupling) -> np.ndarray:
    """Column vector F: F_a = e^{eta_a/2} u_a^{1/2}, F_{n+a} = e^{-eta_a/2} conj(z_a) u_a^{-1/2}."""
    _check_inputs(p, g)
    z = _kernels.z_coeffs(p.xi, g.mu, g.nu)
    return _f_vector(p.eta, z, _kernels.u_coeffs(p.xi, g.mu, g.nu))


@dataclass(frozen=True)
class LaxBundle:
    """All algebraic data at (p, g): coefficients, F, Lambda, C, L, and the energy."""

    point: PhasePoint
    coupling: Coupling
    z: np.ndarray  # complex, length n
    u: np.ndarray  # real, length n
    f: np.ndarray  # complex, length 2n
    lam: np.ndarray  # real, length 2n: (xi, -xi)
    c: np.ndarray  # real 2n x 2n
    matrix: np.ndarray  # complex 2n x 2n, Hermitian positive definite
    energy: float

    @property
    def n(self) -> int:
        return self.point.n


def lax_matrix(p: PhasePoint, g: Coupling) -> LaxBundle:
    """Assemble the full bundle; errors out on near-degenerate denominators.
    The one builder of a point's Lax data: z and u once, F and the energy from them."""
    _check_inputs(p, g)
    g.require_regular()
    z = _kernels.z_coeffs(p.xi, g.mu, g.nu)
    u = _kernels.u_coeffs(p.xi, g.mu, g.nu)
    f = _f_vector(p.eta, z, u)
    lam = np.concatenate([p.xi, -p.xi])
    den = _kernels.lax_denominators(lam, g.mu)
    if np.abs(den).min() < DEGENERACY_TOL:
        raise LaxError("near-degenerate Lax denominator: positions collide modulo mu")
    c = conjugation_matrix(p.n)
    return LaxBundle(
        point=p, coupling=g, z=z, u=u, f=f, lam=lam,
        c=c, matrix=_kernels.lax_entries(f, den, c, g.mu, g.nu), energy=_energy(p.eta, u),
    )


def commutation_residual(bundle: LaxBundle) -> float:
    """Max-entry modulus of the defining exchange relation for L.

    e^{i mu} e^{Lam} L e^{-Lam} - e^{-i mu} e^{-Lam} L e^{Lam}
        = 2i sin(mu) F F* + 2i sin(mu - nu) C
    """
    mu = bundle.coupling.mu
    nu = bundle.coupling.nu
    el = np.exp(bundle.lam)
    lhs = (
        np.exp(1j * mu) * (el[:, None] * bundle.matrix / el[None, :])
        - np.exp(-1j * mu) * (bundle.matrix * el[None, :] / el[:, None])
    )
    rhs = 2j * np.sin(mu) * np.outer(bundle.f, bundle.f.conj()) + 2j * np.sin(mu - nu) * bundle.c
    return float(np.abs(lhs - rhs).max())


def structure_residuals(p: PhasePoint, g: Coupling) -> dict:
    """Structure residuals of L at p: Hermiticity and the commutation relation
    relative to max|L|, |det L - 1|, the smallest eigenvalue (positive
    definiteness), the reciprocal pairing w_j w_{2n+1-j} = 1 of the spectrum,
    and tr L against twice the energy."""
    b = lax_matrix(p, g)
    m = b.matrix
    scale = np.abs(m).max()
    w = np.linalg.eigvalsh(m)
    return {
        "hermiticity": float(np.abs(m - m.conj().T).max() / scale),
        "det_minus_one": float(abs(np.linalg.det(m) - 1.0)),
        "min_eigenvalue": float(w.min()),
        "pairing": float(np.abs(w * w[::-1] - 1.0).max()),
        "trace_minus_2h": float(abs(np.trace(m).real - 2 * b.energy) / abs(2 * b.energy)),
        "commutation": float(commutation_residual(b) / scale),
    }


def trace_power_observable(bundle: LaxBundle, k: int) -> float:
    """tr(L^k), real for Hermitian L; a conserved quantity of the flow."""
    if k < 1:
        raise LaxError("k must be >= 1")
    val = np.trace(np.linalg.matrix_power(bundle.matrix, k))
    return float(val.real)
