"""Lax-matrix data built at a phase point: coefficients z/u, vector F, matrix L, energy.

The matrix is assembled verbatim from its entrywise definition; Hermiticity,
unit determinant, positive definiteness, and the commutation relation are then
independent cross-checks of correctness rather than imposed structure.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _kernels
from .phase_space import Coupling, PhasePoint, PhaseSpaceError, VandiejenError, require_valid_stack

COORD_CAP = 300.0
DEGENERACY_TOL = 1e-12


class LaxError(VandiejenError):
    pass


def _check_inputs(xi: np.ndarray, eta: np.ndarray, g: Coupling):
    require_valid_stack(xi)
    if not g.in_base_class():
        raise PhaseSpaceError(
            f"coupling (mu={g.mu}, nu={g.nu}) outside the base class (sin too small)"
        )
    if np.abs(xi).max() > COORD_CAP or np.abs(eta).max() > COORD_CAP:
        raise LaxError(f"coordinates exceed the overflow cap {COORD_CAP}")


@lru_cache(maxsize=64)
def conjugation_matrix(n: int) -> np.ndarray:
    """The symmetric block matrix C = [[0, I], [I, 0]] of size 2n, read-only."""
    c = np.zeros((2 * n, 2 * n))
    c[:n, n:] = np.eye(n)
    c[n:, :n] = np.eye(n)
    c.flags.writeable = False
    return c


def _energy(eta: np.ndarray, u: np.ndarray) -> float:
    return float(np.cosh(eta) @ u)


def energy(p: PhasePoint, g: Coupling) -> float:
    """The Hamiltonian H = sum_a cosh(eta_a) u_a."""
    return _energy(p.eta, _kernels.u_coeffs(p.xi, g.mu, g.nu))


def _f_vector(eta: np.ndarray, z: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Column vector F: F_a = e^{eta_a/2} u_a^{1/2}, F_{n+a} = e^{-eta_a/2} conj(z_a) u_a^{-1/2}."""
    top = np.exp(eta / 2.0) * np.sqrt(u)
    bot = np.exp(-eta / 2.0) * z.conj() / np.sqrt(u)
    return np.concatenate([top.astype(complex), bot], axis=-1)


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


def lax_stack(xi: np.ndarray, eta: np.ndarray, g: Coupling):
    """(z, u, f, lam, L) over a stack of points, xi and eta of shape (..., n),
    each with the leading axes of the stack; a single point is the stack with
    no leading axis.  The one assembly of the Lax data: z and u once, F from
    them.  Each check runs over the whole stack and raises the error of its
    first failing point, in stack order: the chamber, the coupling, the
    coordinate cap, then near-degenerate denominators."""
    _check_inputs(xi, eta, g)
    g.require_regular()
    z = _kernels.z_coeffs(xi, g.mu, g.nu)
    u = _kernels.u_coeffs(xi, g.mu, g.nu)
    f = _f_vector(eta, z, u)
    lam = np.concatenate([xi, -xi], axis=-1)
    den = _kernels.lax_denominators(lam, g.mu)
    if np.abs(den).min() < DEGENERACY_TOL:
        raise LaxError("near-degenerate Lax denominator: positions collide modulo mu")
    c = conjugation_matrix(xi.shape[-1])
    return z, u, f, lam, _kernels.lax_entries(f, den, c, g.mu, g.nu)


def lax_matrix(p: PhasePoint, g: Coupling) -> LaxBundle:
    """The bundle at p: lax_stack on the point alone, plus the energy."""
    z, u, f, lam, matrix = lax_stack(p.xi, p.eta, g)
    return LaxBundle(
        point=p, coupling=g, z=z, u=u, f=f, lam=lam,
        c=conjugation_matrix(p.n), matrix=matrix, energy=_energy(p.eta, u),
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
