"""Lax-matrix data built at a phase point: coefficients z/u, vector F, matrix L, energy.

The matrix is assembled verbatim from its entrywise definition; Hermiticity,
unit determinant, positive definiteness, and the commutation relation are then
independent cross-checks of correctness rather than imposed structure.

Every routine takes a phase point or a stack of them (see PhasePoint): each
array of a bundle, and each column of the structure residuals, carries the
leading axes of the stack, and each point's values are bit-for-bit those of
that point alone.  Its checks follow phase_space.raise_first.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import _kernels
from .phase_space import Coupling, PhasePoint, VandiejenError, require_valid

COORD_CAP = 300.0


class LaxError(VandiejenError):
    pass


@lru_cache(maxsize=64)
def conjugation_matrix(n: int) -> np.ndarray:
    """The symmetric block matrix C = [[0, I], [I, 0]] of size 2n, read-only."""
    c = np.zeros((2 * n, 2 * n))
    c[:n, n:] = np.eye(n)
    c[n:, :n] = np.eye(n)
    c.flags.writeable = False
    return c


def _energy(eta: np.ndarray, u: np.ndarray):
    # a (1, n) @ (n, 1) product per point rounds as the 1-D product does; einsum does not
    return (np.cosh(eta)[..., None, :] @ u[..., :, None])[..., 0, 0]


def energy(p: PhasePoint, g: Coupling):
    """The Hamiltonian H = sum_a cosh(eta_a) u_a, at each point of p."""
    return _energy(p.eta, _kernels.u_coeffs(p.xi, g.mu, g.nu))


def _f_vector(eta: np.ndarray, z: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Column vector F: F_a = e^{eta_a/2} u_a^{1/2}, F_{n+a} = e^{-eta_a/2} conj(z_a) u_a^{-1/2}."""
    n, half, root = eta.shape[-1], eta / 2.0, np.sqrt(u)
    f = np.empty(eta.shape[:-1] + (2 * n,), dtype=complex)
    f[..., :n] = np.exp(half) * root
    f[..., n:] = np.exp(-half) * z.conj() / root  # -eta / 2 exactly
    return f


@dataclass(frozen=True)
class LaxBundle:
    """All algebraic data at (p, g): coefficients, F, Lambda, C, L, and the energy,
    each with the leading axes of p but C, which is shared.  The energy is
    formed at its first use, once: the frames read only L."""

    point: PhasePoint
    coupling: Coupling
    z: np.ndarray  # complex, (..., n)
    u: np.ndarray  # real, (..., n)
    f: np.ndarray  # complex, (..., 2n)
    lam: np.ndarray  # real, (..., 2n): (xi, -xi)
    c: np.ndarray  # real 2n x 2n
    matrix: np.ndarray  # complex (..., 2n, 2n), Hermitian positive definite

    @property
    def n(self) -> int:
        return self.point.n

    @cached_property
    def energy(self) -> np.ndarray:
        """H = sum_a cosh(eta_a) u_a, real, (...)."""
        return _energy(self.point.eta, self.u)


def lax_matrix(p: PhasePoint, g: Coupling) -> LaxBundle:
    """The bundle at p: z and u from one pair table, F from them, then L.  The
    checks run in this order: the chamber, the coupling, the coordinate cap.
    No denominator of L needs one: |sinh(i mu + x)|^2 = sinh(x)^2 + sin(mu)^2,
    so every one is at least |sin mu|, above DEFAULT_REG_MARGIN for a regular
    coupling."""
    require_valid(p)
    g.require_regular()
    xi, eta = p.xi, p.eta
    # the chamber orders xi descending and positive: xi_1 is the largest |xi_a|
    if xi[..., 0].max() > COORD_CAP or np.abs(eta).max() > COORD_CAP:
        raise LaxError(f"coordinates exceed the overflow cap {COORD_CAP}")
    z, u = _kernels.coefficients(xi, g.mu, g.nu)
    f = _f_vector(eta, z, u)
    lam = np.concatenate([xi, -xi], axis=-1)
    return LaxBundle(
        point=p, coupling=g, z=z, u=u, f=f, lam=lam, c=conjugation_matrix(p.n),
        matrix=_kernels.lax_entries(f, lam, g.mu, g.nu),
    )


def commutation_residual(bundle: LaxBundle) -> np.ndarray:
    """Max-entry modulus of the defining exchange relation for L.

    e^{i mu} e^{Lam} L e^{-Lam} - e^{-i mu} e^{-Lam} L e^{Lam}
        = 2i sin(mu) F F* + 2i sin(mu - nu) C
    """
    mu, nu = bundle.coupling.mu, bundle.coupling.nu
    exp_lam = np.exp(bundle.lam)
    el, ml = exp_lam[..., :, None], exp_lam[..., None, :]
    lhs = (
        np.exp(1j * mu) * (el * bundle.matrix / ml)
        - np.exp(-1j * mu) * (bundle.matrix * ml / el)
    )
    outer = bundle.f[..., :, None] * bundle.f.conj()[..., None, :]
    rhs = 2j * np.sin(mu) * outer + 2j * np.sin(mu - nu) * bundle.c
    return np.abs(lhs - rhs).max(axis=(-2, -1))


def structure_residuals(p: PhasePoint, g: Coupling) -> dict:
    """Structure residuals of L at p: Hermiticity and the commutation relation
    relative to max|L|, |det L - 1|, the smallest eigenvalue (positive
    definiteness), the reciprocal pairing w_j w_{2n+1-j} = 1 of the spectrum,
    and tr L against twice the energy: one array per column over the stack p."""
    b = lax_matrix(p, g)
    m = b.matrix
    scale = np.abs(m).max(axis=(-2, -1))
    w = np.linalg.eigvalsh(m)
    det = np.linalg.det(m) - 1.0
    return {
        "hermiticity": np.abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1)) / scale,
        # the modulus as Python's abs forms it; np.abs of a complex rounds differently
        "det_minus_one": np.hypot(det.real, det.imag),
        "min_eigenvalue": w.min(axis=-1),
        "pairing": np.abs(w * w[..., ::-1] - 1.0).max(axis=-1),
        "trace_minus_2h": np.abs(np.trace(m, axis1=-2, axis2=-1).real - 2 * b.energy)
        / np.abs(2 * b.energy),
        "commutation": commutation_residual(b) / scale,
    }
