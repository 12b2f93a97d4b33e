"""Spectral duality: dual angles, phase-fixed diagonalizer, dual coordinates, dual Lax matrix.

The spectrum of the Lax matrix L consists of reciprocal pairs e^{+-2 theta_hat_a}.
The diagonalizer is pinned uniquely by two requirements: it must preserve the
conjugation matrix C (y* C y = C) and the transformed vector
F_hat = e^{-Theta_hat} y^{-1} e^{Lam} F must have positive first n components.
Both are enforced constructively: C maps an eigenvector of w to an eigenvector
of 1/w (since C L C = L^{-1}), which yields the C-preserving basis for free,
and a diagonal phase twist applied to paired columns fixes positivity.

A frame is built at a phase point or at a stack of them (see PhasePoint), in
one stacked eigendecomposition; each array of a DualFrame, and each column of
the identity residuals, carries the leading axes of the stack.  Its checks
follow phase_space.raise_first.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _kernels
from .lax import LaxBundle, lax_matrix
from .linalg import hermitian_eig
from .phase_space import Coupling, PhasePoint, VandiejenError, raise_first

SPECTRAL_GAP_TOL = 1e-7
PAIRING_TOL = 1e-6  # largest |w_j w_{2n+1-j} - 1| of the spectrum of L
PHASE_MODULUS_TOL = 1e-10


class DualityError(VandiejenError):
    pass


def _full_angles(theta_hat: np.ndarray) -> np.ndarray:
    return np.concatenate([theta_hat, -theta_hat], axis=-1)


@lru_cache(maxsize=64)
def _descending_rows(n: int) -> np.ndarray:
    """Rows 0..n-1, then 2n-1..n: every point's Lam = (xi, -xi) in descending
    order, read-only."""
    rows = np.concatenate([np.arange(n), np.arange(2 * n - 1, n - 1, -1)])
    rows.flags.writeable = False
    return rows


def _spectrum(bundle: LaxBundle) -> tuple[np.ndarray, np.ndarray]:
    """(theta_hat, basis) from one stacked eigensolve of L.

    theta_hat_a = ln(w_a)/2 for the eigenvalues w > 1, sorted descending;
    reciprocal pairing and simplicity are verified per point.  Column a < n of
    the unitary basis carries e^{2 theta_hat_a}, with the phase eigh gives it,
    and column n+a is C times column a, which carries the reciprocal eigenvalue
    (C L C = L^{-1}).
    """
    n = bundle.n
    w, basis = hermitian_eig(bundle.matrix)
    worst = np.abs(w * w[..., ::-1] - 1.0).max(axis=-1)
    raise_first(worst > PAIRING_TOL, DualityError, lambda i: (
        f"spectrum fails reciprocal pairing: max residual {worst[i]:.3e}"
    ))
    gap = ((w[..., 1:] - w[..., :-1]) / np.abs(w[..., 1:])).min(axis=-1)
    raise_first(gap < SPECTRAL_GAP_TOL, DualityError, lambda i: (
        f"degenerate spectrum: smallest relative gap {gap[i]:.3e}"
    ))
    # One log over the whole stack, reversed as one 1-D view, so that point p's
    # spectrum, reversed, is row P-1-p of the result.  numpy (2.4, on AVX-512)
    # can round the log of a reversed 1-D operand differently in the last bit
    # from that of a forward or 2-D one; a single point's spectrum is such a
    # reversed 1-D operand, and this layout keeps it so at every stack size.
    logs = np.log(w.reshape(-1)[::-1]).reshape(-1, 2 * n)[::-1, :n]
    theta_hat = 0.5 * logs.reshape(w.shape[:-1] + (n,))
    raise_first(theta_hat[..., -1] <= 0, DualityError, lambda i: (
        f"upper half-spectrum not above 1: smallest angle {theta_hat[i][-1]:.3e}"
    ))
    # ascending eigenvalues: column 2n-1-a of basis carries e^{2 theta_hat_a}
    v = basis[..., ::-1][..., :n]
    return theta_hat, np.concatenate([v, bundle.c @ v], axis=-1)


def _phase_fix(
    lam: np.ndarray, f: np.ndarray, theta_hat: np.ndarray, basis: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(y_hat, f_hat) over a stack of points, from the Lax data lam and f, shape
    (..., 2n), and a basis of _spectrum.  The phase twist m_a, applied to both
    paired columns a and n+a, keeps the basis unitary and C-preserving
    (y* C y = C) and makes the first n components of
    F_hat = e^{-Theta_hat} y_hat^{-1} e^{Lam} F real positive, so y_hat does not
    depend on the phases of the basis columns.  F_hat is the unfixed product
    twisted by conj(m), its first n components set to their moduli.
    """
    n = theta_hat.shape[-1]
    transformed = (basis.conj().swapaxes(-1, -2) @ (np.exp(lam) * f)[..., None])[..., 0]
    raw = np.exp(-_full_angles(theta_hat)) * transformed
    mod = np.abs(raw[..., :n])
    smallest = mod.min(axis=-1)
    raise_first(smallest < PHASE_MODULUS_TOL, DualityError, lambda i: (
        f"positivity-normalizing component has modulus {smallest[i]:.3e}; phase fix breaks down"
    ))
    m = np.concatenate([raw[..., :n] / mod] * 2, axis=-1)
    f_hat = m.conj() * raw
    f_hat[..., :n] = mod
    weakest = np.abs(f_hat).min(axis=-1)
    raise_first(weakest < PHASE_MODULUS_TOL, DualityError, lambda i: (
        f"vanishing component of the transformed vector: modulus {weakest[i]:.3e}"
    ))
    return basis * m[..., None, :], f_hat


@dataclass(frozen=True)
class DualFrame:
    """Spectral data of a Lax bundle: angles, eigenbasis, diagonalizer, dual
    coordinates, dual matrix."""

    bundle: LaxBundle
    theta_hat: np.ndarray  # (..., n), descending positive
    basis: np.ndarray  # (..., 2n, 2n), C-paired eigenbasis of L before the phase fix
    y_hat: np.ndarray  # (..., 2n, 2n), unitary, C-preserving
    f_hat: np.ndarray  # (..., 2n); first n positive real
    z_hat: np.ndarray  # (..., n): F_hat_c * conj(F_hat_{n+c})
    u_hat: np.ndarray  # (..., n), closed form, > 1
    lambda_hat: np.ndarray  # (..., n)

    @property
    def n(self) -> int:
        return self.bundle.n

    @property
    def big_theta(self) -> np.ndarray:
        return _full_angles(self.theta_hat)

    @property
    def image(self) -> PhasePoint:
        """The spectral map of the point: the dual phase point, theta_hat as
        positions and lambda_hat as rapidities."""
        return PhasePoint(xi=self.theta_hat, eta=self.lambda_hat)

    def dual_matrix(self) -> np.ndarray:
        """L_hat = y_hat^{-1} e^{2 Lam} y_hat."""
        y = self.y_hat
        return y.conj().swapaxes(-1, -2) @ (np.exp(2 * self.bundle.lam)[..., :, None] * y)


def dual_frame(p: PhasePoint, g: Coupling) -> DualFrame:
    """The full spectral frame at (p, g): one eigendecomposition of L, the
    angles, the phase fix and the dual coordinates."""
    bundle = lax_matrix(p, g)
    n = bundle.n
    theta_hat, basis = _spectrum(bundle)
    y_hat, f_hat = _phase_fix(bundle.lam, bundle.f, theta_hat, basis)
    g_hat = g.hat()
    u_hat = _kernels.u_coeffs(theta_hat, g_hat.mu, g_hat.nu)  # closed form
    return DualFrame(
        bundle=bundle, theta_hat=theta_hat, basis=basis, y_hat=y_hat, f_hat=f_hat,
        z_hat=f_hat[..., :n] * f_hat[..., n:].conj(), u_hat=u_hat,
        lambda_hat=2.0 * np.log(f_hat[..., :n].real) - np.log(u_hat),
    )


def _dual_lax_routes(frame: DualFrame, dual_bundle: LaxBundle):
    """Dual Lax matrix with its two independent cross-check routes.

    Returns (L_hat, entrywise, pushforward): the similarity-transform route,
    the entrywise formula built from (F_hat, Theta_hat) with the flipped
    coupling, and the direct Lax matrix at the dual point with the flipped
    coupling, read from that point's bundle.  All three agree on valid inputs.
    """
    g_hat = dual_bundle.coupling
    den = _kernels.lax_denominators(frame.big_theta, g_hat.mu)
    entrywise = _kernels.lax_entries(frame.f_hat, den, frame.bundle.c, g_hat.mu, g_hat.nu)
    return frame.dual_matrix(), entrywise, dual_bundle.matrix


def minor_identity_residuals(frame: DualFrame) -> tuple[np.ndarray, np.ndarray]:
    """Max residuals, per point, of the linear and quadratic constraints tying
    z_hat (from F_hat, not the closed form) to the angle data.  The quadratic
    one is relative to the sum of its three terms' moduli."""
    g_hat = frame.bundle.coupling.hat()
    mu, nu = g_hat.mu, g_hat.nu
    th = frame.theta_hat
    w = 1.0 / _kernels.pair_product(th, mu)  # the Cauchy-type weights omega_c
    wz = w * frame.z_hat
    s_p = _kernels.shifted_sinh(mu, 2 * th)
    s_m = _kernels.shifted_sinh(mu, -2 * th)
    linear = (
        np.sin(mu) / s_p * wz
        + np.sin(mu) / s_m * wz.conj()
        + np.sin(mu - nu) * (1.0 / s_p + 1.0 / s_m)
    )
    terms = (
        np.sinh(2 * th) ** 2 * np.abs(wz) ** 2,
        np.sin(mu) * np.sin(mu - nu) * (wz + wz.conj()).real,
        np.sin(mu) ** 2 + np.sin(mu - nu) ** 2 + np.sinh(2 * th) ** 2,
    )
    quadratic = np.abs(terms[0] - terms[1] - terms[2]) / sum(np.abs(t) for t in terms)
    return np.abs(linear).max(axis=-1), quadratic.max(axis=-1)


def identity_residuals(p: PhasePoint, g: Coupling) -> dict:
    """Residuals of the duality identities at p, one array per column over the
    stack p, from the frames at p and at the dual points: the latter give the
    involution p -> p_hat -> p, the pushed-forward dual Lax matrix and the
    closed-form z_hat."""
    fr = dual_frame(p, g)
    back = dual_frame(fr.image, g.hat())
    l_hat, entrywise, pushforward = _dual_lax_routes(fr, back.bundle)
    scale = np.abs(l_hat).max(axis=(-2, -1))
    lin, quad = minor_identity_residuals(fr)
    z = fr.bundle.z
    re_sum = np.abs(fr.z_hat.real.sum(axis=-1) - z.real.sum(axis=-1)) / np.abs(z).sum(axis=-1)
    return {
        "involution": np.abs(back.image.as_vector() - p.as_vector()).max(axis=-1),
        "dual_lax_entrywise": np.abs(l_hat - entrywise).max(axis=(-2, -1)) / scale,
        "dual_lax_pushforward": np.abs(l_hat - pushforward).max(axis=(-2, -1)) / scale,
        "re_z_sum": re_sum,
        "z_closed_form": np.abs(back.bundle.z - fr.z_hat).max(axis=-1),
        "linear_identity": lin,
        "quadratic_identity": quad,
    }
