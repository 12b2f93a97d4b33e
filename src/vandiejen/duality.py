"""Spectral duality: dual angles, phase-fixed diagonalizer, dual coordinates, dual Lax matrix.

The spectrum of the Lax matrix L consists of reciprocal pairs e^{+-2 theta_hat_a}.
The diagonalizer is pinned uniquely by two requirements: it must preserve the
conjugation matrix C (y* C y = C) and the transformed vector
F_hat = e^{-Theta_hat} y^{-1} e^{Lam} F must have positive first n components.
Both are enforced constructively: C maps an eigenvector of w to an eigenvector
of 1/w (since C L C = L^{-1}), which yields the C-preserving basis for free,
and a diagonal phase twist applied to paired columns fixes positivity.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .lax import LaxBundle, lax_matrix
from .linalg import hermitian_eig
from .phase_space import Coupling, PhasePoint, VandiejenError

SPECTRAL_GAP_TOL = 1e-7
PHASE_MODULUS_TOL = 1e-10


class DualityError(VandiejenError):
    pass


def _angles(w: np.ndarray, n: int) -> np.ndarray:
    """theta_hat from the ascending spectrum w of L; see dual_angles."""
    pairing = np.abs(w * w[::-1] - 1.0)
    if pairing.max() > 1e-6:
        raise DualityError(f"spectrum fails reciprocal pairing: max residual {pairing.max():.3e}")
    rel_gaps = np.diff(w) / np.abs(w[1:])
    if rel_gaps.min() < SPECTRAL_GAP_TOL:
        raise DualityError(f"degenerate spectrum: smallest relative gap {rel_gaps.min():.3e}")
    theta_hat = 0.5 * np.log(w[n:][::-1])
    if theta_hat[-1] <= 0:
        raise DualityError("upper half-spectrum not above 1; spectrum too close to unity")
    return theta_hat


def dual_angles(bundle: LaxBundle) -> np.ndarray:
    """Positive half-spectrum angles: theta_hat_a = ln(w_a)/2 for eigenvalues w > 1,
    sorted descending; reciprocal pairing and simplicity are verified."""
    return _angles(hermitian_eig(bundle.matrix).eigenvalues, bundle.n)


def _full_angles(theta_hat: np.ndarray) -> np.ndarray:
    return np.concatenate([theta_hat, -theta_hat])


def diagonalizer(bundle: LaxBundle, basis: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Return (theta_hat, y_hat) with y_hat the unique phase-fixed diagonalizer.

    Column a (a < n) carries eigenvalue e^{2 theta_hat_a}; column n+a is C times
    column a and carries the reciprocal eigenvalue.  The resulting basis is
    unitary and satisfies y* C y = C identically; the phase twist m_a (applied
    to both paired columns, preserving both structures) makes the first n
    components of F_hat real positive.

    An explicit unitary eigenbasis for the upper half-spectrum (column a for
    e^{2 theta_hat_a}, descending) may be supplied; the output is invariant
    under re-phasing of its columns.
    """
    eig = hermitian_eig(bundle.matrix)
    n = bundle.n
    theta_hat = _angles(eig.eigenvalues, n)
    if basis is None:
        # ascending eigenvalues: column 2n-1-a of the basis carries e^{2 theta_hat_a}
        v = eig.basis[:, ::-1][:, :n]
    else:
        v = np.asarray(basis, dtype=complex)
    y = np.concatenate([v, bundle.c @ v], axis=1)
    big_theta = _full_angles(theta_hat)
    raw = np.exp(-big_theta) * (y.conj().T @ (np.exp(bundle.lam) * bundle.f))
    mod = np.abs(raw[:n])
    if mod.min() < PHASE_MODULUS_TOL:
        raise DualityError(
            f"positivity-normalizing component has modulus {mod.min():.3e}; phase fix breaks down"
        )
    m = raw[:n] / mod
    y_hat = y * np.concatenate([m, m])[None, :]
    return theta_hat, y_hat


def dual_f(bundle: LaxBundle, theta_hat: np.ndarray, y_hat: np.ndarray) -> np.ndarray:
    """F_hat = e^{-Theta_hat} y_hat^{-1} e^{Lam} F; first n components positive real."""
    big_theta = _full_angles(theta_hat)
    f_hat = np.exp(-big_theta) * (y_hat.conj().T @ (np.exp(bundle.lam) * bundle.f))
    if np.abs(f_hat).min() < PHASE_MODULUS_TOL:
        raise DualityError("vanishing component of the transformed vector")
    return f_hat


def dual_z_closed_form(theta_hat: np.ndarray, g_hat: Coupling, c: int) -> complex:
    """Closed-form dual coefficient: the same signed product as z_a, evaluated at
    the angle vector theta_hat with the sign-flipped coupling."""
    theta_hat = np.asarray(theta_hat, dtype=float)
    if np.min(-np.diff(theta_hat), initial=np.inf) <= 0 or theta_hat[-1] <= 0:
        raise DualityError("angles must be strictly descending positive")
    return complex(_kernels.z_coeffs(theta_hat, g_hat.mu, g_hat.nu)[c])


def dual_u_closed_form(theta_hat: np.ndarray, g_hat: Coupling) -> np.ndarray:
    """Closed-form moduli of the dual coefficients (same square-root product shape)."""
    return np.asarray(_kernels.u_coeffs(np.asarray(theta_hat, float), g_hat.mu, g_hat.nu))


@dataclass(frozen=True)
class DualFrame:
    """Spectral data of a Lax bundle: angles, diagonalizer, dual coordinates, dual matrix."""

    bundle: LaxBundle
    theta_hat: np.ndarray  # length n, descending positive
    y_hat: np.ndarray  # 2n x 2n, unitary, C-preserving
    f_hat: np.ndarray  # length 2n; first n positive real
    z_hat: np.ndarray  # length n: F_hat_c * conj(F_hat_{n+c})
    u_hat: np.ndarray  # length n, closed form, > 1
    lambda_hat: np.ndarray  # length n

    @property
    def n(self) -> int:
        return self.bundle.n

    @property
    def big_theta(self) -> np.ndarray:
        return _full_angles(self.theta_hat)

    @property
    def image(self) -> PhasePoint:
        """The dual phase point (theta_hat as positions, lambda_hat as rapidities)."""
        return PhasePoint(xi=self.theta_hat, eta=self.lambda_hat)

    def dual_matrix(self) -> np.ndarray:
        """L_hat = y_hat^{-1} e^{2 Lam} y_hat."""
        return self.y_hat.conj().T @ (np.exp(2 * self.bundle.lam)[:, None] * self.y_hat)


def dual_frame(p: PhasePoint, g: Coupling) -> DualFrame:
    """Build the full spectral frame at (p, g) from one eigendecomposition of L."""
    bundle = lax_matrix(p, g)
    theta_hat, y_hat = diagonalizer(bundle)
    f_hat = dual_f(bundle, theta_hat, y_hat)
    n = bundle.n
    z_hat = f_hat[:n] * f_hat[n:].conj()
    u_hat = dual_u_closed_form(theta_hat, g.hat())
    lambda_hat = 2.0 * np.log(f_hat[:n].real) - np.log(u_hat)
    return DualFrame(
        bundle=bundle, theta_hat=theta_hat, y_hat=y_hat,
        f_hat=f_hat, z_hat=z_hat, u_hat=u_hat, lambda_hat=lambda_hat,
    )


def duality_map(p: PhasePoint, g: Coupling) -> PhasePoint:
    """The spectral map: p -> (theta_hat, lambda_hat)."""
    return dual_frame(p, g).image


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


def dual_lax(p: PhasePoint, g: Coupling):
    """L_hat and its two cross-check routes at (p, g); see _dual_lax_routes."""
    frame = dual_frame(p, g)
    return _dual_lax_routes(frame, lax_matrix(frame.image, g.hat()))


def minor_identity_residuals(frame: DualFrame) -> tuple[float, float]:
    """Max residuals of the linear and quadratic constraints tying z_hat (from
    F_hat, not the closed form) to the angle data."""
    g_hat = frame.bundle.coupling.hat()
    mu, nu = g_hat.mu, g_hat.nu
    th = frame.theta_hat
    w = 1.0 / _kernels.pair_product(th, mu)  # the Cauchy-type weights omega_c
    wz = w * frame.z_hat
    s_p = np.sinh(1j * mu + 2 * th)
    s_m = np.sinh(1j * mu - 2 * th)
    linear = (
        np.sin(mu) / s_p * wz
        + np.sin(mu) / s_m * wz.conj()
        + np.sin(mu - nu) * (1.0 / s_p + 1.0 / s_m)
    )
    quadratic = (
        np.sinh(2 * th) ** 2 * np.abs(wz) ** 2
        - np.sin(mu) * np.sin(mu - nu) * (wz + wz.conj()).real
        - (np.sin(mu) ** 2 + np.sin(mu - nu) ** 2 + np.sinh(2 * th) ** 2)
    )
    return float(np.abs(linear).max()), float(np.abs(quadratic).max())


def identity_residuals(p: PhasePoint, g: Coupling) -> dict:
    """Residuals of the duality identities at p, from the frame at p and the
    frame at the dual point: the latter gives the involution p -> p_hat -> p,
    the pushed-forward dual Lax matrix and the closed-form z_hat."""
    fr = dual_frame(p, g)
    back = dual_frame(fr.image, g.hat())
    l_hat, entrywise, pushforward = _dual_lax_routes(fr, back.bundle)
    scale = np.abs(l_hat).max()
    lin, quad = minor_identity_residuals(fr)
    z = fr.bundle.z
    re_sum = abs(fr.z_hat.real.sum() - z.real.sum()) / np.abs(z).sum()
    return {
        "involution": float(np.abs(back.image.as_vector() - p.as_vector()).max()),
        "dual_lax_entrywise": float(np.abs(l_hat - entrywise).max() / scale),
        "dual_lax_pushforward": float(np.abs(l_hat - pushforward).max() / scale),
        "re_z_sum": float(re_sum),
        "z_closed_form": float(np.abs(back.bundle.z - fr.z_hat).max()),
        "linear_identity": lin,
        "quadratic_identity": quad,
    }
