"""Dense complex linear-algebra kernel: eigendecompositions, minors, Cauchy determinants.

All routines are pure functions on numpy arrays; sizes are small (N <= ~64),
so everything is computed by direct dense factorizations.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .phase_space import VandiejenError

HERMITICITY_TOL = 1e-12


class LinalgError(VandiejenError):
    """Raised on malformed inputs (non-square, non-finite, singular Cauchy data)."""


def _as_square_stack(a) -> np.ndarray:
    """a as a complex (..., N, N) array with N >= 1 and finite entries."""
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise LinalgError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise LinalgError("matrix has non-finite entries")
    return a


def _as_square_matrix(a) -> np.ndarray:
    a = _as_square_stack(a)
    if a.ndim != 2:
        raise LinalgError(f"expected a square matrix, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class HermitianEigen:
    """Eigenvalues in ascending order and a unitary eigenvector basis."""

    eigenvalues: np.ndarray  # real, ascending
    basis: np.ndarray  # unitary; column j belongs to eigenvalues[j]


@dataclass(frozen=True)
class GeneralEigen:
    """Eigenvalues sorted by descending modulus (ties: descending real, then imag)."""

    eigenvalues: np.ndarray  # complex


def hermitian_eig(a) -> HermitianEigen:
    """Eigendecomposition of a Hermitian matrix.

    The input is symmetrized as (A + A*)/2 before solving; an asymmetry larger
    than HERMITICITY_TOL relative to max|A| is an error rather than silently
    repaired.
    """
    a = _as_square_matrix(a)
    scale = max(np.abs(a).max(), 1.0)
    asym = np.abs(a - a.conj().T).max()
    if asym > HERMITICITY_TOL * scale:
        raise LinalgError(f"matrix is not Hermitian: asymmetry {asym:.3e} (scale {scale:.3e})")
    w, u = np.linalg.eigh((a + a.conj().T) / 2.0)
    return HermitianEigen(eigenvalues=w, basis=u)


def general_eig(a) -> GeneralEigen:
    """Eigenvalues of a general complex matrix in the canonical ordering."""
    a = _as_square_matrix(a)
    w = np.linalg.eigvals(a)
    order = np.lexsort((-w.imag, -w.real, -np.abs(w)))
    return GeneralEigen(eigenvalues=w[order])


def principal_minors(m) -> tuple[np.ndarray, np.ndarray]:
    """Leading and bordered principal minors of a matrix or a (..., N, N) stack.

    Returns (leading, bordered): leading[..., k-1] = det M[:k, :k] for
    k = 1..N, and bordered[..., k-1] = det M(1..k-1, k+1), the minor on the
    indices 1..k-1 and k+1, for k = 1..N-1.  Each size k takes one det call
    over the k x k submatrices of every matrix in the stack, so each minor is
    bit-for-bit np.linalg.det(M[np.ix_(s, s)]): the same LAPACK factorization
    of the same size, looped over the stack.  Each submatrix is factorized
    from scratch (partial pivoting); at these sizes correctness beats Schur
    updates.
    """
    m = _as_square_stack(m)
    n = m.shape[-1]
    leading = np.empty(m.shape[:-1], dtype=complex)
    bordered = np.empty(m.shape[:-2] + (n - 1,), dtype=complex)
    for k in range(1, n + 1):
        lead = np.arange(k)
        sets = np.stack([lead, np.append(lead[:-1], k)]) if k < n else lead[None]
        dets = np.linalg.det(m[..., sets[:, :, None], sets[:, None, :]])
        leading[..., k - 1] = dets[..., 0]
        if k < n:
            bordered[..., k - 1] = dets[..., 1]
    return leading, bordered


def leading_principal_minors(m) -> np.ndarray:
    """Determinants of the upper-left j x j blocks, j = 1..N (see principal_minors)."""
    return principal_minors(_as_square_matrix(m))[0]


def hyperbolic_cauchy_matrix(alpha: float, xi, eta) -> np.ndarray:
    """The matrix [sinh(i*alpha) / sinh(i*alpha + xi_k - eta_l)]."""
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    num = np.sinh(1j * alpha)
    den = np.sinh(1j * alpha + xi[:, None] - eta[None, :])
    if np.abs(den).min() < 1e-300:
        raise LinalgError("singular Cauchy denominator")
    return num / den


def hyperbolic_cauchy_det(alpha: float, xi, eta) -> complex:
    """Closed-form determinant of the hyperbolic Cauchy matrix.

    det [sinh(ia)/sinh(ia + xi_k - eta_l)] =
        sinh(ia)^m * prod_{k<l} sinh(xi_k - xi_l) sinh(eta_l - eta_k)
                   / prod_{k,l} sinh(ia + xi_k - eta_l)
    """
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    if xi.shape != eta.shape or xi.ndim != 1 or len(xi) == 0:
        raise LinalgError("xi and eta must be equal-length non-empty vectors")
    if abs(np.sin(alpha)) < 1e-300:
        raise LinalgError("sin(alpha) = 0 makes the formula singular")
    m = len(xi)
    den = np.sinh(1j * alpha + xi[:, None] - eta[None, :])
    if np.abs(den).min() < 1e-300:
        raise LinalgError("singular Cauchy denominator")
    val = np.sinh(1j * alpha) ** m / np.prod(den)
    for k in range(m):
        for l in range(k + 1, m):
            val *= np.sinh(xi[k] - xi[l]) * np.sinh(eta[l] - eta[k])
    return complex(val)
