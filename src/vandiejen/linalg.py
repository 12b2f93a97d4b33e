"""Dense complex linear-algebra kernel: eigendecompositions and principal minors.

All routines are pure functions on numpy arrays; sizes are small (N <= ~64),
so everything is computed by direct dense factorizations.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .phase_space import VandiejenError

HERMITICITY_TOL = 1e-12


class LinalgError(VandiejenError):
    """Raised on malformed inputs (non-square, non-finite, non-Hermitian)."""


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
    """Eigenvalues in ascending order and a unitary eigenvector basis, for a
    matrix or, with the leading axes of the input, for each matrix of a stack."""

    eigenvalues: np.ndarray  # real, ascending: shape (..., N)
    basis: np.ndarray  # unitary; column j belongs to eigenvalues[..., j]: shape (..., N, N)


@dataclass(frozen=True)
class GeneralEigen:
    """Eigenvalues sorted by descending modulus (ties: descending real, then imag)."""

    eigenvalues: np.ndarray  # complex


def hermitian_eig(a) -> HermitianEigen:
    """Eigendecomposition of a Hermitian matrix or of each matrix of a (..., N, N)
    stack, in one np.linalg.eigh call, which runs the same LAPACK routine on
    each matrix as on that matrix alone.

    The input is symmetrized as (A + A*)/2 before solving; an asymmetry larger
    than HERMITICITY_TOL relative to max|A| is an error rather than silently
    repaired.  Each matrix is checked on its own, and the error names the first
    failing one in stack order.
    """
    a = _as_square_stack(a)
    a_star = a.conj().swapaxes(-1, -2)
    scale = np.maximum(np.abs(a).max(axis=(-2, -1)), 1.0)
    asym = np.abs(a - a_star).max(axis=(-2, -1))
    bad = asym > HERMITICITY_TOL * scale
    if bad.any():
        raise LinalgError(
            f"matrix is not Hermitian: asymmetry {asym[bad][0]:.3e} (scale {scale[bad][0]:.3e})"
        )
    w, u = np.linalg.eigh((a + a_star) / 2.0)
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
