"""Dense complex linear-algebra kernel: eigendecompositions and principal minors.

All routines are pure functions on numpy arrays; sizes are small (N <= ~64),
so everything is computed by direct dense factorizations.  A routine that
takes a stack checks each matrix on its own, by the rule of
phase_space.raise_first.
"""
from __future__ import annotations

import numpy as np

from .phase_space import VandiejenError, raise_first

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


def hermitian_eig(a) -> tuple[np.ndarray, np.ndarray]:
    """(w, v) of a Hermitian matrix, or of each matrix of a (..., N, N) stack,
    as np.linalg.eigh gives them: the real eigenvalues w in ascending order,
    shape (..., N), and a unitary basis v whose column j belongs to w[..., j],
    shape (..., N, N).  One eigh call runs the same LAPACK routine on each
    matrix as on that matrix alone.

    The input is symmetrized as (A + A*)/2 before solving; an asymmetry larger
    than HERMITICITY_TOL relative to max|A| is an error rather than silently
    repaired.
    """
    a = _as_square_stack(a)
    a_star = a.conj().swapaxes(-1, -2)
    scale = np.maximum(np.abs(a).max(axis=(-2, -1)), 1.0)
    asym = np.abs(a - a_star).max(axis=(-2, -1))
    raise_first(asym > HERMITICITY_TOL * scale, LinalgError, lambda i: (
        f"matrix is not Hermitian: asymmetry {asym[i]:.3e} (scale {scale[i]:.3e})"
    ))
    w, v = np.linalg.eigh((a + a_star) / 2.0)
    return w, v


def general_eig(a) -> np.ndarray:
    """Eigenvalues of a general complex matrix, or of each matrix of a stack,
    sorted by descending modulus (ties: descending real, then imag)."""
    w = np.linalg.eigvals(_as_square_stack(a))
    order = np.lexsort((-w.imag, -w.real, -np.abs(w)), axis=-1)
    return np.take_along_axis(w, order, axis=-1)


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
