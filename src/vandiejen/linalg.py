"""Dense complex linear-algebra kernel: eigendecompositions and the unpivoted LDU.

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


def ldu(m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unpivoted factors M = L diag(D) U of a matrix or of each matrix of a
    (..., N, N) stack: L unit lower and U unit upper triangular, shape
    (..., N, N), and the pivots D, shape (..., N).  Pivot D_k is the ratio of
    the leading principal minors of sizes k + 1 and k, so cumprod(D) lists
    those minors.  The N - 1 elimination steps each run over the whole stack
    in elementwise operations, so each matrix's factors are bit-for-bit those
    of that matrix alone.  A zero pivot leaves the later factors non-finite,
    without a warning: the caller checks cumprod(D).
    """
    a = _as_square_stack(m).copy()
    n = a.shape[-1]
    lower = np.broadcast_to(np.eye(n, dtype=complex), a.shape).copy()
    upper = lower.copy()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(n - 1):
            pivot = a[..., k, k, None]
            lower[..., k + 1 :, k] = a[..., k + 1 :, k] / pivot
            upper[..., k, k + 1 :] = a[..., k, k + 1 :] / pivot
            a[..., k + 1 :, k + 1 :] -= lower[..., k + 1 :, k, None] * a[..., None, k, k + 1 :]
    return lower, np.diagonal(a, axis1=-2, axis2=-1).copy(), upper
