"""Coefficient kernels: z, u, the flow field, the phase shifts, the Lax entries.

Every coefficient is built from the function sinh(i alpha + x)/sinh(x): two-body
with alpha = mu at x = xi_a - xi_c and xi_a + xi_c, one-body with alpha = nu at
x = 2 xi_a.  The real kernels (u, the phase shifts, the flow field) hold all of
it in one (2, n, n) table per point: x[0] = xi_a - xi_c with +inf on the
diagonal, and x[1] = xi_a + xi_c, whose diagonal 2 xi_a is exactly the one-body
argument.  A read-only amplitude table of the same shape, built once per
(n, mu, nu), holds sin(nu) on the diagonal of x[1] and sin(mu) everywhere
else, so the diagonal of the sum block is the one-body term at 2 xi_a with nu.

The moduli, logs and flow terms depend on x only through
q = (sin(alpha) / sinh(x))^2, since |sinh(i alpha + x)/sinh(x)|^2 = 1 + q, and
through tanh(x).  On the diagonal of x[0] sinh = inf and tanh = 1, so every
modulus factor there is exactly 1 and every log or Xi term exactly 0, with no
mask.  Within the coordinate cap (lax.COORD_CAP = 300) |x| <= 600, so sinh(x)
is finite and q, at worst, underflows quietly to 0: the kernels need no
errstate.  Past about 355 a position sum overflows sinh to inf, and q = 0 is
still its limit; only the Runge-Kutta route, which has no cap, goes there, and
its callers hold the overflow under their own errstate: rk_flow around its
field evaluations, the flow command around the energies of its states.

The tables and the coefficients (z, u, the pair products, the phase shifts,
the Lax entries) take a stack of points: xi of shape (..., n) gives tables of
shape (..., 2, n, n) and coefficients of shape (..., n), and a single point is
the stack with no leading axis.  Each point's values are bit-for-bit those of the point alone: every
operation on a stack is elementwise, or a reduction or small product over one
point's own axes.

The flow field takes one point, as a flat state (xi, eta): field_kernel
builds its tables once per (n, mu, nu) and returns a function that writes the
field in place, so that a trajectory evaluates it with no allocation.  It is
the one implementation of the field; dynamics.vector_field calls it too.

Plain numpy on arrays and floats, with no input checks: the modules that call
these check the phase point and coupling first.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=64)
def _stencil(n: int):
    """(T, D) with the pair table (xi @ T + D).reshape(2, n, n), both read-only.

    T holds the +-1 coefficients of xi_a -+ xi_c (2 on the sum diagonal), so
    each entry is rounded once, exactly as xi_a -+ xi_c, whatever the order of
    the product's sums; D is +inf on the difference diagonal and 0 elsewhere.
    One small matrix product and one add beat the broadcast construction at
    these sizes.
    """
    eye = np.eye(n)
    t = np.stack([eye[:, None] - eye[None, :], eye[:, None] + eye[None, :]]).reshape(-1, n)
    d = np.zeros(2 * n * n)
    d[: n * n : n + 1] = np.inf
    t = np.ascontiguousarray(t.T)
    t.flags.writeable = d.flags.writeable = False
    return t, d


def _pair_table(xi: np.ndarray) -> np.ndarray:
    """x[0] = xi_a - xi_c with +inf on the diagonal and x[1] = xi_a + xi_c, shape (..., 2, n, n)."""
    n = xi.shape[-1]
    t, d = _stencil(n)
    return (np.dot(xi, t) + d).reshape(xi.shape[:-1] + (2, n, n))


@lru_cache(maxsize=64)
def _amplitudes(n: int, mu: float, nu: float) -> np.ndarray:
    """The read-only (2, n, n) table sin(alpha): sin(nu) on the diagonal of the
    sum block, sin(mu) everywhere else."""
    s = np.full((2, n, n), np.sin(mu))
    s[1].reshape(-1)[:: n + 1] = np.sin(nu)
    s.flags.writeable = False
    return s


def _table(xi: np.ndarray, mu: float, nu: float):
    """(x, q, 1 + q) over the pair table x, with q = (sin(alpha) / sinh(x))^2."""
    x = _pair_table(xi)
    q = np.square(_amplitudes(xi.shape[-1], mu, nu) / np.sinh(x))
    return x, q, 1.0 + q


def _moduli(one_plus_q: np.ndarray) -> np.ndarray:
    """u_a = sqrt(prod over row a of the table of (1 + q))."""
    return np.sqrt(one_plus_q.prod(axis=(-3, -1)))


@lru_cache(maxsize=64)
def _off_diagonal(n: int) -> np.ndarray:
    """The flat indices of the off-diagonal entries of an n x n table, in C order."""
    return np.flatnonzero(~np.eye(n, dtype=bool))


def pair_product(xi: np.ndarray, mu: float) -> np.ndarray:
    """prod_{c != a} sinh(i mu + x)/sinh(x) over x = xi_a - xi_c and xi_a + xi_c.

    The diagonal is left out: it holds +inf and the one-body argument 2 xi_a.
    """
    lead, n = xi.shape[:-1], xi.shape[-1]
    off = _off_diagonal(n)
    x = _pair_table(xi).reshape(lead + (2, n * n))[..., off]
    d, s = x[..., 0, :], x[..., 1, :]
    fac = np.ones(lead + (n * n,), dtype=complex)
    fac[..., off] = np.sinh(1j * mu + d) / np.sinh(d) * np.sinh(1j * mu + s) / np.sinh(s)
    return fac.reshape(lead + (n, n)).prod(axis=-1)


def z_coeffs(xi: np.ndarray, mu: float, nu: float) -> np.ndarray:
    """z_a = -sinh(i nu + 2 xi_a)/sinh(2 xi_a) * pair_product(xi, mu)_a."""
    return -np.sinh(1j * nu + 2 * xi) / np.sinh(2 * xi) * pair_product(xi, mu)


def u_coeffs(xi: np.ndarray, mu: float, nu: float) -> np.ndarray:
    """u_a = |z_a| as the square-root product form (real, > 1)."""
    return _moduli(_table(xi, mu, nu)[2])


def delta_shifts(xi: np.ndarray, mu: float, nu: float) -> np.ndarray:
    """Phase shifts Delta_a = 1/2 ln(1 + q(2 xi_a))
    + sum_{c != a} [sign(c - a) 1/2 ln(1 + q(xi_a - xi_c)) + 1/2 ln(1 + q(xi_a + xi_c))],
    the signed row sums of the difference block plus the row sums of the sum block."""
    logs = 0.5 * np.log1p(_table(xi, mu, nu)[1])
    diff, total = logs[..., 0, :, :], logs[..., 1, :, :]
    signed = np.triu(diff, 1) - np.tril(diff, -1)
    return signed.sum(axis=-1) + total.sum(axis=-1)


def lax_denominators(lam: np.ndarray, mu: float) -> np.ndarray:
    """The table sinh(i mu + Lam_k - Lam_l) of the Lax entries."""
    return np.sinh(1j * mu + lam[..., :, None] - lam[..., None, :])


def lax_entries(f: np.ndarray, den: np.ndarray, c: np.ndarray, mu: float, nu: float) -> np.ndarray:
    """L_kl = (i sin(mu) F_k conj(F_l) + i sin(mu - nu) C_kl) / den_kl, with den
    the lax_denominators table."""
    outer = f[..., :, None] * f.conj()[..., None, :]
    num = 1j * np.sin(mu) * outer + 1j * np.sin(mu - nu) * c
    return num / den


def field_kernel(n: int, mu: float, nu: float):
    """The Hamiltonian vector field at (n, mu, nu) as field(y, out), which
    reads the flat state y = (xi, eta) and writes (xi_dot, eta_dot) into out:
    xi_dot_a = sinh(eta_a) u_a, eta_dot_a = -sum_c w_c d ln(u_c)/d xi_a with
    w = cosh(eta) u.

    With Xi = q / (tanh(x) (1 + q)) = -d/dx ln sqrt(1 + q) over the table,
    d ln(u_a)/d xi_b is Xi[0]_ab - Xi[1]_ab, less the row sum of Xi over both
    blocks on the diagonal; there the one-body term Xi[1]_aa enters twice, as
    its argument is 2 xi_a.

    The stencil, the amplitudes and every scratch table are fetched or built
    here, once; each call then runs the float operations of _table, _moduli
    and the sums in their order (np.multiply.reduce and np.add.reduce are what
    .prod and .sum call), every one into a buffer, and allocates nothing.  A
    kernel serves one caller at a time: its tables are overwritten by each call.
    """
    t, d = _stencil(n)
    amplitudes = _amplitudes(n, mu, nu)
    ones = np.ones((2, n, n))
    flat = np.empty(2 * n * n)
    x = flat.reshape(2, n, n)
    q, one_plus_q, xi_term = np.empty((3, 2, n, n))
    xi_term_diff, xi_term_sum = xi_term
    u, w, total, cross = np.empty((4, n))
    diff = np.empty((n, n))

    def field(y: np.ndarray, out: np.ndarray) -> None:
        eta, xi_dot, eta_dot = y[n:], out[:n], out[n:]
        y[:n].dot(t, out=flat)
        np.add(flat, d, out=flat)
        np.sinh(x, out=q)
        np.divide(amplitudes, q, out=q)
        np.square(q, out=q)
        np.add(ones, q, out=one_plus_q)
        np.tanh(x, out=xi_term)
        np.multiply(xi_term, one_plus_q, out=xi_term)
        np.divide(q, xi_term, out=xi_term)
        np.multiply.reduce(one_plus_q, axis=(0, 2), out=u)
        np.sqrt(u, out=u)
        np.cosh(eta, out=w)
        np.multiply(w, u, out=w)
        np.sinh(eta, out=xi_dot)
        np.multiply(xi_dot, u, out=xi_dot)
        np.add.reduce(xi_term, axis=(0, 2), out=total)
        np.multiply(w, total, out=total)
        np.subtract(xi_term_diff, xi_term_sum, out=diff)
        np.matmul(w, diff, out=cross)
        np.subtract(total, cross, out=eta_dot)

    return field

