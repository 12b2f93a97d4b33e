"""Coefficient kernels: z, u, the flow field, the phase shifts, the Lax entries.

Every coefficient is built from one one-body term, at 2 xi_a with coupling nu,
and one two-body function sinh(i mu + x)/sinh(x), at x = xi_a -+ xi_c.  The
pair table holds xi_a - xi_c and xi_a + xi_c with +inf on the diagonal.  The
moduli, logs and flow terms depend on x only through
q(x) = sin(alpha)^2 / sinh(x)^2, since |sinh(i alpha + x)/sinh(x)|^2 = 1 + q,
and through tanh(x).  On the diagonal sinh = inf and tanh = 1, so every
modulus factor is exactly 1 and every log or Xi term exactly 0, with no mask.

Plain numpy on arrays and floats, with no input checks: the modules that call
these validate the phase point and coupling first.
"""
from __future__ import annotations

import numpy as np


_SIGNS = np.array([-1.0, 1.0])[:, None, None]


def _pair_table(xi: np.ndarray) -> np.ndarray:
    """x[0] = xi_a - xi_c and x[1] = xi_a + xi_c, shape (2, n, n), +inf on both diagonals."""
    x = xi[:, None] + _SIGNS * xi
    x.reshape(2, -1)[:, :: len(xi) + 1] = np.inf
    return x


def _q_terms(xi: np.ndarray, mu: float, nu: float):
    """(x, q(2 xi_a) at nu, q(x) at mu) for the pair table x, q = sin(alpha)^2 / sinh^2.

    sinh^2 overflows past |x| ~ 355, and q is then 0, its limit; the overflow
    is expected and not reported.
    """
    x = _pair_table(xi)
    with np.errstate(over="ignore"):
        return x, np.sin(nu) ** 2 / np.sinh(2 * xi) ** 2, np.sin(mu) ** 2 / np.sinh(x) ** 2


def _xi_term(x: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Xi = q coth(x) / (1 + q) = -d/dx ln sqrt(1 + q(x))."""
    return q / (np.tanh(x) * (1.0 + q))


def _modulus(q_one: np.ndarray, q_pair: np.ndarray) -> np.ndarray:
    """u_a = sqrt(1 + q(2 xi_a)) prod_c sqrt((1 + q(xi_a - xi_c)) (1 + q(xi_a + xi_c)))."""
    return np.sqrt(1.0 + q_one) * np.sqrt((1.0 + q_pair[0]) * (1.0 + q_pair[1])).prod(axis=1)


def pair_product(xi: np.ndarray, mu: float) -> np.ndarray:
    """prod_{c != a} sinh(i mu + x)/sinh(x) over x = xi_a - xi_c and xi_a + xi_c.

    The diagonal is masked out: there the complex factor would read e^{i mu}.
    """
    x = _pair_table(xi)
    off = ~np.eye(len(xi), dtype=bool)
    d, s = x[0][off], x[1][off]
    fac = np.ones(off.shape, dtype=complex)
    fac[off] = np.sinh(1j * mu + d) / np.sinh(d) * np.sinh(1j * mu + s) / np.sinh(s)
    return fac.prod(axis=1)


def z_coeffs(xi: np.ndarray, mu: float, nu: float) -> np.ndarray:
    """z_a = -sinh(i nu + 2 xi_a)/sinh(2 xi_a) * pair_product(xi, mu)_a."""
    return -np.sinh(1j * nu + 2 * xi) / np.sinh(2 * xi) * pair_product(xi, mu)


def u_coeffs(xi: np.ndarray, mu: float, nu: float) -> np.ndarray:
    """u_a = |z_a| as the square-root product form (real, > 1)."""
    _, q_one, q_pair = _q_terms(xi, mu, nu)
    return _modulus(q_one, q_pair)


def delta_shifts(xi: np.ndarray, mu: float, nu: float) -> np.ndarray:
    """Phase shifts Delta_a = 1/2 ln(1 + q(2 xi_a))
    + sum_{c != a} [sign(c - a) 1/2 ln(1 + q(xi_a - xi_c)) + 1/2 ln(1 + q(xi_a + xi_c))]."""
    _, q_one, q_pair = _q_terms(xi, mu, nu)
    logs = 0.5 * np.log1p(q_pair)
    signed = np.triu(logs[0], 1) - np.tril(logs[0], -1)
    return 0.5 * np.log1p(q_one) + signed.sum(axis=1) + logs[1].sum(axis=1)


def lax_denominators(lam: np.ndarray, mu: float) -> np.ndarray:
    """The table sinh(i mu + Lam_k - Lam_l) of the Lax entries."""
    return np.sinh(1j * mu + lam[:, None] - lam[None, :])


def lax_entries(f: np.ndarray, den: np.ndarray, c: np.ndarray, mu: float, nu: float) -> np.ndarray:
    """L_kl = (i sin(mu) F_k conj(F_l) + i sin(mu - nu) C_kl) / den_kl, with den
    the lax_denominators table."""
    num = 1j * np.sin(mu) * np.outer(f, f.conj()) + 1j * np.sin(mu - nu) * c
    return num / den


def vector_field(xi: np.ndarray, eta: np.ndarray, mu: float, nu: float):
    """Hamiltonian vector field: xi_dot_a = sinh(eta_a) u_a,
    eta_dot_a = -sum_c cosh(eta_c) u_c d ln(u_c)/d xi_a.

    d ln(u_a)/d xi_b is Xi(xi_a - xi_b) - Xi(xi_a + xi_b) off the diagonal and
    -2 Xi(2 xi_a) - sum_c [Xi(xi_a - xi_c) + Xi(xi_a + xi_c)] on it.
    """
    x, q_one, q_pair = _q_terms(xi, mu, nu)
    xi_pair = _xi_term(x, q_pair)
    grad = xi_pair[0] - xi_pair[1]
    np.fill_diagonal(grad, -2 * _xi_term(2 * xi, q_one) - xi_pair.sum(axis=(0, 2)))
    u = _modulus(q_one, q_pair)
    return np.sinh(eta) * u, -(np.cosh(eta) * u) @ grad
