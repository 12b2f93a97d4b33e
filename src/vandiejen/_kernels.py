"""Hot numeric kernels: coefficient products, Lax-matrix assembly, the flow field.

Plain numpy on arrays and floats, with no input checks: the modules that call
these validate the phase point and coupling first.
"""
from __future__ import annotations

import numpy as np


def z_coeffs(xi: np.ndarray, mu: float, nu: float) -> np.ndarray:
    """z_a = -sinh(i nu + 2 xi_a)/sinh(2 xi_a) * prod_{c != a} pair factors."""
    n = len(xi)
    z = -np.sinh(1j * nu + 2 * xi) / np.sinh(2 * xi)
    diff = xi[:, None] - xi[None, :]
    summ = xi[:, None] + xi[None, :]
    mask = ~np.eye(n, dtype=bool)
    fac = np.ones((n, n), dtype=complex)
    fac[mask] = (
        np.sinh(1j * mu + diff[mask]) / np.sinh(diff[mask])
        * np.sinh(1j * mu + summ[mask]) / np.sinh(summ[mask])
    )
    return z * fac.prod(axis=1)


@np.errstate(over="ignore")  # sinh(y)**2 overflows past y ~ 355; its term is then 0, the limit
def u_coeffs(xi: np.ndarray, mu: float, nu: float) -> np.ndarray:
    """u_a as the square-root product form (real, > 1)."""
    n = len(xi)
    u = np.sqrt(1.0 + np.sin(nu) ** 2 / np.sinh(2 * xi) ** 2)
    diff = xi[:, None] - xi[None, :]
    summ = xi[:, None] + xi[None, :]
    mask = ~np.eye(n, dtype=bool)
    fac = np.ones((n, n))
    fac[mask] = np.sqrt(
        (1.0 + np.sin(mu) ** 2 / np.sinh(diff[mask]) ** 2)
        * (1.0 + np.sin(mu) ** 2 / np.sinh(summ[mask]) ** 2)
    )
    return u * fac.prod(axis=1)


def lax_entries(f: np.ndarray, lam: np.ndarray, mu: float, nu: float) -> np.ndarray:
    """L_kl = (i sin(mu) F_k conj(F_l) + i sin(mu - nu) C_kl) / sinh(i mu + Lam_k - Lam_l)."""
    big_n = len(f)
    n = big_n // 2
    c = np.zeros((big_n, big_n))
    c[:n, n:] = np.eye(n)
    c[n:, :n] = np.eye(n)
    num = 1j * np.sin(mu) * np.outer(f, f.conj()) + 1j * np.sin(mu - nu) * c
    den = np.sinh(1j * mu + lam[:, None] - lam[None, :])
    return num / den


def _xi_interaction(y: np.ndarray, alpha: float) -> np.ndarray:
    """Xi(y, alpha) = sin(alpha)^2 coth(y) / (sin(alpha)^2 + sinh(y)^2)."""
    s2 = np.sin(alpha) ** 2
    sh = np.sinh(y)
    return s2 * (np.cosh(y) / sh) / (s2 + sh * sh)


def log_u_gradient(xi: np.ndarray, mu: float, nu: float) -> np.ndarray:
    """Matrix of partials d ln(u_a) / d xi_b, from the Xi closed forms."""
    n = len(xi)
    grad = np.zeros((n, n))
    for a in range(n):
        diag = -2 * _xi_interaction(2 * xi[a], nu)
        for d in range(n):
            if d == a:
                continue
            diag -= _xi_interaction(xi[a] - xi[d], mu)
            diag -= _xi_interaction(xi[a] + xi[d], mu)
            grad[a, d] = -_xi_interaction(xi[d] - xi[a], mu) - _xi_interaction(
                xi[d] + xi[a], mu
            )
        grad[a, a] = diag
    return grad


def vector_field(xi: np.ndarray, eta: np.ndarray, mu: float, nu: float):
    """Hamiltonian vector field: xi_dot_a = sinh(eta_a) u_a,
    eta_dot_a = -sum_c cosh(eta_c) u_c dln(u_c)/dxi_a."""
    u = u_coeffs(xi, mu, nu)
    grad = log_u_gradient(xi, mu, nu)
    xi_dot = np.sinh(eta) * u
    eta_dot = -(np.cosh(eta) * u) @ grad
    return xi_dot, eta_dot
