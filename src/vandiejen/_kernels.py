"""Coefficient kernels: z, u, the flow field, the phase shifts, the Lax entries.

Every coefficient is built from the function sinh(i alpha + x)/sinh(x): two-body
with alpha = mu at x = xi_a - xi_c and xi_a + xi_c, one-body with alpha = nu at
x = 2 xi_a.  The one complex kernel is shifted_sinh(alpha, x), which gives
sinh(i alpha + x) = sinh(x) cos(alpha) + i cosh(x) sin(alpha) over real x from
real ufuncs; z, the pair products, the Lax denominators sinh(i mu + Lam_k -
Lam_l) and the duality identities take it, and nothing calls a complex sinh.
The real kernels u and the phase shifts hold all of it in one
(2, n, n) table per point: x[0] = xi_a - xi_c with +inf on the diagonal, and
x[1] = xi_a + xi_c, whose diagonal 2 xi_a is exactly the one-body argument.  A
read-only amplitude table of the same shape, built once per (n, mu, nu), holds
sin(nu) on the diagonal of x[1] and sin(mu) everywhere else, so the diagonal
of the sum block is the one-body term at 2 xi_a with nu.  The flow field
takes the same entries without the difference diagonal: a compact table of
2n - 1 per particle (_compact), with its amplitudes picked from the same
table.

The moduli, logs and flow terms depend on x only through
q = (sin(alpha) / sinh(x))^2, since |sinh(i alpha + x)/sinh(x)|^2 = 1 + q, and
through tanh(x).  On the diagonal of x[0] sinh = inf and tanh = 1, so every
modulus factor there is exactly 1 and every log term exactly 0, with no
mask.  Within the coordinate cap (lax.COORD_CAP = 300) |x| <= 600, so sinh(x)
is finite and q, at worst, underflows quietly to 0: the kernels need no
errstate.  Past about 355 a position sum overflows sinh to inf, and q = 0 is
still its limit; only the Runge-Kutta route, which has no cap, goes there, and
its callers hold the overflow under their own errstate: rk_flow around its
field evaluations, flow_residuals around the energies of its states.

The tables and the coefficients (z, u, the pair products, the phase shifts,
the Lax entries) take a stack of points: xi of shape (..., n) gives tables of
shape (..., 2, n, n) and coefficients of shape (..., n), and a single point is
the stack with no leading axis.  Each point's values are bit-for-bit those of the point alone: every
operation on a stack is elementwise, or a reduction or small product over one
point's own axes.

The flow field takes one point, as a flat state (xi, eta): field_kernel
builds its tables once per (n, mu, nu) and returns a function that writes the
field in place, so that a trajectory evaluates it with no allocation.  It is
one forward pass over the compact table, which gives u and xi_dot bit for bit
as u_coeffs does, and one adjoint pass, the chain rule through the stencil,
which gives eta_dot = -dH/dxi.  It is the one implementation of the field;
dynamics.vector_field calls it too.

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


def shifted_sinh(alpha: float, x: np.ndarray) -> np.ndarray:
    """sinh(i alpha + x) = sinh(x) cos(alpha) + i cosh(x) sin(alpha) over real x.

    The one complex kernel: every coefficient's sinh(i alpha + x) goes
    through it.  libm's csinh takes the same formula.  Each part is a real
    sinh or cosh (within an ulp) times the rounded cos or sin of alpha,
    rounded once more, so it is within 2 ulp of its exact value.  Two real
    ufuncs cost less than one complex sinh."""
    out = np.empty(np.shape(x), dtype=complex)
    np.multiply(np.sinh(x), np.cos(alpha), out=out.real)
    np.multiply(np.cosh(x), np.sin(alpha), out=out.imag)
    return out


def pair_product(xi: np.ndarray, mu: float) -> np.ndarray:
    """prod_{c != a} sinh(i mu + x)/sinh(x) over x = xi_a - xi_c and xi_a + xi_c.

    The diagonal is left out: it holds +inf and the one-body argument 2 xi_a.
    """
    lead, n = xi.shape[:-1], xi.shape[-1]
    off = _off_diagonal(n)
    x = _pair_table(xi).reshape(lead + (2, n * n))[..., off]
    d, s = x[..., 0, :], x[..., 1, :]
    fac = np.ones(lead + (n * n,), dtype=complex)
    fac[..., off] = shifted_sinh(mu, d) / np.sinh(d) * shifted_sinh(mu, s) / np.sinh(s)
    return fac.reshape(lead + (n, n)).prod(axis=-1)


def z_coeffs(xi: np.ndarray, mu: float, nu: float) -> np.ndarray:
    """z_a = -sinh(i nu + 2 xi_a)/sinh(2 xi_a) * pair_product(xi, mu)_a."""
    return -shifted_sinh(nu, 2 * xi) / np.sinh(2 * xi) * pair_product(xi, mu)


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
    return shifted_sinh(mu, lam[..., :, None] - lam[..., None, :])


def lax_entries(f: np.ndarray, den: np.ndarray, c: np.ndarray, mu: float, nu: float) -> np.ndarray:
    """L_kl = (i sin(mu) F_k conj(F_l) + i sin(mu - nu) C_kl) / den_kl, with den
    the lax_denominators table."""
    outer = f[..., :, None] * f.conj()[..., None, :]
    num = 1j * np.sin(mu) * outer + 1j * np.sin(mu - nu) * c
    return num / den


@lru_cache(maxsize=64)
def _compact(n: int):
    """(columns, S, T) of the flow field's compact table, all read-only.

    Row a of the table holds x[0]_ac = xi_a - xi_c for every c != a, then
    x[1]_ac = xi_a + xi_c for every c, 2n - 1 entries; at c = a that is the
    one-body argument 2 xi_a.  columns are their flat indices in the pair
    table, T = _stencil(n)[0][:, columns] their (n, n (2n - 1)) stencil, and
    S = [[T, 0], [0, 1]] extends it by an identity block, so that y @ S is
    [x, eta] for the flat state y = (xi, eta), every entry rounded as in the
    pair table.
    """
    off = _off_diagonal(n).reshape(n, n - 1)
    columns = np.concatenate([off, n * n + np.arange(n * n).reshape(n, n)], axis=1).reshape(-1)
    t = _stencil(n)[0][:, columns]
    size = len(columns)
    s = np.zeros((2 * n, size + n))
    s[:n, :size] = t
    s[n:, size:] = np.eye(n)
    for table in (columns, s, t):
        table.flags.writeable = False
    return columns, s, t


def field_kernel(n: int, mu: float, nu: float):
    """The Hamiltonian vector field at (n, mu, nu) as field(y, out), which
    reads the flat state y = (xi, eta) and writes (xi_dot, eta_dot) into the
    contiguous out: xi_dot_a = sinh(eta_a) u_a, eta_dot = -dH/dxi with
    H = sum_a w_a, w = cosh(eta) u.

    The field runs over the compact table x of _compact, one forward and one
    adjoint pass.  Forward: one product y @ S gives [x, eta], one sinh both
    sinh(x) and sinh(eta), and u_a is the square root of the product of row a
    of 1 + q.  Adjoint: with Xi = q / (tanh(x) (1 + q)) = -d/dx ln sqrt(1 + q),
    d ln(u_a)/dx_ac = -Xi_ac, so the chain rule through the stencil gives
    eta_dot = T vec(diag(w) Xi), row a of Xi weighted by w_a.  The one-body
    entry 2 xi_a has stencil coefficient 2, so it enters eta_dot_a twice.  The
    weighting is a product with diag(w), whose off-diagonal zeros add exact
    zeros: a broadcast multiply by w would buffer the table on every call.

    The stencil, the amplitudes and every scratch table are fetched or built
    here, once, and every ufunc and product is bound here too; each call then
    makes 15 numpy calls, every one into a buffer with its out passed by
    position, and allocates no array.  A kernel serves one caller at a time:
    its tables are overwritten by each call.
    """
    columns, stencil, t = _compact(n)
    width, size = 2 * n - 1, len(columns)
    amplitudes = _amplitudes(n, mu, nu).reshape(-1)[columns].reshape(n, width)
    ones = np.ones((n, width))
    forward, sinh_forward = np.empty((2, size + n))
    x, eta = forward[:size].reshape(n, width), forward[size:]
    sinh_x, sinh_eta = sinh_forward[:size].reshape(n, width), sinh_forward[size:]
    q, one_plus_q, xi_term, weighted = np.empty((4, n, width))
    flat_weighted = weighted.reshape(-1)
    u = np.empty(n)
    weights = np.zeros((n, n))
    w = weights.reshape(-1)[:: n + 1]

    # ndarray.dot, not np.dot: the latter dispatches through __array_function__
    dot, sinh, cosh, tanh, sqrt = np.ndarray.dot, np.sinh, np.cosh, np.tanh, np.sqrt
    add, multiply, divide, square = np.add, np.multiply, np.divide, np.square
    row_product, weigh, adjoint = np.multiply.reduce, weights.dot, t.dot

    def field(y: np.ndarray, out: np.ndarray) -> None:
        dot(y, stencil, forward)
        sinh(forward, sinh_forward)
        divide(amplitudes, sinh_x, q)
        square(q, q)
        add(ones, q, one_plus_q)
        tanh(x, xi_term)
        multiply(xi_term, one_plus_q, xi_term)
        divide(q, xi_term, xi_term)
        row_product(one_plus_q, 1, None, u)
        sqrt(u, u)
        cosh(eta, w)
        multiply(w, u, w)
        multiply(sinh_eta, u, out[:n])
        weigh(xi_term, weighted)
        adjoint(flat_weighted, out[n:])

    return field
