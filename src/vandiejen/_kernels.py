"""Coefficient kernels: z, u, the flow field, the phase shifts, the Lax entries.

Every coefficient is built from the function sinh(i alpha + x)/sinh(x): two-body
with alpha = mu at x = xi_a - xi_c and xi_a + xi_c, one-body with alpha = nu at
x = 2 xi_a.  The one complex kernel is shifted_sinh(alpha, x), which gives
sinh(i alpha + x) = sinh(x) cos(alpha) + i cosh(x) sin(alpha) over real x from
real ufuncs; z, the pair products, the Lax denominators sinh(i mu + Lam_k -
Lam_l) and the duality identities take it, and nothing calls a complex sinh.

All of these arguments sit in one pair table per point (_compact), of shape
(n, 2n - 1): row a holds xi_a - xi_c for every c != a, the difference
entries, then xi_a + xi_c for every c, the sum entries, whose entry at c = a
is the one-body argument 2 xi_a.  A read-only amplitude table of the same
shape, built once per (n, mu, nu), holds sin(nu) at 2 xi_a and sin(mu)
everywhere else.  u, the phase shifts and the flow field read the whole
table; the pair products read its difference entries and its sum entries
with c != a.

The moduli, logs and flow terms depend on x only through
q = (sin(alpha) / sinh(x))^2, since |sinh(i alpha + x)/sinh(x)|^2 = 1 + q, and
through tanh(x).  Within the coordinate cap (lax.COORD_CAP = 300) |x| <= 600,
so sinh(x) is finite and q, at worst, underflows quietly to 0: the kernels
need no errstate.  Past about 355 a position sum overflows sinh to inf, and
q = 0 is still its limit; only the Runge-Kutta route, which has no cap, goes
there, and its callers hold the overflow under their own errstate: rk_flow
around its field evaluations, flow_residuals around the energies of its
states.

The tables and the coefficients (z, u, the pair products, the phase shifts,
the Lax entries) take a stack of points: xi of shape (..., n) gives tables of
shape (..., n, 2n - 1) and coefficients of shape (..., n), and a single point
is the stack with no leading axis.  Each point's values are bit-for-bit those
of the point alone: every operation on a stack is elementwise, or a reduction
or small product over one point's own axes.

The flow field takes one point, as a flat state (xi, eta): field_kernel
builds its tables once per (n, mu, nu) and returns a function that writes the
field in place, so that a trajectory evaluates it with no allocation.  It is
one forward pass over the pair table, which gives u and xi_dot bit for bit as
u_coeffs does, and one adjoint pass, the chain rule through the stencil,
which gives eta_dot = -dH/dxi.  It is the one implementation of the field;
dynamics.vector_field calls it too.

Plain numpy on arrays and floats, with no input checks: the modules that call
these check the phase point and coupling first.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=64)
def _compact(n: int):
    """(S, T, signs, sums): the stencils of the pair table, all read-only.

    The pair table of xi is (xi @ T).reshape(n, 2n - 1), with the c != a of
    each row in increasing order.  T holds the +-1 coefficients of
    xi_a -+ xi_c (2 at 2 xi_a), so each entry is rounded once, exactly as
    xi_a -+ xi_c, whatever the order of the product's sums; one small matrix
    product beats a broadcast construction at these sizes.  T is in Fortran
    order, the order in which the field's adjoint product T @ v rounds its
    sums.  S = [[T, 0], [0, 1]] extends T by an identity block, so that y @ S
    is [x, eta] for the flat state y = (xi, eta).  signs holds sign(c - a)
    over the difference entries of each row, and sums the flat indices of the
    sum entries with c != a, both of shape (n, n - 1).
    """
    eye, a, j = np.eye(n), np.arange(n)[:, None], np.arange(n - 1)
    above = j >= a  # row a's difference entry j has c = j + 1 > a, else c = j < a
    others = j + above
    rows = np.concatenate([eye[:, None] - eye[others], eye[:, None] + eye], axis=1)
    t = rows.reshape(-1, n).T
    size = t.shape[1]
    s = np.zeros((2 * n, size + n))
    s[:n, :size] = t
    s[n:, size:] = eye
    signs = np.where(above, 1.0, -1.0)
    sums = a * (2 * n - 1) + n - 1 + others
    for table in (s, t, signs, sums):
        table.flags.writeable = False
    return s, t, signs, sums


@lru_cache(maxsize=64)
def _amplitudes(n: int, mu: float, nu: float) -> np.ndarray:
    """The read-only (n, 2n - 1) table sin(alpha) over the pair table:
    sin(nu) at 2 xi_a, sin(mu) everywhere else."""
    s = np.full((n, 2 * n - 1), np.sin(mu))
    s.reshape(-1)[n - 1 :: 2 * n] = np.sin(nu)
    s.flags.writeable = False
    return s


def _pairs(xi: np.ndarray) -> np.ndarray:
    """The pair table of a stack of points, shape (..., n, 2n - 1)."""
    n = xi.shape[-1]
    return np.dot(xi, _compact(n)[1]).reshape(xi.shape[:-1] + (n, 2 * n - 1))


def _table(xi: np.ndarray, mu: float, nu: float) -> np.ndarray:
    """q = (sin(alpha) / sinh(x))^2 over the pair table x."""
    return np.square(_amplitudes(xi.shape[-1], mu, nu) / np.sinh(_pairs(xi)))


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
    """prod_{c != a} sinh(i mu + x)/sinh(x) over x = xi_a - xi_c and xi_a + xi_c:
    row a's difference entries and its sum entries with c != a."""
    n = xi.shape[-1]
    x = _pairs(xi)
    d, s = x[..., : n - 1], x.reshape(xi.shape[:-1] + (-1,))[..., _compact(n)[3]]
    return (shifted_sinh(mu, d) / np.sinh(d) * shifted_sinh(mu, s) / np.sinh(s)).prod(axis=-1)


def z_coeffs(xi: np.ndarray, mu: float, nu: float) -> np.ndarray:
    """z_a = -sinh(i nu + 2 xi_a)/sinh(2 xi_a) * pair_product(xi, mu)_a."""
    return -shifted_sinh(nu, 2 * xi) / np.sinh(2 * xi) * pair_product(xi, mu)


def u_coeffs(xi: np.ndarray, mu: float, nu: float) -> np.ndarray:
    """u_a = |z_a| as the square-root product form (real, > 1): the square
    root of the product of row a of 1 + q."""
    return np.sqrt((1.0 + _table(xi, mu, nu)).prod(axis=-1))


def delta_shifts(xi: np.ndarray, mu: float, nu: float) -> np.ndarray:
    """Phase shifts Delta_a = 1/2 ln(1 + q(2 xi_a))
    + sum_{c != a} [sign(c - a) 1/2 ln(1 + q(xi_a - xi_c)) + 1/2 ln(1 + q(xi_a + xi_c))],
    the signed sum of row a's difference entries plus the sum of its sum entries."""
    n = xi.shape[-1]
    logs = 0.5 * np.log1p(_table(xi, mu, nu))
    return (_compact(n)[2] * logs[..., : n - 1]).sum(axis=-1) + logs[..., n - 1 :].sum(axis=-1)


def lax_denominators(lam: np.ndarray, mu: float) -> np.ndarray:
    """The table sinh(i mu + Lam_k - Lam_l) of the Lax entries."""
    return shifted_sinh(mu, lam[..., :, None] - lam[..., None, :])


def lax_entries(f: np.ndarray, den: np.ndarray, c: np.ndarray, mu: float, nu: float) -> np.ndarray:
    """L_kl = (i sin(mu) F_k conj(F_l) + i sin(mu - nu) C_kl) / den_kl, with den
    the lax_denominators table."""
    outer = f[..., :, None] * f.conj()[..., None, :]
    num = 1j * np.sin(mu) * outer + 1j * np.sin(mu - nu) * c
    return num / den


def field_kernel(n: int, mu: float, nu: float):
    """The Hamiltonian vector field at (n, mu, nu) as field(y, out), which
    reads the flat state y = (xi, eta) and writes (xi_dot, eta_dot) into the
    contiguous out: xi_dot_a = sinh(eta_a) u_a, eta_dot = -dH/dxi with
    H = sum_a w_a, w = cosh(eta) u.

    The field runs over the pair table x of _compact, one forward and one
    adjoint pass.  Forward: one product y @ S gives [x, eta], one sinh both
    sinh(x) and sinh(eta), and u_a is the square root of the product of row a
    of 1 + q, as in u_coeffs.  Adjoint: with Xi = q / (tanh(x) (1 + q)) = -d/dx ln sqrt(1 + q),
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
    stencil, t, _, _ = _compact(n)
    width, size = 2 * n - 1, t.shape[1]
    amplitudes = _amplitudes(n, mu, nu)
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
