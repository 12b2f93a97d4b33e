"""Coefficient kernels: z, u, the flow field, the phase shifts, the Lax entries.

Every coefficient is built from the function sinh(i alpha + x)/sinh(x): two-body
with alpha = mu at x = xi_a - xi_c and xi_a + xi_c, one-body with alpha = nu at
x = 2 xi_a.  All of these arguments sit in one pair table per point (_compact),
of shape (n, 2n - 1): row a holds xi_a - xi_c for every c != a, the difference
entries, then xi_a + xi_c for every c, the sum entries, whose entry at c = a
is the one-body argument 2 xi_a.  Read-only tables of the same shape, built
once per (n, mu, nu), hold sin(alpha) (the amplitudes) and cos(alpha) over it:
the nu value at 2 xi_a, the mu value everywhere else.

One pass over the pair table x gives every coefficient.  The moduli, logs and
flow terms depend on x only through the ratio r = sin(alpha)/sinh(x), since
|sinh(i alpha + x)/sinh(x)|^2 = 1 + r^2, and through tanh(x): u_a is the
square root of the product of row a of 1 + r^2, and the phase shifts sum its
logs.  The complex factors are sinh(i alpha + x)/sinh(x) = cos(alpha) +
i sin(alpha)/tanh(x), one table of them (_products): z_a is minus the product
of row a, and the pair products are the products of the table at nu = 0,
whose one-body factor is exactly 1.  coefficients gives z and u from one pair
table, as the Lax matrix takes them.  Within the coordinate cap
(lax.COORD_CAP = 300) |x| <= 600, so sinh(x) is finite, tanh(x) never
overflows, and r, at worst, underflows quietly to 0: the kernels need no
errstate.  Past about 355 a position sum overflows sinh to inf, and r = 0 is
still its limit; only the Runge-Kutta route, which has no cap, goes there, and
its callers hold the overflow under their own errstate: rk_flow around its
field evaluations, flow_residuals around the energies of its states.

The other complex kernel is shifted_sinh(alpha, x), which gives
sinh(i alpha + x) = sinh(x) cos(alpha) + i cosh(x) sin(alpha) over real x from
real ufuncs; the Lax denominators sinh(i mu + Lam_k - Lam_l) and the duality
identities take it, and nothing calls a complex sinh.

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
    """(S, T, signs): the stencils of the pair table, all read-only.

    The pair table of xi is (xi @ T).reshape(n, 2n - 1), with the c != a of
    each row in increasing order.  T holds the +-1 coefficients of
    xi_a -+ xi_c (2 at 2 xi_a), so each entry is rounded once, exactly as
    xi_a -+ xi_c, whatever the order of the product's sums; one small matrix
    product beats a broadcast construction at these sizes.  T is in Fortran
    order, the order in which the field's adjoint product T @ v rounds its
    sums.  S = [[T, 0], [0, 1]] extends T by an identity block, so that y @ S
    is [x, eta] for the flat state y = (xi, eta).  signs holds sign(c - a)
    over the difference entries of each row, shape (n, n - 1).
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
    for table in (s, t, signs):
        table.flags.writeable = False
    return s, t, signs


def _over_pairs(n: int, two_body: float, one_body: float) -> np.ndarray:
    """A read-only (n, 2n - 1) table over the pair table: one_body at 2 xi_a,
    two_body everywhere else."""
    s = np.full((n, 2 * n - 1), two_body)
    s.reshape(-1)[n - 1 :: 2 * n] = one_body
    s.flags.writeable = False
    return s


@lru_cache(maxsize=64)
def _amplitudes(n: int, mu: float, nu: float) -> np.ndarray:
    """sin(alpha) over the pair table: sin(nu) at 2 xi_a, sin(mu) everywhere else."""
    return _over_pairs(n, np.sin(mu), np.sin(nu))


@lru_cache(maxsize=64)
def _cosines(n: int, mu: float, nu: float) -> np.ndarray:
    """cos(alpha) over the pair table: cos(nu) at 2 xi_a, cos(mu) everywhere else."""
    return _over_pairs(n, np.cos(mu), np.cos(nu))


def _pairs(xi: np.ndarray) -> np.ndarray:
    """The pair table of a stack of points, shape (..., n, 2n - 1)."""
    n = xi.shape[-1]
    return np.dot(xi, _compact(n)[1]).reshape(xi.shape[:-1] + (n, 2 * n - 1))


def _ratios(xi: np.ndarray, mu: float, nu: float) -> tuple[np.ndarray, np.ndarray]:
    """(x, r): the pair table x and the ratio r = sin(alpha)/sinh(x) over it."""
    x = _pairs(xi)
    return x, _amplitudes(xi.shape[-1], mu, nu) / np.sinh(x)


def _moduli(r: np.ndarray) -> np.ndarray:
    """u_a = |z_a|: the square root of the product of row a of 1 + r^2."""
    return np.sqrt((1.0 + np.square(r)).prod(axis=-1))


def _products(x: np.ndarray, mu: float, nu: float) -> np.ndarray:
    """The products over each row of the table
    sinh(i alpha + x)/sinh(x) = cos(alpha) + i sin(alpha)/tanh(x) on the pair table x.
    Each part of a factor is one rounded cos, or sin, tanh and quotient."""
    n = x.shape[-2]
    table = np.empty(x.shape, dtype=complex)
    table.real = _cosines(n, mu, nu)
    np.divide(_amplitudes(n, mu, nu), np.tanh(x), out=table.imag)
    return table.prod(axis=-1)


def shifted_sinh(alpha: float, x: np.ndarray) -> np.ndarray:
    """sinh(i alpha + x) = sinh(x) cos(alpha) + i cosh(x) sin(alpha) over real x.

    libm's csinh takes the same formula.  Each part is a real sinh or cosh
    (within an ulp) times the rounded cos or sin of alpha, rounded once more,
    so it is within 2 ulp of its exact value.  Two real ufuncs cost less than
    one complex sinh."""
    out = np.empty(np.shape(x), dtype=complex)
    np.multiply(np.sinh(x), np.cos(alpha), out=out.real)
    np.multiply(np.cosh(x), np.sin(alpha), out=out.imag)
    return out


def coefficients(xi: np.ndarray, mu: float, nu: float) -> tuple[np.ndarray, np.ndarray]:
    """(z, u) from one pair table: z_a = -prod_c sinh(i alpha + x_ac)/sinh(x_ac)
    over row a, the one-body entry 2 xi_a at alpha = nu, and u = |z| as the
    square-root product form (real, > 1), bit for bit u_coeffs."""
    x, r = _ratios(xi, mu, nu)
    return -_products(x, mu, nu), _moduli(r)


def u_coeffs(xi: np.ndarray, mu: float, nu: float) -> np.ndarray:
    """u_a = |z_a| as the square-root product form (real, > 1): the square
    root of the product of row a of 1 + r^2."""
    return _moduli(_ratios(xi, mu, nu)[1])


def pair_product(xi: np.ndarray, mu: float) -> np.ndarray:
    """prod_{c != a} sinh(i mu + x)/sinh(x) over x = xi_a - xi_c and xi_a + xi_c:
    the factor products at nu = 0, whose one-body factor cos(0) + i 0 is 1."""
    return _products(_pairs(xi), mu, 0.0)


def delta_shifts(xi: np.ndarray, mu: float, nu: float) -> np.ndarray:
    """Phase shifts Delta_a = 1/2 ln(1 + r(2 xi_a)^2)
    + sum_{c != a} [sign(c - a) 1/2 ln(1 + r(xi_a - xi_c)^2) + 1/2 ln(1 + r(xi_a + xi_c)^2)],
    the signed sum of row a's difference entries plus the sum of its sum entries."""
    n = xi.shape[-1]
    logs = 0.5 * np.log1p(np.square(_ratios(xi, mu, nu)[1]))
    return (_compact(n)[2] * logs[..., : n - 1]).sum(axis=-1) + logs[..., n - 1 :].sum(axis=-1)


def lax_entries(f: np.ndarray, lam: np.ndarray, mu: float, nu: float) -> np.ndarray:
    """L_kl = (i sin(mu) F_k conj(F_l) + i sin(mu - nu) C_kl) / sinh(i mu + Lam_k - Lam_l),
    C the conjugation matrix.  Its term is added at the ones of C alone, the
    entries (a, n + a) and (n + a, a), which start n and 2n^2 into the flat
    matrix and lie 2n + 1 apart: elsewhere it would add exact zeros."""
    n = lam.shape[-1] // 2
    den = shifted_sinh(mu, lam[..., :, None] - lam[..., None, :])
    num = f[..., :, None] * f.conj()[..., None, :]
    num *= 1j * np.sin(mu)
    flat, shift = num.reshape(num.shape[:-2] + (-1,)), 1j * np.sin(mu - nu)
    flat[..., n : 2 * n * n : 2 * n + 1] += shift
    flat[..., 2 * n * n :: 2 * n + 1] += shift
    return np.divide(num, den, out=num)


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
    stencil, t, _ = _compact(n)
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
