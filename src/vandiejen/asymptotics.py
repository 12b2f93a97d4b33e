"""Large-t eigenvalue asymptotics of matrix flows M e^{tD} and M + tD.

For the exponential flow with strictly graded D and nonzero leading principal
minors of M, eigenvalues behave like m_j e^{t d_j} (1 + rho_j(t)) with
rho_j(t) = p_j e^{t(d_{j+1}-d_j)} - p_{j-1} e^{t(d_j-d_{j-1})} + higher order,
where m_j = D_j and p_j = L_{j+1,j} U_{j,j+1} of the unpivoted factors
M = L diag(D) U (linalg.ldu), which an exponential FlowSpec takes once;
for the linear flow they behave like
M_jj + t d_j + alpha_j / t + gamma_j / t^2 + O(1/t^3).  This module computes
the coefficient families and checks each verdict against its expansion on a
time grid: p is recovered by weighted least squares with the second-order
terms in the model, and t^2 r_j - gamma_j is checked to decay like 1/t.  A
datum at the eigensolver's rounding level counts as unmeasurable, not fitted.
Each kind has one check from a spec and a grid to its report columns and
their one verdict: exponential_summary and linear_summary.

sample_spec builds each spec from its factors, M = L diag(D) U with unit
triangular L and U, so that p_j = L_{j+1,j} U_{j,j+1} meets its floor by
construction: one generator and no rejected attempt per spec.

A FlowSpec holds one spec or a stack of specs (see FlowSpec), and every
routine here takes either: its results carry the stack's leading axes.  The
spectra of all specs at all times come from one general_eig call, and the
checks follow phase_space.raise_first, and the decay orders of every
(spec, j) column come from one stacked least-squares slope.  A bad input
value (a size below 2, a grid fit_grid rejects, or a FlowSpec of an unknown
kind, mismatched shapes, a non-finite M or d, or a Re d that is not strictly
descending) raises PhaseSpaceError; AsymptoticsError is a numerical failure
(a vanishing minor, an overflow, an ambiguous modulus ordering or matching),
or a spec of the wrong kind for its summary.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import general_eig, ldu
from .phase_space import PhaseSpaceError, VandiejenError, raise_first, seeded_uniforms, time_grid

MINOR_MARGIN = 1e-10
ORDER_GAP_TOL = 1e-8
FIT_CLAMP = 1e-14
EXP_CAP = 600.0
# sample_spec: diagonal gaps in MIN_GAP + [0, GAP_SPREAD], factor noise of scale OFF_SCALE
SPEC_MIN_GAP, SPEC_GAP_SPREAD, SPEC_OFF_SCALE = 1.5, 0.5, 0.2
# The computed eigenvalues of M + tD are off by at most 2 N eps (max|M| + t max|d|)
# (measured against mpmath at N = 3, 8, 16 and t = 4 .. 1e6); a linear residual is
# measurable where it exceeds ROUNDING_MARGIN times N eps (max|M| + t max|d|),
# so that its rounding is under a tenth of it.
ROUNDING_MARGIN = 20.0


class AsymptoticsError(VandiejenError):
    pass


def _require_size(size: int):
    if size < 2:  # a flow needs a gap R and a perturbation sum
        raise PhaseSpaceError(f"a flow spec needs size >= 2, got {size}")


@dataclass(frozen=True)
class FlowSpec:
    """A matrix flow: M paired with diagonal values d, of exponential or linear
    kind.  m of shape (..., N, N) and d of shape (..., N) hold one spec or a
    stack of specs of one kind, a single spec being the stack with no leading
    axis."""

    m: np.ndarray
    d: np.ndarray
    kind: str  # "exponential" | "linear"
    # exponential kind: (m_j, p_j) = (D_j, L_{j+1,j} U_{j,j+1}) of M = L diag(D) U
    coeffs: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        m = np.asarray(self.m, dtype=complex)
        d = np.asarray(self.d, dtype=complex)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "d", d)
        if self.kind not in ("exponential", "linear"):
            raise PhaseSpaceError(f"unknown kind {self.kind!r}")
        if d.ndim < 1 or m.shape != d.shape + d.shape[-1:]:
            raise PhaseSpaceError("M must be square and match the diagonal length")
        _require_size(d.shape[-1])
        if not (np.isfinite(m).all() and np.isfinite(d).all()):
            raise PhaseSpaceError("M and d must be finite")
        if np.any(np.diff(d.real, axis=-1) >= 0):
            raise PhaseSpaceError("Re(d) must be strictly descending")
        if self.kind == "exponential":
            lower, pivots, upper = ldu(m)
            with np.errstate(over="ignore", invalid="ignore"):  # typed below, not warned
                scale = np.maximum(np.abs(m).max(axis=(-2, -1)), 1.0)[..., None]
                minors = np.cumprod(np.abs(pivots), axis=-1)
                pairs = np.diagonal(lower, -1, -2, -1) * np.diagonal(upper, 1, -2, -1)
            if not np.isfinite(scale).all():  # before the margin, which an inf scale meets
                raise AsymptoticsError("|M| or its leading principal minors overflow")
            # a zero pivot leaves nan minors after it, which no comparison holds
            if np.any(minors <= MINOR_MARGIN * scale):
                raise AsymptoticsError("leading principal minor too close to zero")
            if not (np.isfinite(minors).all() and np.isfinite(pairs).all()):
                raise AsymptoticsError("|M| or its leading principal minors overflow")
            object.__setattr__(self, "coeffs", (pivots, pairs))

    @property
    def size(self) -> int:
        return self.d.shape[-1]

    @property
    def mu(self) -> np.ndarray:
        """Consecutive gaps of the real parts of d."""
        return -np.diff(self.d.real, axis=-1)

    @property
    def gap(self):
        """R: the minimal gap, per spec."""
        return self.mu.min(axis=-1)


def _differences(m, d):
    """(M, off, diff) for the perturbation sums: M as a complex array, the
    off-diagonal mask and d_j - d_k, with 1 on the diagonal."""
    d = np.asarray(d, dtype=complex)
    _require_size(d.shape[-1])
    off = ~np.eye(d.shape[-1], dtype=bool)
    diff = d[..., :, None] - d[..., None, :]
    if np.abs(diff[..., off]).min() < 1e-12:
        raise AsymptoticsError("repeated diagonal values")
    return np.asarray(m, dtype=complex), off, np.where(off, diff, 1.0)


def alpha_coeffs(m, d) -> np.ndarray:
    """Second-order perturbation sums alpha_j = sum_{k != j} M_jk M_kj / (d_j - d_k),
    for one (M, d) or over the leading axes of a stack.  The sum runs over k
    in order, as a loop: numpy's own reduction would regroup it."""
    m, off, diff = _differences(m, d)
    # M_jk M_kj in real parts, rounded as a complex scalar product: numpy's
    # complex array product fuses multiply-adds, which can move the last bit
    mt = m.swapaxes(-1, -2)
    prod = (m.real * mt.real - m.imag * mt.imag) + 1j * (m.real * mt.imag + m.imag * mt.real)
    terms = np.where(off, prod / diff, 0.0)
    return sum(terms[..., k] for k in range(m.shape[-1]))


def gamma_coeffs(m, d) -> np.ndarray:
    """Third-order perturbation sums
      gamma_j = sum_{k, l != j} M_jk M_kl M_lj / ((d_j - d_k)(d_j - d_l))
                - M_jj sum_{k != j} M_jk M_kj / (d_j - d_k)^2,
    for one (M, d) or over the leading axes of a stack.  Eigenvalue j of
    M + tD is t (eigenvalue j of D + M/t), whose Rayleigh-Schroedinger series
    in 1/t gives t d_j + M_jj + alpha_j / t + gamma_j / t^2 + O(1/t^3)."""
    m, off, diff = _differences(m, d)
    g = np.where(off, m / diff, 0.0)  # g_jk = M_jk / (d_j - d_k)
    h = np.where(off, m.swapaxes(-1, -2) / diff, 0.0)  # h_jl = M_lj / (d_j - d_l)
    return ((g @ m) * h).sum(axis=-1) - np.diagonal(m, axis1=-2, axis2=-1) * (g * h).sum(axis=-1)


def flow_eigenvalues(spec: FlowSpec, t) -> np.ndarray:
    """Eigenvalues of the flow matrix at time t, descending modulus, for each
    spec of the stack: shape (..., N) at one time, (..., T, N) at an array of
    T times.  One general_eig call solves every spec at every time.

    The exponential kind is centered by the mean of d before exponentiation
    (removing a scalar e^{t d_bar} factor) to stay in representable range.
    """
    ts = time_grid(t)
    if spec.kind == "exponential":
        d_bar = spec.d.mean(axis=-1)
        centered = spec.d - d_bar[..., None]
        span = centered.real.max(axis=-1) - centered.real.min(axis=-1)
        with np.errstate(over="ignore"):  # a product past the double range is over the cap
            capped = np.abs(ts) * span[..., None] > EXP_CAP
        if np.any(capped):
            raise AsymptoticsError("flow exponent exceeds overflow cap")
        scale = np.exp(ts[:, None] * centered[..., None, :])
        w = general_eig(spec.m[..., None, :, :] * scale[..., None, :])
        mods = np.abs(w)
        rel = (-np.diff(mods, axis=-1) / mods[..., :-1]).min(axis=-1)
        raise_first(rel < ORDER_GAP_TOL, AsymptoticsError, lambda i: (
            f"modulus ordering ambiguous (relative gap {rel[i]:.2e}); t too small"
        ))
        w = w * np.exp(ts * d_bar[..., None])[..., None]
    else:
        diag = np.zeros(spec.m.shape, dtype=complex)
        index = np.arange(spec.size)
        diag[..., index, index] = spec.d
        with np.errstate(over="ignore"):  # t d_j past the double range: raised below
            a = spec.m[..., None, :, :] + ts[:, None, None] * diag[..., None, :, :]
        raise_first(~np.isfinite(np.diagonal(a, axis1=-2, axis2=-1)).all(axis=-1), AsymptoticsError,
                    lambda i: f"flow matrix M + tD is not finite at t={ts[i[-1]]}")
        w = general_eig(a)
    return w if np.ndim(t) else w[..., 0, :]


def _decay_orders(t_grid: np.ndarray, r: np.ndarray, clamp, log_t: bool = False) -> np.ndarray:
    """Minus the slope of ln|r| against t (or ln t) in each (spec, j) column of
    r, shape (..., T, N), as an array of shape (..., N): one least-squares
    slope per column over its usable times, |r| > clamp (a number, or an
    array broadcast against r), for the whole stack at once; nan where fewer
    than two times are usable or their spread underflows to 0."""
    usable = np.abs(r) > clamp
    count = usable.sum(axis=-2)
    x = np.where(usable, (np.log(t_grid) if log_t else t_grid)[:, None], 0.0)
    y = np.log(np.abs(r), out=np.zeros(r.shape), where=usable)
    # deviations from the means over the usable times, 0 at the others
    n = np.maximum(count, 1)[..., None, :]
    xc, yc = (np.where(usable, v - v.sum(axis=-2, keepdims=True) / n, 0.0) for v in (x, y))
    spread = (xc * xc).sum(axis=-2)  # 0 where the squared deviations underflow
    slope = np.divide((xc * yc).sum(axis=-2), spread,
                      out=np.full(count.shape, np.nan), where=(count >= 2) & (spread > 0))
    return -slope


def fit_grid(t_grid, kind: str) -> np.ndarray:
    """The grid of a check of the given kind (phase_space.time_grid): two distinct
    times for a decay order, strictly positive for the linear kind's alpha / t."""
    t_grid = time_grid(t_grid)
    if t_grid.min() == t_grid.max():
        raise PhaseSpaceError("the time grid needs at least two distinct times")
    if kind == "linear" and t_grid.min() <= 0:
        raise PhaseSpaceError("linear-kind grids must be strictly positive")
    return t_grid


def _relative_remainders(spec: FlowSpec, mj: np.ndarray, times) -> np.ndarray:
    """rho_j(t) = lambda_j / (m_j e^{t d_j}) - 1, shape (..., T, N), from one
    stacked solve over the distinct times."""
    times, index = np.unique(np.asarray(times, dtype=float), return_inverse=True)
    rho = flow_eigenvalues(spec, times) / (
        mj[..., None, :] * np.exp(times[:, None] * spec.d[..., None, :])
    ) - 1.0
    return rho[..., index, :]


def _noise_level(rho: np.ndarray) -> np.ndarray:
    """ROUNDING_MARGIN times the eigensolver's error on the remainders rho,
    shape (..., T, 1): the product of the 1 + rho_j is det M e^{t tr D} over
    m_1 ... m_N e^{t tr D} = 1 exactly, so its computed distance from 1
    measures the error at each time (N eps at the least)."""
    closure = np.abs(np.prod(1.0 + rho, axis=-1) - 1.0)
    return ROUNDING_MARGIN * np.maximum(closure, rho.shape[-1] * np.finfo(float).eps)[..., None]


def _eps(spec: FlowSpec, t_grid: np.ndarray) -> np.ndarray:
    """eps_j(t) = e^{t(d_{j+1} - d_j)}, shape (..., T, N - 1)."""
    return np.exp(t_grid[:, None] * np.diff(spec.d, axis=-1)[..., None, :])


def _p_least_squares(rho: np.ndarray, eps_: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """p_1 .. p_{N-1} from the remainders rho on the grid, shape (..., T, N), by one weighted
    least-squares fit per (spec, j); eps_ is _eps on the grid and noise _noise_level(rho).

    The product remainder sigma_j = (1 + rho_1) ... (1 + rho_j) - 1 is that of
    lambda_1 ... lambda_j, the sum over the j-subsets S of the principal minors
    M(S) e^{t d_S} less the other j-fold products of eigenvalues, relative to
    its leading term M(1..j) e^{t(d_1 + ... + d_j)}.  Every other term moves
    an index across the gap between d_j and d_{j+1}, so it carries eps_j:
      sigma_j(t) = eps_j (p_j + a eps_j + b eps_{j-1} + c eps_{j+1} + O(eps^2)),
    second order in full (absent neighbours dropped).  The fit takes the
    terms in this order, as many as the grid has times, for y = sigma_j / eps_j.

    The eigensolver gives each lambda_j at time t with a relative error
    eps kappa(t), which noise measures at each time, so the datum y
    at t has relative error about eps kappa(t) / |sigma_j(t)|, that
    is eps kappa(t) / |p_j eps_j(t)|, and each time is weighted by the
    inverse, |eps_j(t)| / (eps kappa(t)) (the constant |p_j| drops out).  The
    recovered p_j is then off by the neglected O(eps_j(t_0)^2) terms at the
    first time t_0 plus eps kappa / |eps_j(t_0)|, relative to |p_j|.  On the
    default grid 4..10 (eps_j(4) <= e^{-5.8}) this reads at most 1.14e-5 at
    N <= 8 and 6.30e-4 at N = 10..16 over seeds 0-399, inside the 1e-3 bound
    of p_recovery_rel_err.
    """
    sigma = np.cumprod(1.0 + rho[..., :-1], axis=-1) - 1.0
    # the neighbours eps_{j-1} and eps_{j+1}, 0 where absent
    before, after = np.zeros((2,) + eps_.shape, dtype=eps_.dtype)
    before[..., 1:], after[..., :-1] = eps_[..., :-1], eps_[..., 1:]
    terms = (np.ones(eps_.shape), eps_, before, after)
    weight = np.abs(eps_) / noise
    # rows (spec, j, time), columns the model terms; the weighted datum
    # weight * sigma / eps is sigma times the phase of 1 / eps, without overflow
    a = np.stack([weight * v for v in terms[: eps_.shape[-2]]], axis=-1).swapaxes(-3, -2)
    b = (sigma * (weight / eps_)).swapaxes(-1, -2)[..., None]
    scale = np.abs(a).max(axis=-2, keepdims=True)
    scale = np.where(scale > 0, scale, 1.0)
    return (np.linalg.pinv(a / scale) @ b)[..., 0, 0] / scale[..., 0, 0]


def exponential_summary(spec: FlowSpec, t_grid) -> dict:
    """The exponential-flow check on the grid as report columns, one array per
    column over the stack: the gap R, the smallest fitted order, the relative
    error of the least-squares p recovery (_p_least_squares) against the p
    of the spec's factors (FlowSpec.coeffs), and the verdict "passed".  The
    remainders rho_j come from one stacked solve; less their first-order
    model, they decay at about 2R, fitted over the times where they clear
    the eigensolver's noise.  A row passes where every measurable component
    decays at 1.8R or faster and no |rho_j| grows from the first time to the
    last.  A row with no measurable component (a grid too late) has no
    smallest order and no measurable recovery, both nan, and does not pass."""
    if spec.kind != "exponential":
        raise AsymptoticsError("spec is not of exponential kind")
    t_grid = fit_grid(t_grid, spec.kind)
    mj, pj = spec.coeffs
    rho = _relative_remainders(spec, mj, t_grid)
    eps_, noise = _eps(spec, t_grid), _noise_level(rho)
    # first-order model p_j eps_j - p_{j-1} eps_{j-1}, eps_j = e^{t(d_{j+1} - d_j)}
    first = pj[..., None, :] * eps_
    model = np.zeros((2,) + rho.shape, dtype=first.dtype)
    model[0, ..., :-1], model[1, ..., 1:] = first, first
    subtracted = rho - (model[0] - model[1])
    orders = _decay_orders(t_grid, subtracted, clamp=noise)
    min_order = np.fmin.reduce(orders, axis=-1)  # nan where no component is measurable
    shrinks = np.abs(rho[..., -1, :]) <= np.abs(rho[..., 0, :]) + FIT_CLAMP
    recovered = _p_least_squares(rho, eps_, noise)
    recovery = (np.abs(recovered - pj) / np.maximum(np.abs(pj), 1e-12)).max(axis=-1)
    return {
        "R": spec.gap,
        "min_fitted_order": min_order,
        "p_recovery_rel_err": np.where(np.isnan(min_order), np.nan, recovery),
        "passed": (min_order >= 1.8 * spec.gap) & np.all(shrinks, axis=-1),
    }


def _linear_residuals(spec: FlowSpec, t_grid: np.ndarray, lams, shift) -> np.ndarray:
    """r_j(t) = lambda_j - (M_jj + t d_j + shift_j / t), shape (..., T, N),
    with shift alpha or 0 (shape (..., N)), each prediction matched to its
    nearest eigenvalue of the spectrum lams[..., i, :] at t_grid[i]; a shared
    nearest eigenvalue is an error."""
    t = t_grid[:, None]
    diag = np.diagonal(spec.m, axis1=-2, axis2=-1)[..., None, :]
    with np.errstate(over="ignore"):  # shift / t past the double range: unmatched, raised below
        pred = diag + t * spec.d[..., None, :] + np.asarray(shift)[..., None, :] / t
    assign = np.argmin(np.abs(lams[..., :, None] - pred[..., None, :]), axis=-2)
    ordered = np.sort(assign, axis=-1)
    shared = np.any(ordered[..., 1:] == ordered[..., :-1], axis=-1)
    raise_first(shared, AsymptoticsError, lambda i: (
        f"ambiguous eigenvalue matching at t={t_grid[i[-1]]}"
    ))
    return np.take_along_axis(lams, assign, axis=-1) - pred


def cauchy_bound(spec: FlowSpec) -> tuple[np.ndarray, np.ndarray]:
    """(radius, constant), each of shape (..., N), bounding the linear
    expansion beyond gamma: t^3 |r_j(t) - gamma_j / t^2| <= constant_j /
    (1 - 1 / (radius_j t)) at every t > 1 / radius_j, r_j the residual after
    the alpha term.

    With s = 1/t, eigenvalue j of M + tD is t lambda_j(s), lambda_j(s) that
    of diag(d_k + s M_kk) + s B, B the off-diagonal part of M.  By Bauer-Fike
    the eigenvalues lie in the discs |z - d_k - s M_kk| <= |s| ||B||_2, and
    disc j is apart from the others while |s| < radius_j =
    min_{k != j} |d_j - d_k| / (2 ||B||_2 + |M_jj - M_kk|); there
    lambda_j(s) - d_j - s M_jj is analytic and at most |s| ||B||_2, so
    Cauchy's estimate bounds its s^k coefficient by ||B||_2 radius_j^(1-k),
    and the terms from k = 4 on sum to the bound with
    constant_j = ||B||_2 / radius_j^3."""
    m, off, diff = _differences(spec.m, spec.d)
    b = np.where(off, m, 0.0)
    norm = np.linalg.norm(b, 2, axis=(-2, -1))[..., None, None]
    diag = np.diagonal(m, axis1=-2, axis2=-1)
    spread = np.abs(diag[..., :, None] - diag[..., None, :])
    radius = np.where(off, np.abs(diff) / (2.0 * norm + spread), np.inf).min(axis=-1)
    return radius, norm[..., 0] / radius ** 3


def _t2_bounded(spec: FlowSpec, t_grid: np.ndarray, resid: np.ndarray, level) -> np.ndarray:
    """Whether t^2 r_j - gamma_j = O(1/t) (gamma_coeffs) holds within the
    theorem's own bound, per spec: t |t^2 r_j - gamma_j| within the constant
    of cauchy_bound plus the rounding allowance t^3 level, at every time
    inside the bound's range.  resid holds the residuals r_j after the alpha
    term, shape (..., T, N), and level their rounding level, shape (..., T, 1)."""
    gamma = gamma_coeffs(spec.m, spec.d)
    # t |t^2 r_j - gamma_j| and its bound in units of 8^e, 2^e above the
    # largest time and 1: no cube overflows, and the scaling by a power of two
    # is exact away from subnormals, so it moves no verdict
    radius, constant = cauchy_bound(spec)
    inside = t_grid[:, None] * radius[..., None, :] > 1.0
    tail = np.divide(constant[..., None, :], 1.0 - 1.0 / (t_grid[:, None] * radius[..., None, :]),
                     out=np.full(inside.shape, np.inf), where=inside)
    e = max(int(np.frexp(t_grid.max())[1]), 0)
    t_e = np.ldexp(t_grid, -e)[:, None]
    deviation = t_e * np.abs(t_e ** 2 * resid - gamma[..., None, :] * np.ldexp(1.0, -2 * e))
    bounded = deviation <= np.ldexp(tail, -3 * e) + t_e ** 3 * level
    return np.all(~inside | bounded, axis=(-2, -1))


def _measured_mean(orders: np.ndarray) -> np.ndarray:
    """The mean of the fitted orders over the last axis, unmeasurable (nan)
    components left out; nan where no component is measurable."""
    measured = ~np.isnan(orders)
    return np.divide(np.where(measured, orders, 0.0).sum(axis=-1), measured.sum(axis=-1),
                     out=np.full(orders.shape[:-1], np.nan), where=measured.any(axis=-1))


def linear_summary(spec: FlowSpec, t_grid) -> dict:
    """The linear-flow check on the grid as report columns, one array per
    column over the stack: the gap R, the mean decay orders of the residual
    r_j(t) = lambda_j - M_jj - t d_j - alpha_j / t with and without the alpha
    term over the measurable components (nan where none is; about 2 and 1),
    and the verdict "passed", where _t2_bounded holds and the two orders lie
    within 0.3 of 2 and of 1 (so a row with no measurable component fails).
    One spectrum per time serves both residuals, each counted at the times
    where it clears ROUNDING_MARGIN times the eigensolver's rounding level
    N eps (max|M| + t max|d|)."""
    if spec.kind != "linear":
        raise AsymptoticsError("spec is not of linear kind")
    t_grid = fit_grid(t_grid, spec.kind)
    alpha = alpha_coeffs(spec.m, spec.d)
    lams = flow_eigenvalues(spec, t_grid)
    resid, resid0 = (
        _linear_residuals(spec, t_grid, lams, shift) for shift in (alpha, np.zeros(alpha.shape))
    )
    # the rounding level ROUNDING_MARGIN N eps (max|M| + t max|d|), shape (..., T, 1)
    m_max = np.abs(spec.m).max(axis=(-2, -1))[..., None, None]
    d_max = np.abs(spec.d).max(axis=-1)[..., None, None]
    level = ROUNDING_MARGIN * spec.size * np.finfo(float).eps * (m_max + t_grid[:, None] * d_max)
    order, order0 = (
        _measured_mean(_decay_orders(t_grid, r, log_t=True, clamp=level)) for r in (resid, resid0)
    )
    return {
        "R": spec.gap,
        "order_with_alpha": order,
        "order_without_alpha": order0,
        "passed": _t2_bounded(spec, t_grid, resid, level)
        & (np.abs(order - 2.0) <= 0.3) & (np.abs(order0 - 1.0) <= 0.3),
    }


def sample_spec(size: int, seed, kind: str = "exponential") -> FlowSpec:
    """Deterministic well-conditioned flow spec: one seed gives one spec, a
    sequence of seeds the stack of their specs, spec i being the spec of
    seed[i] alone.

    The diagonal gaps take evenly spread slots in a random order, each with a
    small jitter (pairwise distinct, so the second-order terms of the p
    recovery stay apart), and M = L diag(D) U is built from its factors: L
    and U unit lower and upper triangular, D diagonal, with
      D_j = 1 + OFF_SCALE * z and every other entry of L and U OFF_SCALE * z,
        z complex with real and imaginary parts uniform on [-1, 1],
      except L_{j+1,j} and U_{j,j+1}: modulus uniform on
        [OFF_SCALE / sqrt 2, OFF_SCALE], phase uniform.
    By Cauchy-Binet, the minor on the indices 1..j-1, j+1 is
    D_1 ... D_{j-1} (D_j L_{j+1,j} U_{j,j+1} + D_{j+1}), and m_j = D_j, so
    p_j = L_{j+1,j} U_{j,j+1} and |p_j| >= OFF_SCALE^2 / 2 by construction.

    Spec s reads its numbers from one phase_space.seeded_uniforms row, in
    this order: N - 1 slot keys (the slots go in the order of their keys),
    N - 1 jitters, the real parts and then the imaginary parts of the noise
    of D, L and U (N + 2 N^2 each, L and U row by row), 2 (N - 1) moduli and
    2 (N - 1) phases of the pairs (L's, then U's).  A uniform u maps to the
    interval [a, b] as a + (b - a) u, as rng.uniform maps it.  The stack is
    then built in one expression per factor.
    """
    _require_size(size)
    n = size
    counts = np.array([n - 1, n - 1, n + 2 * n * n, n + 2 * n * n, 2 * (n - 1), 2 * (n - 1)])
    u, one = seeded_uniforms(seed, counts.sum(), "specs")
    keys, jitter, re, im, moduli, phases = np.split(u, np.cumsum(counts)[:-1], axis=-1)
    slots = np.linspace(0.0, SPEC_GAP_SPREAD, n - 1)[np.argsort(keys, axis=-1, kind="stable")]
    spread = 0.1 * SPEC_GAP_SPREAD / max(n - 2, 1)
    gaps = SPEC_MIN_GAP + slots + spread * (-1.0 + 2.0 * jitter)
    d = np.concatenate([np.zeros((len(u), 1)), -np.cumsum(gaps, axis=-1)], axis=-1)
    d = (d - d.mean(axis=-1, keepdims=True)).astype(complex)
    z = SPEC_OFF_SCALE * ((-1.0 + 2.0 * re) + 1j * (-1.0 + 2.0 * im))
    lower, upper = z[:, n:].reshape(-1, 2, n, n).swapaxes(0, 1)
    lower, upper = np.tril(lower, -1) + np.eye(n), np.triu(upper, 1) + np.eye(n)
    floor = 1.0 / np.sqrt(2.0)
    pair = SPEC_OFF_SCALE * (floor + (1.0 - floor) * moduli) * np.exp(2j * np.pi * phases)
    j = np.arange(n - 1)
    lower[:, j + 1, j], upper[:, j, j + 1] = pair[:, : n - 1], pair[:, n - 1 :]
    m = (lower * (1.0 + z[:, None, :n])) @ upper
    return FlowSpec(m=m[0], d=d[0], kind=kind) if one else FlowSpec(m=m, d=d, kind=kind)
