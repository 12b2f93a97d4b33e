"""Large-t eigenvalue asymptotics of matrix flows M e^{tD} and M + tD.

For the exponential flow with strictly graded D and nonzero leading principal
minors of M, eigenvalues behave like m_j e^{t d_j} (1 + rho_j(t)) with
rho_j(t) = p_j e^{t(d_{j+1}-d_j)} - p_{j-1} e^{t(d_j-d_{j-1})} + higher order;
for the linear flow they behave like M_jj + t d_j + alpha_j / t + O(1/t^2).
This module computes the coefficient families and verifies the decay orders
empirically on time grids.

A FlowSpec holds one spec or a stack of specs (see FlowSpec), and every
routine here takes either: its results carry the stack's leading axes.  The
spectra of all specs at all times come from one general_eig call, and the
checks follow phase_space.raise_first, and the decay orders of every
(spec, j) column come from one stacked least-squares slope.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import general_eig, principal_minors
from .phase_space import VandiejenError, _seed_list, raise_first

MINOR_MARGIN = 1e-10
ORDER_GAP_TOL = 1e-8
FIT_CLAMP = 1e-14
EXP_CAP = 600.0
SPEC_ATTEMPTS = 200
SPEC_BLOCK = 20  # attempts per seed in one round of sample_spec; divides SPEC_ATTEMPTS
# sample_spec: diagonal gaps in MIN_GAP + [0, GAP_SPREAD], M = I + OFF_SCALE * noise
SPEC_MIN_GAP, SPEC_GAP_SPREAD, SPEC_OFF_SCALE = 1.5, 0.5, 0.2
P_RECOVERY_TIMES = (8.0, 10.0)  # the two sample times of exponential_summary's p recovery


class AsymptoticsError(VandiejenError):
    pass


def _require_size(size: int):
    if size < 2:  # a flow needs a gap R and a perturbation sum
        raise AsymptoticsError(f"a flow spec needs size >= 2, got {size}")


@dataclass(frozen=True)
class FlowSpec:
    """A matrix flow: M paired with diagonal values d, of exponential or linear
    kind.  m of shape (..., N, N) and d of shape (..., N) hold one spec or a
    stack of specs of one kind, a single spec being the stack with no leading
    axis."""

    m: np.ndarray
    d: np.ndarray
    kind: str  # "exponential" | "linear"

    def __post_init__(self):
        m = np.asarray(self.m, dtype=complex)
        d = np.asarray(self.d, dtype=complex)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "d", d)
        if self.kind not in ("exponential", "linear"):
            raise AsymptoticsError(f"unknown kind {self.kind!r}")
        if d.ndim < 1 or m.shape != d.shape + d.shape[-1:]:
            raise AsymptoticsError("M must be square and match the diagonal length")
        _require_size(d.shape[-1])
        if np.any(np.diff(d.real, axis=-1) >= 0):
            raise AsymptoticsError("Re(d) must be strictly descending")
        if self.kind == "exponential":
            pi = principal_minors(m)[0]
            scale = np.maximum(np.abs(m).max(axis=(-2, -1)), 1.0)
            if np.any(np.abs(pi).min(axis=-1) <= MINOR_MARGIN * scale):
                raise AsymptoticsError("leading principal minor too close to zero")

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


def _nonzero(pi: np.ndarray) -> np.ndarray:
    if np.abs(pi).min() == 0:
        raise AsymptoticsError("zero principal minor")
    return pi


def _minor_ratios(pi: np.ndarray) -> np.ndarray:
    """pi_j / pi_{j-1} (pi_0 = 1) over the last axis of the leading principal minors pi."""
    return pi / np.concatenate([np.ones_like(pi[..., :1]), pi[..., :-1]], axis=-1)


def _p_from_minors(pi: np.ndarray, bordered: np.ndarray) -> np.ndarray:
    """p_j over the last axis, from the two minor sets of principal_minors."""
    mj = _minor_ratios(pi)
    return bordered / pi[..., :-1] - mj[..., 1:] / mj[..., :-1]


def p_coeffs(m) -> np.ndarray:
    """First-order remainder coefficients p_1 .. p_{N-1}:
    p_j = M(1..j-1, j+1) / M(1..j) - m_{j+1} / m_j (principal minors by index set)."""
    pi, bordered = principal_minors(m)
    return _p_from_minors(_nonzero(pi), bordered)


def alpha_coeffs(m, d) -> np.ndarray:
    """Second-order perturbation sums alpha_j = sum_{k != j} M_jk M_kj / (d_j - d_k),
    for one (M, d) or over the leading axes of a stack.  The sum runs over k
    in order, as a loop: numpy's own reduction would regroup it."""
    m = np.asarray(m, dtype=complex)
    d = np.asarray(d, dtype=complex)
    _require_size(d.shape[-1])
    off = ~np.eye(d.shape[-1], dtype=bool)
    diff = d[..., :, None] - d[..., None, :]
    if np.abs(diff[..., off]).min() < 1e-12:
        raise AsymptoticsError("repeated diagonal values")
    # M_jk M_kj in real parts, rounded as a complex scalar product: numpy's
    # complex array product fuses multiply-adds, which can move the last bit
    mt = m.swapaxes(-1, -2)
    prod = (m.real * mt.real - m.imag * mt.imag) + 1j * (m.real * mt.imag + m.imag * mt.real)
    terms = np.where(off, prod / np.where(off, diff, 1.0), 0.0)
    return sum(terms[..., k] for k in range(d.shape[-1]))


def flow_eigenvalues(spec: FlowSpec, t) -> np.ndarray:
    """Eigenvalues of the flow matrix at time t, descending modulus, for each
    spec of the stack: shape (..., N) at one time, (..., T, N) at an array of
    T times.  One general_eig call solves every spec at every time.

    The exponential kind is centered by the mean of d before exponentiation
    (removing a scalar e^{t d_bar} factor) to stay in representable range.
    """
    t = np.asarray(t, dtype=float)
    ts = np.atleast_1d(t)
    if spec.kind == "exponential":
        d_bar = spec.d.mean(axis=-1)
        centered = spec.d - d_bar[..., None]
        span = centered.real.max(axis=-1) - centered.real.min(axis=-1)
        if np.any(np.abs(ts) * span[..., None] > EXP_CAP):
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
        w = general_eig(spec.m[..., None, :, :] + ts[:, None, None] * diag[..., None, :, :])
    return w if t.ndim else w[..., 0, :]


@dataclass(frozen=True)
class AsymptoticReport:
    """A theorem check over a spec or a stack of specs: each field carries the
    stack's leading axes, and each verdict is one bool per spec."""

    gap: np.ndarray
    fitted_orders: np.ndarray  # per-j decay exponents, shape (..., N)
    verdicts: dict
    p: np.ndarray | None = None  # exponential kind: first-order coefficients p_j
    orders_without_alpha: np.ndarray | None = None  # linear kind: the orders without alpha/t

    @property
    def passed(self) -> np.ndarray:
        return np.logical_and.reduce(list(self.verdicts.values()))


def _decay_orders(
    t_grid: np.ndarray, r: np.ndarray, log_t: bool = False, clamp: float = FIT_CLAMP
) -> np.ndarray:
    """Minus the slope of ln|r| against t (or ln t) in each (spec, j) column of
    r, shape (..., T, N), as an array of shape (..., N): one least-squares
    slope per column over its usable times, |r| > clamp, for the whole stack
    at once; nan where fewer than two times are usable."""
    usable = np.abs(r) > clamp
    count = usable.sum(axis=-2)
    x = np.where(usable, (np.log(t_grid) if log_t else t_grid)[:, None], 0.0)
    y = np.log(np.abs(r), out=np.zeros(r.shape), where=usable)
    # deviations from the means over the usable times, 0 at the others
    n = np.maximum(count, 1)[..., None, :]
    xc, yc = (np.where(usable, v - v.sum(axis=-2, keepdims=True) / n, 0.0) for v in (x, y))
    slope = np.divide((xc * yc).sum(axis=-2), (xc * xc).sum(axis=-2),
                      out=np.full(count.shape, np.nan), where=count >= 2)
    return -slope


def fit_grid(t_grid, kind: str) -> np.ndarray:
    """The time grid of a check of the given kind as a float array: a decay
    order needs two distinct times, and the linear kind's alpha / t term
    strictly positive ones."""
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size < 2 or t_grid.min() == t_grid.max():
        raise AsymptoticsError("the time grid needs at least two distinct times")
    if kind == "linear" and t_grid.min() <= 0:
        raise AsymptoticsError("linear-kind grids must be strictly positive")
    return t_grid


def _relative_remainders(spec: FlowSpec, mj: np.ndarray, times) -> np.ndarray:
    """rho_j(t) = lambda_j / (m_j e^{t d_j}) - 1, shape (..., T, N), from one
    stacked solve over the distinct times."""
    times, index = np.unique(np.asarray(times, dtype=float), return_inverse=True)
    rho = flow_eigenvalues(spec, times) / (
        mj[..., None, :] * np.exp(times[:, None] * spec.d[..., None, :])
    ) - 1.0
    return rho[..., index, :]


def _exponential_report(spec: FlowSpec, t_grid, extra=()) -> tuple[AsymptoticReport, np.ndarray]:
    """The exponential theorem report on the grid, and the remainders at the
    extra times, shape (..., len(extra), N), from one principal_minors call
    and one stacked solve over the grid and the extra times."""
    if spec.kind != "exponential":
        raise AsymptoticsError("spec is not of exponential kind")
    t_grid = fit_grid(t_grid, spec.kind)
    pi, bordered = principal_minors(spec.m)
    pj = _p_from_minors(_nonzero(pi), bordered)
    rho = _relative_remainders(spec, _minor_ratios(pi), np.concatenate([t_grid, extra]))
    rho, rho_extra = rho[..., : len(t_grid), :], rho[..., len(t_grid) :, :]
    # first-order model p_j eps_j - p_{j-1} eps_{j-1}, eps_j = e^{t(d_{j+1} - d_j)}
    first = pj[..., None, :] * np.exp(t_grid[:, None] * np.diff(spec.d, axis=-1)[..., None, :])
    pad = [(0, 0)] * (first.ndim - 1)
    subtracted = rho - (np.pad(first, pad + [(0, 1)]) - np.pad(first, pad + [(1, 0)]))
    # the second-order remainder reaches the eigensolver noise floor quickly;
    # clamp the decay fit above that floor so plateau points don't dilute it
    orders = _decay_orders(t_grid, subtracted, clamp=1e-13)
    # a component whose remainder sits entirely below the clamp decays faster
    # than we can measure; only measurable components constrain the verdict
    measured = np.isnan(orders) | (orders >= 1.8 * spec.gap[..., None])
    shrinks = np.abs(rho[..., -1, :]) <= np.abs(rho[..., 0, :]) + FIT_CLAMP
    verdicts = {
        "post_subtraction_decay": np.all(measured, axis=-1),
        "remainder_shrinks": np.all(shrinks, axis=-1),
    }
    return AsymptoticReport(gap=spec.gap, fitted_orders=orders, verdicts=verdicts, p=pj), rho_extra


def verify_theorem_exponential(spec: FlowSpec, t_grid) -> AsymptoticReport:
    """Check the exponential-flow asymptotics on the grid: the relative
    remainders rho_j, their first-order model, and the post-subtraction
    second-order decay rate (expected about 2R, verified >= 1.8R)."""
    return _exponential_report(spec, t_grid)[0]


def _p_two_point(spec: FlowSpec, rho: np.ndarray) -> np.ndarray:
    """p from the remainders rho, shape (..., 2, N), at the two P_RECOVERY_TIMES.

    For each j the model rho_j = p_j e^{-t mu_j} - p_{j-1} e^{-t mu_{j-1}} is a
    linear system in (p_j, p_{j-1}) over the two sample times; the first j has
    the single-term model, and the systems of the others go to one solve call.
    """
    steps = np.diff(spec.d, axis=-1)  # d_{j+1} - d_j (negative real part)
    growth = np.exp(np.array(P_RECOVERY_TIMES)[:, None] * steps[..., None, :])  # (..., 2, N-1)
    out = np.empty(steps.shape, dtype=complex)
    out[..., 0] = rho[..., 1, 0] / growth[..., 1, 0]
    if spec.size > 2:
        # system j, row i: [e^{t_i s_j}, -e^{t_i s_{j-1}}] p = rho_j(t_i)
        a = np.moveaxis(np.stack([growth[..., 1:], -growth[..., :-1]], axis=-1), -3, -2)
        b = np.moveaxis(rho[..., 1:-1], -2, -1)[..., None]
        out[..., 1:] = np.linalg.solve(a, b)[..., 0, 0]
    return out


def _linear_residuals(spec: FlowSpec, t_grid: np.ndarray, lams, shift) -> np.ndarray:
    """r_j(t) = lambda_j - (M_jj + t d_j + shift_j / t), shape (..., T, N),
    with shift alpha or 0 (shape (..., N)), each prediction matched to its
    nearest eigenvalue of the spectrum lams[..., i, :] at t_grid[i]; a shared
    nearest eigenvalue is an error."""
    t = t_grid[:, None]
    diag = np.diagonal(spec.m, axis1=-2, axis2=-1)[..., None, :]
    pred = diag + t * spec.d[..., None, :] + np.asarray(shift)[..., None, :] / t
    assign = np.argmin(np.abs(lams[..., :, None] - pred[..., None, :]), axis=-2)
    ordered = np.sort(assign, axis=-1)
    shared = np.any(ordered[..., 1:] == ordered[..., :-1], axis=-1)
    raise_first(shared, AsymptoticsError, lambda i: (
        f"ambiguous eigenvalue matching at t={t_grid[i[-1]]}"
    ))
    return np.take_along_axis(lams, assign, axis=-1) - pred


def verify_theorem_linear(spec: FlowSpec, t_grid) -> AsymptoticReport:
    """Check the linear-flow asymptotics: r_j(t) = lambda_j - M_jj - t d_j - alpha_j/t
    stays O(1/t^2) (t^2 |r_j| bounded over the grid).  One spectrum per time
    serves both predictions: omitting the alpha term degrades the fitted order
    from about 2 to about 1, reported as orders_without_alpha."""
    if spec.kind != "linear":
        raise AsymptoticsError("spec is not of linear kind")
    t_grid = fit_grid(t_grid, spec.kind)
    alpha = alpha_coeffs(spec.m, spec.d)
    lams = flow_eigenvalues(spec, t_grid)
    resid, resid0 = (
        _linear_residuals(spec, t_grid, lams, shift) for shift in (alpha, np.zeros(alpha.shape))
    )
    orders, orders0 = (_decay_orders(t_grid, r, log_t=True) for r in (resid, resid0))
    # t^2 |r| in units of 4^e, 2^e above the largest time and 1: no square
    # overflows, and the scaling by a power of two is exact away from
    # subnormals, so it moves no verdict
    e = max(int(np.frexp(t_grid.max())[1]), 0)
    t2r = np.ldexp(t_grid, -e)[:, None] ** 2 * np.abs(resid)
    floor, slack = np.ldexp([FIT_CLAMP, 1e-12], -2 * e)
    verdicts = {
        "t2_bounded": np.all(
            t2r <= 1.2 * np.maximum(t2r[..., :1, :], floor) + slack, axis=(-2, -1)
        ),
    }
    return AsymptoticReport(
        gap=spec.gap, fitted_orders=orders, verdicts=verdicts, orders_without_alpha=orders0
    )


def exponential_summary(spec: FlowSpec, t_grid) -> dict:
    """The report columns of an exponential flow, one array per column over
    the stack: the gap R, the smallest fitted order, the relative error of the
    two-point p recovery, and under "passed" the theorem report's own verdict.
    The recovery times share the grid's stacked solve.  A grid on which no
    component's order can be fitted has no smallest order to report and is an
    error."""
    rep, rho = _exponential_report(spec, t_grid, P_RECOVERY_TIMES)
    if np.isnan(rep.fitted_orders).all(axis=-1).any():
        raise AsymptoticsError(
            "no post-subtraction remainder rises above the 1e-13 fit floor on this "
            "grid; it is too late to fit a decay order"
        )
    recovered = _p_two_point(spec, rho)
    return {
        "R": rep.gap,
        "min_fitted_order": np.nanmin(rep.fitted_orders, axis=-1),
        "p_recovery_rel_err": (
            np.abs(recovered - rep.p) / np.maximum(np.abs(rep.p), 1e-12)
        ).max(axis=-1),
        "passed": rep.passed,
    }


def linear_summary(spec: FlowSpec, t_grid) -> dict:
    """The report columns of a linear flow, one array per column over the
    stack: the gap R and the mean fitted orders with and without the alpha
    term; under "passed", the theorem report's own verdict and whether those
    orders lie within 0.3 of 2 and of 1."""
    rep = verify_theorem_linear(spec, t_grid)
    order = np.nanmean(rep.fitted_orders, axis=-1)
    order0 = np.nanmean(rep.orders_without_alpha, axis=-1)
    return {
        "R": rep.gap,
        "order_with_alpha": order,
        "order_without_alpha": order0,
        "passed": rep.passed & (np.abs(order - 2.0) <= 0.3) & (np.abs(order0 - 1.0) <= 0.3),
    }


def _accepted(ms: np.ndarray, floor: float) -> np.ndarray:
    """Mask over a (P, N, N) stack of M: every leading minor nonzero and every
    |p_j| >= floor.  A candidate with a zero leading minor gets inf or nan p
    entries, which the mask drops without a warning."""
    pi, bordered = principal_minors(ms)
    with np.errstate(divide="ignore", invalid="ignore"):
        smallest = np.abs(_p_from_minors(pi, bordered)).min(axis=-1)
        return np.all(pi != 0, axis=-1) & (smallest >= floor)


def sample_spec(size: int, seed, kind: str = "exponential") -> FlowSpec:
    """Deterministic well-conditioned flow spec: one seed gives one spec, a
    sequence of seeds the stack of their specs, spec i being the spec of
    seed[i] alone.

    The diagonal gaps are drawn from evenly spread slots (pairwise distinct, so
    two-point coefficient recovery stays well-conditioned) and M = identity
    plus a scaled complex perturbation, resampled until every p coefficient is
    comfortably away from zero (relative recovery would otherwise divide by a
    near-cancellation).

    Each seed has SPEC_ATTEMPTS attempts.  Attempt k draws from
    np.random.default_rng(seed * 1009 + k): the slot permutation (N > 2),
    then N - 1 + 2 N^2 numbers of rng.random, the uniform draws for the gaps
    and for the real and imaginary noise of M.  Each round draws the next
    SPEC_BLOCK attempts of every seed still pending, builds their noise and M
    in one expression, mapped as rng.uniform(-1, 1) maps them (-1 + 2 u,
    exact), and takes their p coefficients from one principal_minors call.
    A seed's spec is its first accepted attempt, and only its gaps and d are
    built, so the result does not depend on the rounds or on the other seeds;
    a seed that runs out of attempts is an error.
    """
    _require_size(size)
    seeds, one = _seed_list(seed)
    slots = np.linspace(0.0, SPEC_GAP_SPREAD, size - 1)
    jitter = 0.1 * SPEC_GAP_SPREAD / max(size - 2, 1)
    shift, v = np.empty((len(seeds), size - 1)), np.empty((len(seeds), size - 1))
    m = np.empty((len(seeds), size, size), dtype=complex)
    pending = np.arange(len(seeds))
    for start in range(0, SPEC_ATTEMPTS, SPEC_BLOCK):
        if not pending.size:
            break
        entropies = [seeds[i] * 1009 + k for i in pending for k in range(start, start + SPEC_BLOCK)]
        # rng.shuffle of a copy of slots is rng.permutation(slots), in place
        shifts = np.tile(slots, (len(entropies), 1))
        u = np.empty((len(entropies), size - 1 + 2 * size * size))
        for row, entropy in enumerate(entropies):
            rng = np.random.default_rng(entropy)
            if size > 2:
                rng.shuffle(shifts[row])
            rng.random(out=u[row])
        noise = (-1.0 + 2.0 * u[:, size - 1:]).reshape(-1, 2, size, size)
        ms = np.eye(size) + SPEC_OFF_SCALE * (noise[:, 0] + 1j * noise[:, 1])
        ok = _accepted(ms, 0.5 * SPEC_OFF_SCALE ** 2).reshape(len(pending), SPEC_BLOCK)
        found = ok.any(axis=-1)
        first = (SPEC_BLOCK * np.arange(len(pending)) + np.argmax(ok, axis=-1))[found]
        done, pending = pending[found], pending[~found]
        shift[done], v[done], m[done] = shifts[first], u[first, : size - 1], ms[first]
    if pending.size:
        raise AsymptoticsError("could not realize a well-conditioned spec")
    if size == 2:
        gaps = SPEC_MIN_GAP + SPEC_GAP_SPREAD * v
    else:
        gaps = SPEC_MIN_GAP + shift + jitter * (-1.0 + 2.0 * v)
    d = np.concatenate([np.zeros((len(seeds), 1)), -np.cumsum(gaps, axis=-1)], axis=-1)
    d = (d - d.mean(axis=-1, keepdims=True)).astype(complex)
    return FlowSpec(m=m[0], d=d[0], kind=kind) if one else FlowSpec(m=m, d=d, kind=kind)
