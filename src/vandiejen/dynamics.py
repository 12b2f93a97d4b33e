"""Hamiltonian flow, propagated two independent ways.

The runge-kutta route integrates Hamilton's equations with DOP853, the
explicit 8(5,3) Runge-Kutta pair of Dormand and Prince (Hairer, Norsett &
Wanner, Solving ODEs I, sec. II.10), which meets the tolerance in about half
the vector-field evaluations of a 5(4) pair.

The projection route reads the flow off a spectrum.  With
B = L - L^{-1} = V diag(beta) V* (L^{-1} = C L C, so no inverse is formed), the
flow matrix e^{2 Lam} e^{tB} is similar to G G* with G = e^{Lam} V e^{t beta/2},
and the positions at time t are the logs of the n largest singular values of G.
G is diagonal x unitary x diagonal, so its singular values are determined to
high relative accuracy however graded its rows and columns are (Demmel et al.,
LAA 1999; Drmac & Veselic, SIMAX 2008).  One double-precision SVD realizes that
accuracy when the rows of G are sorted by decreasing Lam, its columns by
decreasing t beta, and it is scaled by its largest entry exponent.  The
rapidities come in closed form from the right singular vectors W: since
d(G G*)/dt = G diag(beta) G*, xi_dot_a = 1/2 sum_j beta_j |W_ja|^2.

The projection route takes a phase point or a stack of them (see PhasePoint):
its frame and step run one eigensolve and one SVD call per stack.  The
Runge-Kutta route and the vector field take a single point.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .lax import LaxBundle, energy, lax_matrix
from .linalg import hermitian_eig
from .phase_space import Coupling, PhasePoint, VandiejenError, require_valid

RK_REL_TOL = 1e-10
RK_ABS_TOL = 1e-12
# Largest max - min of the entry exponents Lam_k + t beta_j / 2 of G: after
# scaling by the largest, the smallest entries stay inside the double range.
EXPONENT_RANGE_CAP = 700.0
FLOW_GAP_TOL = 1e-10  # smallest relative gap between flowed eigenvalues of G G*


class DynamicsError(VandiejenError):
    pass


@dataclass(frozen=True)
class TrajectorySample:
    t: float
    point: PhasePoint
    energy: float


def vector_field(p: PhasePoint, g: Coupling):
    """(xi_dot, eta_dot) of the Hamiltonian flow at p."""
    p.require_one()
    require_valid(p)
    g.require_regular()
    return _kernels.vector_field(p.xi, p.eta, g.mu, g.nu)


def rk_flow(p: PhasePoint, g: Coupling, t_values):
    """Adaptive DOP853 propagation, sampled at the requested times (in their order,
    repeats allowed)."""
    from scipy.integrate import solve_ivp  # scipy loads only when a flow runs

    t_values = np.atleast_1d(np.asarray(t_values, dtype=float))
    if not np.all(np.isfinite(t_values)):
        raise DynamicsError("non-finite time grid")
    p.require_one()
    require_valid(p)
    g.require_regular()
    n = p.n

    def rhs(_t, x):
        xd, ed = _kernels.vector_field(x[:n], x[n:], g.mu, g.nu)
        return np.concatenate([xd, ed])

    # solve_ivp wants a monotone span and a strictly monotone t_eval: one sweep
    # per sign over the unique nonzero |t|, with the samples read from sol.y
    by_time = {0.0: TrajectorySample(0.0, p, energy(p, g))}
    for sign in (1.0, -1.0):
        ts = sign * np.unique(sign * t_values[sign * t_values > 0])
        if len(ts) == 0:
            continue
        # A trial stage can reach |eta| past ~710, where sinh/cosh in the field
        # overflow; the field and the error estimate then turn inf or nan, and
        # the step-size control rejects the stage.  That is expected and not
        # reported; an accepted non-finite state is caught below.
        with np.errstate(over="ignore", invalid="ignore"):
            sol = solve_ivp(
                rhs, (0.0, ts[-1]), p.as_vector(), method="DOP853",
                t_eval=ts, rtol=RK_REL_TOL, atol=RK_ABS_TOL,
            )
        if not sol.success:
            raise DynamicsError(f"integrator failed: {sol.message}")
        if not np.all(np.isfinite(sol.y)):
            raise DynamicsError("integrator returned a non-finite state")
        # Unlike the Lax route, this one has no coordinate cap: positions past
        # ~355 make sinh of a position sum overflow in the kernels, where the
        # q term is 0, its limit.  In the field that falls under the errstate
        # above; in the sampled energies it falls under this one.
        with np.errstate(over="ignore"):
            for t, x in zip(ts, sol.y.T):
                q = PhasePoint.from_vector(x)
                by_time[float(t)] = TrajectorySample(float(t), q, energy(q, g))
    return [by_time[float(t)] for t in t_values]


@dataclass(frozen=True)
class _FlowFrame:
    """The time-independent data of the projection route at a point or a stack
    of points, the stack flattened to P points in stack order, with the rows of
    G already in their order of decreasing Lam."""

    shape: tuple  # the leading axes of the stack
    row_exp: np.ndarray  # Lam = (xi, -xi) sorted descending, shape (P, 2n)
    beta: np.ndarray  # eigenvalues of B = L - C L C, ascending, shape (P, 2n)
    v: np.ndarray  # unitary eigenvector bases of B, rows in row_exp order, shape (P, 2n, 2n)


def _flow_frame(bundle: LaxBundle) -> _FlowFrame:
    """The frame from a Lax bundle, in one stacked eigensolve."""
    matrix, c, n = bundle.matrix, bundle.c, bundle.n
    eig = hermitian_eig(matrix - c @ matrix @ c)
    # Lam = (xi, -xi) with xi descending positive (lax_matrix checks it), so
    # rows 0..n-1 and then 2n-1..n order every point's Lam descending
    rows = np.concatenate([np.arange(n), np.arange(2 * n - 1, n - 1, -1)])
    return _FlowFrame(
        bundle.lam.shape[:-1], bundle.lam.reshape(-1, 2 * n)[:, rows],
        eig.eigenvalues.reshape(-1, 2 * n), eig.basis.reshape(-1, 2 * n, 2 * n)[:, rows],
    )


def _flow_step(frame: _FlowFrame, g: Coupling, t: float) -> tuple[np.ndarray, np.ndarray]:
    """(xi, eta) at time t of each point of the frame, with the frame's leading
    axes, from the singular values of G = e^{Lam} V e^{t beta/2}, in one
    stacked SVD.  Each check runs over the whole stack and raises the error of
    its first failing point, in stack order."""
    if not np.isfinite(t):
        raise DynamicsError(f"non-finite time {t}")
    n = frame.beta.shape[-1] // 2
    points = np.arange(len(frame.beta))[:, None]
    cols = np.argsort(-t * frame.beta, axis=-1, kind="stable")
    beta = frame.beta[points, cols]
    row_exp = frame.row_exp
    col_exp = 0.5 * t * beta
    exp_range = row_exp[:, 0] - row_exp[:, -1] + col_exp[:, 0] - col_exp[:, -1]
    if exp_range.max() > EXPONENT_RANGE_CAP:
        first = exp_range[exp_range > EXPONENT_RANGE_CAP][0]
        raise DynamicsError(
            f"flow exponent range {first:.1f} exceeds the double range cap at t={t}"
        )
    factor = (
        np.exp(row_exp - row_exp[:, :1])[:, :, None]
        * frame.v[points[:, :, None], np.arange(2 * n)[:, None], cols[:, None, :]]
        * np.exp(col_exp - col_exp[:, :1])[:, None, :]
    )
    _, sigma, wh = np.linalg.svd(factor)
    top = sigma[:, :n]
    if top.min() <= 0:
        raise DynamicsError(f"flow factor lost rank (roundoff) at t={t}")
    xi_t = np.log(top) + row_exp[:, :1] + col_exp[:, :1]
    if n > 1:
        # min over a of (w_a - w_{a+1}) / w_a for the eigenvalues w = sigma^2 of G G*;
        # it falls as the largest step of xi_t rises, so the stack's largest
        # step decides whether any point fails
        steps = xi_t[:, 1:] - xi_t[:, :-1]
        if -np.expm1(2.0 * steps.max()) < FLOW_GAP_TOL:
            gap = -np.expm1(2.0 * steps.max(axis=-1))
            first = gap[gap < FLOW_GAP_TOL][0]
            raise DynamicsError(f"eigenvalue collision along the flow: relative gap {first:.3e}")
    xi_dot = 0.5 * (np.abs(wh[:, :n]) ** 2 @ beta[:, :, None])[..., 0]
    eta_t = np.arcsinh(xi_dot / _kernels.u_coeffs(xi_t, g.mu, g.nu))
    return xi_t.reshape(frame.shape + (n,)), eta_t.reshape(frame.shape + (n,))


def projection_flow(p: PhasePoint, g: Coupling, t: float) -> PhasePoint:
    """Exact propagation through the spectrum of the matrix flow."""
    return PhasePoint(*_flow_step(_flow_frame(lax_matrix(p, g)), g, float(t)))


def projection_outcomes(p: PhasePoint, g: Coupling, t_values):
    """projection_flow over a time grid, from one frame of the initial point: per
    time a TrajectorySample, or the DynamicsError that stopped the step at that
    time."""
    frame = _flow_frame(lax_matrix(p, g))
    out = []
    for t in np.atleast_1d(np.asarray(t_values, dtype=float)):
        try:
            q = PhasePoint(*_flow_step(frame, g, float(t))) if t != 0.0 else p
        except DynamicsError as exc:
            out.append(exc)
        else:
            out.append(TrajectorySample(float(t), q, energy(q, g)))
    return out
