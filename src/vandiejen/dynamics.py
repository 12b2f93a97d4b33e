"""Hamiltonian flow, propagated two independent ways.

The runge-kutta route integrates Hamilton's equations with an adaptive
embedded pair.  The projection route is exact up to eigensolver precision: the
positions at time t are half-logs of the spectrum of the Hermitian positive
definite matrix e^{Lam} e^{t(L - L^{-1})} e^{Lam} (similar to the defining flow
matrix e^{2 Lam} e^{t(L - L^{-1})}), and rapidities are recovered from the
analytic time-derivative of those eigenvalues via first-order perturbation.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .duality import DualFrame
from .lax import LaxBundle, lax_matrix
from .linalg import hermitian_eig
from .phase_space import Coupling, PhasePoint, require_valid

FLOW_EXPONENT_CAP = 600.0
FD_TIME_STEP = 1e-5
# Beyond this exponent span the flow matrix is too graded for double-precision
# eigensolves (small eigenvalues drown in roundoff); escalate to mpmath.
DOUBLE_EXP_LIMIT = 45.0


class DynamicsError(ValueError):
    pass


@dataclass(frozen=True)
class FlowConfig:
    method: str = "both"  # "projection" | "runge-kutta" | "both"
    rk_rel_tol: float = 1e-10
    rk_abs_tol: float = 1e-12
    rapidity_mode: str = "analytic"  # "analytic" | "finite-difference"

    def __post_init__(self):
        if self.method not in ("projection", "runge-kutta", "both"):
            raise DynamicsError(f"unknown method {self.method!r}")
        if self.rapidity_mode not in ("analytic", "finite-difference"):
            raise DynamicsError(f"unknown rapidity mode {self.rapidity_mode!r}")
        if self.rk_rel_tol <= 0 or self.rk_abs_tol <= 0:
            raise DynamicsError("tolerances must be positive")


@dataclass(frozen=True)
class TrajectorySample:
    t: float
    point: PhasePoint
    energy: float


def energy(p: PhasePoint, g: Coupling) -> float:
    u = np.asarray(_kernels.u_coeffs(p.xi, g.mu, g.nu))
    return float(np.cosh(p.eta) @ u)


def vector_field(p: PhasePoint, g: Coupling):
    """(xi_dot, eta_dot) of the Hamiltonian flow at p."""
    require_valid(p)
    g.require_regular()
    return _kernels.vector_field(p.xi, p.eta, g.mu, g.nu)


def rk_flow(p: PhasePoint, g: Coupling, t_values, cfg: FlowConfig = FlowConfig()):
    """Adaptive Runge-Kutta propagation, sampled at the requested times."""
    from scipy.integrate import solve_ivp  # scipy loads only when a flow runs

    t_values = np.atleast_1d(np.asarray(t_values, dtype=float))
    if not np.all(np.isfinite(t_values)):
        raise DynamicsError("non-finite time grid")
    require_valid(p)
    g.require_regular()
    n = p.n

    def rhs(_t, x):
        xd, ed = _kernels.vector_field(x[:n], x[n:], g.mu, g.nu)
        return np.concatenate([xd, ed])

    # solve_ivp wants a monotone span; handle mixed-sign grids by two sweeps
    by_time: dict[float, TrajectorySample] = {}
    for positive in (True, False):
        ts = np.sort(np.abs(t_values[(t_values >= 0) if positive else (t_values < 0)]))
        ts = ts if positive else -ts
        if len(ts) == 0:
            continue
        nonzero = ts[ts != 0.0]
        if len(nonzero):
            sol = solve_ivp(
                rhs, (0.0, nonzero[-1]), p.as_vector(), method="RK45",
                rtol=cfg.rk_rel_tol, atol=cfg.rk_abs_tol, dense_output=True,
            )
            if not sol.success:
                raise DynamicsError(f"integrator failed: {sol.message}")
        for t in ts:
            q = p if t == 0.0 else PhasePoint.from_vector(sol.sol(t))
            by_time[float(t)] = TrajectorySample(float(t), q, energy(q, g))
    return [by_time[float(t)] for t in t_values]


def _flow_matrix_eig(bundle: LaxBundle, t: float):
    """Eigen-data of e^{Lam} e^{t B} e^{Lam}, B = L - L^{-1} (Hermitian route)."""
    el = np.exp(bundle.lam)
    b = bundle.matrix - np.linalg.inv(bundle.matrix)
    beig = hermitian_eig(b)
    beta, v = beig.eigenvalues, beig.basis
    if abs(t) * (2 * np.abs(bundle.lam).max() + np.abs(beta).max()) > FLOW_EXPONENT_CAP:
        raise DynamicsError(f"flow exponent exceeds overflow cap at t={t}")
    core = v @ (np.exp(t * beta)[:, None] * v.conj().T)
    a = el[:, None] * core * el[None, :]
    aeig = hermitian_eig(a)
    dcore = v @ ((beta * np.exp(t * beta))[:, None] * v.conj().T)
    da = el[:, None] * dcore * el[None, :]
    return aeig.eigenvalues, aeig.basis, da


def _exponent_span(bundle: LaxBundle, t: float) -> float:
    beta = np.linalg.eigvalsh(bundle.matrix - np.linalg.inv(bundle.matrix))
    return abs(t) * (beta.max() - beta.min()) + 4.0 * np.abs(bundle.lam).max()


def _flow_position_mp(bundle: LaxBundle, t: float, dps: int):
    """High-precision route: rebuild all flow data in mpmath and eigensolve there.

    Returns (xi_t descending, xi_dot) as float arrays; used when the flow
    matrix exponent span exceeds what double precision can resolve.
    """
    from mpmath import mp

    n = bundle.n
    g = bundle.coupling
    with mp.workdps(dps):
        mu, nu = mp.mpf(g.mu), mp.mpf(g.nu)
        xi = [mp.mpf(x) for x in bundle.point.xi]
        eta = [mp.mpf(x) for x in bundle.point.eta]
        z = []
        for a in range(n):
            val = -mp.sinh(1j * nu + 2 * xi[a]) / mp.sinh(2 * xi[a])
            for c in range(n):
                if c == a:
                    continue
                for s in (xi[a] - xi[c], xi[a] + xi[c]):
                    val *= mp.sinh(1j * mu + s) / mp.sinh(s)
            z.append(val)
        u = [abs(v) for v in z]
        f = [mp.e ** (eta[a] / 2) * mp.sqrt(u[a]) for a in range(n)]
        f += [mp.e ** (-eta[a] / 2) * mp.conj(z[a]) / mp.sqrt(u[a]) for a in range(n)]
        lam = xi + [-x for x in xi]
        big = 2 * n
        ell = mp.matrix(big, big)
        for k in range(big):
            for l in range(big):
                ckl = 1 if (k + n == l or l + n == k) else 0
                num = 1j * mp.sin(mu) * f[k] * mp.conj(f[l]) + 1j * mp.sin(mu - nu) * ckl
                ell[k, l] = num / mp.sinh(1j * mu + lam[k] - lam[l])
        b = ell - ell ** -1
        beta, v = mp.eighe(b)
        el = mp.diag([mp.e ** lam[k] for k in range(big)])
        tt = mp.mpf(t)
        core = v * mp.diag([mp.e ** (tt * beta[j]) for j in range(big)]) * v.H
        a_mat = el * core * el
        a_mat = (a_mat + a_mat.H) / 2
        w, q = mp.eighe(a_mat)
        widx = sorted(range(big), key=lambda j: w[j])
        dcore = v * mp.diag([beta[j] * mp.e ** (tt * beta[j]) for j in range(big)]) * v.H
        da = el * dcore * el
        xi_t, xi_dot = [], []
        for j in widx[n:][::-1]:
            qj = q[:, j]
            wdot = (qj.H * (da * qj))[0, 0].real
            xi_t.append(float(mp.log(w[j]) / 2))
            xi_dot.append(float(wdot / (2 * w[j])))
    return np.array(xi_t), np.array(xi_dot)


def projection_flow(
    p: PhasePoint, g: Coupling, t: float, cfg: FlowConfig = FlowConfig()
) -> PhasePoint:
    """Exact propagation through the spectrum of the matrix flow."""
    require_valid(p)
    g.require_regular()
    bundle = lax_matrix(p, g)
    n = p.n
    span = _exponent_span(bundle, float(t))
    if span > FLOW_EXPONENT_CAP:
        raise DynamicsError(f"flow exponent span {span:.1f} exceeds overflow cap at t={t}")
    if span > DOUBLE_EXP_LIMIT:
        dps = int(span / 2.302585) + 30
        if cfg.rapidity_mode == "analytic":
            xi_t, xi_dot = _flow_position_mp(bundle, float(t), dps)
        else:
            h = FD_TIME_STEP
            xi_t, _ = _flow_position_mp(bundle, float(t), dps)
            xp, _ = _flow_position_mp(bundle, float(t) + h, dps)
            xm, _ = _flow_position_mp(bundle, float(t) - h, dps)
            xi_dot = (xp - xm) / (2 * h)
    else:
        w, q, da = _flow_matrix_eig(bundle, float(t))
        top = w[n:]
        if top.min() <= 0:
            raise DynamicsError("flow matrix lost positive definiteness (roundoff)")
        if n > 1:
            gaps = np.diff(top) / np.abs(top[1:])
            if gaps.min() < 1e-10:
                raise DynamicsError(
                    f"eigenvalue collision along the flow: relative gap {gaps.min():.3e}"
                )
        xi_t = 0.5 * np.log(top[::-1])
        if cfg.rapidity_mode == "analytic":
            # first-order perturbation: w_dot_a = q_a* dA q_a
            w_dot = np.einsum("ij,ij->j", q.conj(), da @ q).real
            xi_dot = (w_dot / (2.0 * w))[n:][::-1]
        else:
            h = FD_TIME_STEP
            wp, _, _ = _flow_matrix_eig(bundle, float(t) + h)
            wm, _, _ = _flow_matrix_eig(bundle, float(t) - h)
            xi_dot = (0.5 * np.log(wp[n:][::-1]) - 0.5 * np.log(wm[n:][::-1])) / (2 * h)
    u_t = np.asarray(_kernels.u_coeffs(xi_t, g.mu, g.nu))
    eta_t = np.arcsinh(xi_dot / u_t)
    return PhasePoint(xi=xi_t, eta=eta_t)


def projection_trajectory(p, g, t_values, cfg: FlowConfig = FlowConfig()):
    out = []
    for t in np.atleast_1d(np.asarray(t_values, dtype=float)):
        q = projection_flow(p, g, float(t), cfg) if t != 0.0 else p
        out.append(TrajectorySample(float(t), q, energy(q, g)))
    return out


def regular_permutation(n: int) -> np.ndarray:
    """W = [[I, 0], [0, J]] with J the order-reversal; W^2 = identity."""
    w = np.zeros((2 * n, 2 * n))
    w[:n, :n] = np.eye(n)
    w[n:, n:] = np.eye(n)[::-1]
    return w


def flow_matrix_regular_form(frame: DualFrame):
    """(L_tilde, theta_plus_diag): the dual matrix conjugated so the exponent
    diagonal 2*sinh(Theta) is strictly decreasing, matching the asymptotic
    eigenvalue machinery's normal form."""
    n = frame.n
    w = regular_permutation(n)
    l_hat = frame.dual_matrix()
    l_tilde = w @ l_hat @ w
    theta_plus = 2.0 * np.concatenate([frame.theta_hat, -frame.theta_hat[::-1]])
    if np.any(np.diff(theta_plus) >= 0):
        raise DynamicsError("regular-form diagonal not strictly decreasing")
    return l_tilde, theta_plus
