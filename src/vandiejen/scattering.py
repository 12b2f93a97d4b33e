"""Asymptotic scattering data: phase shifts, wave maps, the factorized scattering map,
and empirical verification that trajectories converge to their free asymptotes.

The total phase shift of each particle is a sum of pairwise and one-body
terms Delta_a; asymptotic positions come in two routes (a closed form in the
dual coordinates and leading principal minors of the diagonal blocks of the
dual matrix L_hat) which must agree.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .duality import DualFrame, dual_frame
from .dynamics import projection_trajectory
from .linalg import leading_principal_minors
from .phase_space import Coupling, PhasePoint, VandiejenError

RESIDUAL_CLAMP = 1e-14
MIN_FIT_POINTS = 4


class ScatteringError(VandiejenError):
    pass


def delta_vector(xi, g: Coupling) -> np.ndarray:
    """Phase shifts Delta_a at the ordered positive vector xi: the one-body log
    term in 2*xi_a plus signed two-body log terms over index pairs."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if len(xi) > 1 and (np.min(-np.diff(xi)) <= 0 or xi[-1] <= 0):
        raise ScatteringError("xi must be strictly descending positive")
    return _kernels.delta_shifts(xi, g.mu, g.nu)


@dataclass(frozen=True)
class AsymptoticData:
    theta_plus: np.ndarray
    theta_minus: np.ndarray
    lambda_plus: np.ndarray
    lambda_minus: np.ndarray
    delta: np.ndarray
    minor_route_plus: np.ndarray  # lambda_plus recomputed from principal minors
    minor_route_minus: np.ndarray

    def wave(self, sign: int) -> PhasePoint:
        """Wave data (lambda_plus, theta_plus) or (lambda_minus, theta_minus)."""
        if sign not in (1, -1):
            raise ScatteringError("sign must be +1 or -1")
        if sign == 1:
            return PhasePoint(xi=self.lambda_plus, eta=self.theta_plus)
        return PhasePoint(xi=self.lambda_minus, eta=self.theta_minus)


def _minor_half_logs(block: np.ndarray) -> np.ndarray:
    """lambda_a = 0.5 * ln(pi_a / pi_{a-1}) from the leading minors of block."""
    minors = leading_principal_minors(block).real
    if np.any(minors <= 0):
        raise ScatteringError("non-positive principal minor of a positive definite matrix")
    ratios = minors / np.concatenate([[1.0], minors[:-1]])
    return 0.5 * np.log(ratios)


def asymptotic_data(p: PhasePoint, g: Coupling, frame: DualFrame | None = None) -> AsymptoticData:
    """Both routes to the asymptotic positions, cross-checkable by the caller."""
    if frame is None:
        frame = dual_frame(p, g)
    n = frame.n
    th = frame.theta_hat
    delta = delta_vector(th, g)
    lam_plus = 0.5 * frame.lambda_hat + 0.5 * delta
    lam_minus = -0.5 * frame.lambda_hat + 0.5 * delta
    # The minors of the flow matrix in regular form (W L_hat W, W = diag(I, J)
    # with J the order reversal, so its exponent diagonal descends), and of its
    # full reversal: the leading n x n blocks of both are the diagonal blocks
    # of L_hat itself.
    l_hat = frame.dual_matrix()
    minor_plus = _minor_half_logs(l_hat[:n, :n])
    minor_minus = _minor_half_logs(l_hat[n:, n:])
    return AsymptoticData(
        theta_plus=2.0 * th,
        theta_minus=-2.0 * th,
        lambda_plus=lam_plus,
        lambda_minus=lam_minus,
        delta=delta,
        minor_route_plus=minor_plus,
        minor_route_minus=minor_minus,
    )


def scattering_map(zeta: PhasePoint, g: Coupling) -> PhasePoint:
    """S: incoming free data (xi, eta) with eta ascending negative to outgoing
    (-xi_a + Delta_a(-eta/2), -eta)."""
    eta = zeta.eta
    if (len(eta) > 1 and np.any(np.diff(eta) <= 0)) or eta[-1] >= 0:
        raise ScatteringError("incoming rapidities must be strictly ascending negative")
    new_xi = -zeta.xi + delta_vector(-eta / 2.0, g)
    return PhasePoint(xi=new_xi, eta=-eta)


def upsilon(p: PhasePoint, g: Coupling, sign: int) -> PhasePoint:
    """Auxiliary half-shift maps: (xi, eta) -> (sign*eta/2 + Delta(xi)/2, sign*2*xi)."""
    x = sign * 0.5 * p.eta + 0.5 * delta_vector(p.xi, g)
    return PhasePoint(xi=x, eta=sign * 2.0 * p.xi)


def upsilon_minus_inverse(zeta: PhasePoint, g: Coupling) -> PhasePoint:
    """Invert the minus-branch half-shift map."""
    xi = -zeta.eta / 2.0
    eta = delta_vector(xi, g) - 2.0 * zeta.xi
    return PhasePoint(xi=xi, eta=eta)


def identity_residuals(p: PhasePoint, g: Coupling) -> dict:
    """Residuals of the scattering identities at p, all from one asymptotic_data:
    lambda_plus + lambda_minus = Delta, both minor routes, S(W_-) = W_+, and
    S against its factorization through the half-shift maps."""
    data = asymptotic_data(p, g)
    wm, wp = data.wave(-1), data.wave(1)
    sw = scattering_map(wm, g)
    comp = upsilon(upsilon_minus_inverse(wm, g), g, 1)
    return {
        "sum_identity": float(np.abs(data.lambda_plus + data.lambda_minus - data.delta).max()),
        "minor_route_plus": float(np.abs(data.lambda_plus - data.minor_route_plus).max()),
        "minor_route_minus": float(np.abs(data.lambda_minus - data.minor_route_minus).max()),
        "scattering_consistency": float(np.abs(sw.as_vector() - wp.as_vector()).max()),
        "composite_route": float(np.abs(sw.as_vector() - comp.as_vector()).max()),
    }


@dataclass(frozen=True)
class ResidualTrace:
    t_grid: np.ndarray
    position_residuals: np.ndarray  # shape (len(t), n): lambda_a(t) - t sinh(theta+_a) - lambda+_a
    rapidity_residuals: np.ndarray  # shape (len(t), n): eta_a(t) - theta+_a
    fitted_rate: float  # decay rate of the slowest (max-over-a) position residual
    rapidity_fitted_rate: float
    min_gap: float  # minimal adjacent gap of 2*sinh applied to the ordered exponent diagonal
    onset_index: int


def _fit_decay(t: np.ndarray, r: np.ndarray) -> float:
    """Least-squares slope of ln(residual) vs t over the upper half of usable points."""
    usable = r > RESIDUAL_CLAMP
    t_u, r_u = t[usable], r[usable]
    if len(t_u) < MIN_FIT_POINTS:
        return float("nan")
    half = len(t_u) // 2
    t_fit, r_fit = t_u[half - 1 :], r_u[half - 1 :]
    slope = np.polyfit(t_fit, np.log(r_fit), 1)[0]
    return float(-slope)


def residual_trace(p: PhasePoint, g: Coupling, t_grid) -> ResidualTrace:
    """Track the approach of the flow to its free asymptote over the grid."""
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(np.diff(t_grid) <= 0):
        raise ScatteringError("time grid must be strictly increasing")
    frame = dual_frame(p, g)
    data = asymptotic_data(p, g, frame)
    theta_plus_diag = np.concatenate([data.theta_plus, data.theta_minus[::-1]])
    gaps = -np.diff(2.0 * np.sinh(theta_plus_diag))
    min_gap = float(gaps.min())
    pos_res, rap_res = [], []
    for s in projection_trajectory(p, g, t_grid, frame.bundle):
        pos_res.append(s.point.xi - s.t * np.sinh(data.theta_plus) - data.lambda_plus)
        rap_res.append(s.point.eta - data.theta_plus)
    pos_res = np.array(pos_res)
    rap_res = np.array(rap_res)
    worst = np.abs(pos_res).max(axis=1)
    worst_rap = np.abs(rap_res).max(axis=1)
    onset = int(np.argmax(worst < 0.1 * worst[0])) if np.any(worst < 0.1 * worst[0]) else len(worst)
    return ResidualTrace(
        t_grid=t_grid,
        position_residuals=pos_res,
        rapidity_residuals=rap_res,
        fitted_rate=_fit_decay(t_grid, worst),
        rapidity_fitted_rate=_fit_decay(t_grid, worst_rap),
        min_gap=min_gap,
        onset_index=onset,
    )
