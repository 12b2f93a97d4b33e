"""Asymptotic scattering data: phase shifts, wave maps, the factorized scattering map,
and empirical verification that trajectories converge to their free asymptotes.

The total phase shift of each particle is a sum of pairwise and one-body
terms Delta_a; asymptotic positions come in two routes (a closed form in the
dual coordinates and leading principal minors of the diagonal blocks of the
dual matrix L_hat) which must agree.

The phase shifts, the maps, the asymptotic data and the identity residuals
take a phase point or a stack of them (see PhasePoint), each result carrying
the leading axes of the stack; a residual trace follows one point.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .asymptotics import _fit_order, _minor_ratios
from .duality import DualFrame, dual_frame
from .dynamics import projection_trajectory
from .linalg import principal_minors
from .phase_space import Coupling, PhasePoint, VandiejenError

RESIDUAL_CLAMP = 1e-14
MIN_FIT_POINTS = 4


class ScatteringError(VandiejenError):
    pass


def delta_vector(xi, g: Coupling) -> np.ndarray:
    """Phase shifts Delta_a at the ordered positive vector xi, or at each vector
    of a (..., n) stack: the one-body log term in 2*xi_a plus signed two-body
    log terms over index pairs."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if xi.shape[-1] > 1 and (np.diff(xi).max() >= 0 or xi[..., -1].min() <= 0):
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
    # of L_hat itself.  lambda_a = 0.5 * ln(pi_a / pi_{a-1}) from the leading
    # minors pi of each block.
    l_hat = frame.dual_matrix()
    minors = principal_minors(np.stack([l_hat[..., :n, :n], l_hat[..., n:, n:]]))[0].real
    if np.any(minors <= 0):
        raise ScatteringError("non-positive principal minor of a positive definite matrix")
    minor_plus, minor_minus = 0.5 * np.log(_minor_ratios(minors))
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
    if (zeta.n > 1 and np.diff(eta).min() <= 0) or eta[..., -1].max() >= 0:
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
    """Residuals of the scattering identities at p, one array per column over
    the stack p, all from one asymptotic_data: lambda_plus + lambda_minus =
    Delta, both minor routes, S(W_-) = W_+, and S against its factorization
    through the half-shift maps."""
    data = asymptotic_data(p, g)
    wm, wp = data.wave(-1), data.wave(1)
    sw = scattering_map(wm, g)
    comp = upsilon(upsilon_minus_inverse(wm, g), g, 1)
    return {
        "sum_identity": np.abs(data.lambda_plus + data.lambda_minus - data.delta).max(axis=-1),
        "minor_route_plus": np.abs(data.lambda_plus - data.minor_route_plus).max(axis=-1),
        "minor_route_minus": np.abs(data.lambda_minus - data.minor_route_minus).max(axis=-1),
        "scattering_consistency": np.abs(sw.as_vector() - wp.as_vector()).max(axis=-1),
        "composite_route": np.abs(sw.as_vector() - comp.as_vector()).max(axis=-1),
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


def residual_trace(p: PhasePoint, g: Coupling, t_grid) -> ResidualTrace:
    """Track the approach of the flow from one point to its free asymptote over the grid."""
    p.require_one()
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
    rates = []
    for r in (worst, worst_rap):
        # the decay rate: minus the log slope over the upper half of the usable points
        t_u, r_u = t_grid[r > RESIDUAL_CLAMP], r[r > RESIDUAL_CLAMP]
        upper = len(t_u) // 2 - 1
        rates.append(
            -_fit_order(t_u[upper:], r_u[upper:], clamp=RESIDUAL_CLAMP)
            if len(t_u) >= MIN_FIT_POINTS else float("nan")
        )
    return ResidualTrace(
        t_grid=t_grid,
        position_residuals=pos_res,
        rapidity_residuals=rap_res,
        fitted_rate=rates[0],
        rapidity_fitted_rate=rates[1],
        min_gap=min_gap,
        onset_index=onset,
    )
