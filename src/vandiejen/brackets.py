"""Finite-difference Poisson brackets and symplectic-structure certification.

The canonical structure uses coordinates ordered (positions, rapidities) with
bracket {f, h} = (grad f)^T Omega (grad h), Omega = [[0, I], [-I, 0]].  The
headline checks: the dual coordinates form a Darboux system (all brackets
canonical), the spectral map reverses the symplectic form, and the time-s flow
preserves it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .duality import duality_map
from .dynamics import projection_flow
from .phase_space import Coupling, PhasePoint, VandiejenError, validate

DEFAULT_STEP = 1e-5
INTERIOR_FACTOR = 10.0


class BracketError(VandiejenError):
    pass


@dataclass(frozen=True)
class Observable:
    label: str
    fn: Callable[[PhasePoint], float]

    def __call__(self, p: PhasePoint) -> float:
        return float(self.fn(p))


def omega_matrix(n: int) -> np.ndarray:
    """The canonical Poisson matrix [[0, I], [-I, 0]] of size 2n."""
    om = np.zeros((2 * n, 2 * n))
    om[:n, n:] = np.eye(n)
    om[n:, :n] = -np.eye(n)
    return om


def _require_interior(p: PhasePoint, step: float):
    margin = INTERIOR_FACTOR * step
    if validate(p, gap=margin):
        raise BracketError(
            f"point within {margin:.1e} of a phase-space constraint; "
            "central stencils would leave the valid region"
        )


def _gradient(f: Callable[[PhasePoint], float], p: PhasePoint, step: float) -> np.ndarray:
    x0 = p.as_vector()
    grad = np.empty(len(x0))
    for k in range(len(x0)):
        xp, xm = x0.copy(), x0.copy()
        xp[k] += step
        xm[k] -= step
        grad[k] = (
            f(PhasePoint.from_vector(xp)) - f(PhasePoint.from_vector(xm))
        ) / (2.0 * step)
    return grad


def poisson_bracket(
    f: Observable, h: Observable, p: PhasePoint, step: float = DEFAULT_STEP
) -> float:
    """{f, h} at p by second-order central differences."""
    if step <= 0:
        raise BracketError("step must be positive")
    _require_interior(p, step)
    gf = _gradient(f, p, step)
    gh = _gradient(h, p, step)
    return float(gf @ omega_matrix(p.n) @ gh)


def _map_jacobian(
    phi: Callable[[PhasePoint], PhasePoint], p: PhasePoint, step: float
) -> np.ndarray:
    """Finite-difference Jacobian of a phase-space map, rows = outputs, cols = inputs."""
    x0 = p.as_vector()
    cols = []
    for k in range(len(x0)):
        xp, xm = x0.copy(), x0.copy()
        xp[k] += step
        xm[k] -= step
        fp = phi(PhasePoint.from_vector(xp)).as_vector()
        fm = phi(PhasePoint.from_vector(xm)).as_vector()
        cols.append((fp - fm) / (2.0 * step))
    return np.array(cols).T


@dataclass(frozen=True)
class CanonicityReport:
    step: float
    action_action: float  # max |{theta_hat_a, theta_hat_b}|
    angle_angle: float  # max |{lambda_hat_a, lambda_hat_b}|
    cross_deviation: float  # max |{lambda_hat_a, theta_hat_b} - delta_ab|

    @property
    def max_deviation(self) -> float:
        return max(self.action_action, self.angle_angle, self.cross_deviation)


def spectral_jacobian(p: PhasePoint, g: Coupling, step: float = DEFAULT_STEP) -> np.ndarray:
    """Finite-difference Jacobian J of the spectral map p -> (theta_hat, lambda_hat)."""
    _require_interior(p, step)
    return _map_jacobian(lambda q: duality_map(q, g), p, step)


def _canonicity(j: np.ndarray, step: float) -> CanonicityReport:
    """All brackets among the dual coordinates, from the spectral map's Jacobian J.

    With K the Jacobian of p -> (lambda_hat, theta_hat), that is J with its two
    row blocks swapped, the full bracket table is K Omega K^T; canonicity is
    K Omega K^T = Omega.
    """
    n = j.shape[0] // 2
    k = np.concatenate([j[n:], j[:n]])
    table = k @ omega_matrix(n) @ k.T
    return CanonicityReport(
        step=step,
        action_action=float(np.abs(table[n:, n:]).max()),
        angle_angle=float(np.abs(table[:n, :n]).max()),
        cross_deviation=float(np.abs(table[:n, n:] - np.eye(n)).max()),
    )


def _antisymplectic(j: np.ndarray) -> float:
    """max |J^T Omega J + Omega| for the spectral map's Jacobian J."""
    om = omega_matrix(j.shape[0] // 2)
    return float(np.abs(j.T @ om @ j + om).max())


def canonicity_suite(
    p: PhasePoint, g: Coupling, step: float = DEFAULT_STEP
) -> CanonicityReport:
    """All brackets among the dual coordinates at p; see _canonicity."""
    return _canonicity(spectral_jacobian(p, g, step), step)


def antisymplectic_check(p: PhasePoint, g: Coupling, step: float = DEFAULT_STEP) -> float:
    """max |J^T Omega J + Omega| for the spectral map's Jacobian J at p."""
    return _antisymplectic(spectral_jacobian(p, g, step))


def flow_symplectic_check(
    p: PhasePoint, g: Coupling, s: float = 1.0, step: float = DEFAULT_STEP
) -> float:
    """max |J^T Omega J - Omega| for the time-s flow map's Jacobian."""
    _require_interior(p, step)
    j = _map_jacobian(lambda q: projection_flow(q, g, s), p, step)
    om = omega_matrix(p.n)
    return float(np.abs(j.T @ om @ j - om).max())


def symplectic_residuals(p: PhasePoint, g: Coupling, step: float = DEFAULT_STEP) -> dict:
    """Bracket residuals at p: canonicity of the dual coordinates and the
    reversal of the form, both from one Jacobian of the spectral map, and the
    preservation of the form by the time-1 flow."""
    j = spectral_jacobian(p, g, step)
    rep = _canonicity(j, step)
    return {
        "action_action": rep.action_action,
        "angle_angle": rep.angle_angle,
        "cross_deviation": rep.cross_deviation,
        "antisymplectic": _antisymplectic(j),
        "flow_symplectic": flow_symplectic_check(p, g, step=step),
    }


def position_observable(a: int) -> Observable:
    return Observable(f"xi_{a}", lambda p: p.xi[a])


def rapidity_observable(a: int) -> Observable:
    return Observable(f"eta_{a}", lambda p: p.eta[a])


def dual_angle_observable(a: int, g: Coupling) -> Observable:
    return Observable(f"theta_hat_{a}", lambda p: duality_map(p, g).xi[a])


def dual_position_observable(a: int, g: Coupling) -> Observable:
    return Observable(f"lambda_hat_{a}", lambda p: duality_map(p, g).eta[a])
